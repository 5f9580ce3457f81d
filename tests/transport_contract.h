// A check of the `transport` contract shared by both implementations'
// suites: detach(p) must wait out a handler call for p that is running on
// the transport's thread.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/transport.h"

namespace remus::runtime {

/// Attaches a handler for p that blocks until released, sends p one message
/// and, once the handler is inside, detaches p from another thread: detach
/// must not return before the handler does.
inline void expect_detach_waits_out_handler(transport& t, process_id p) {
  std::atomic<bool> entered{false}, release{false}, handler_done{false};
  t.attach(p, [&](const proto::message&) {
    entered = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    handler_done = true;
  });
  proto::message m;
  m.from = p;
  t.send(p, m);
  for (int i = 0; i < 5000 && !entered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(entered.load());

  std::atomic<bool> detached{false}, done_at_return{false};
  std::thread detacher([&] {
    t.detach(p);
    done_at_return = handler_done.load();
    detached = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(detached.load()) << "detach returned while p's handler was running";
  release = true;
  detacher.join();
  EXPECT_TRUE(done_at_return.load());
  // Outlive the handler even when detach broke its promise.
  while (!handler_done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

}  // namespace remus::runtime
