// Checks of the `transport` contract shared by both implementations'
// suites: detach(p) must wait out a handler call for p that is running on
// the transport's thread, and a handler that throws loses its message the
// way any drop does.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
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

/// Attaches a handler for p that throws on its first call and sends p two
/// messages: the throw counts as exactly one drop, and the second message
/// is still delivered.
inline void expect_handler_exception_counts_as_drop(transport& t, process_id p) {
  std::atomic<int> calls{0};
  t.attach(p, [&](const proto::message&) {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("handler fault");
  });
  const std::uint64_t dropped_before = t.datagrams_dropped();
  proto::message m;
  m.from = p;
  t.send(p, m);
  t.send(p, m);
  for (int i = 0; i < 5000 && calls < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  t.detach(p);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(t.datagrams_dropped(), dropped_before + 1);
}

}  // namespace remus::runtime
