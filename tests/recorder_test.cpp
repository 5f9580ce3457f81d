// Tests for the history recorder: event capture, ordering guarantees under
// concurrent reporters, and integration with the checkers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "history/atomicity.h"
#include "history/recorder.h"
#include "history/wellformed.h"

namespace remus::history {
namespace {

TEST(Recorder, CapturesAllEventKinds) {
  recorder rec;
  rec.invoke_write(process_id{0}, value_of_u32(1), 10);
  rec.reply_write(process_id{0}, 20);
  rec.invoke_read(process_id{1}, 30);
  rec.reply_read(process_id{1}, value_of_u32(1), 40);
  rec.crash(process_id{2}, 50);
  rec.recover(process_id{2}, 60);

  const auto h = rec.events();
  ASSERT_EQ(h.size(), 6u);
  EXPECT_EQ(h[0].kind, event_kind::invoke_write);
  EXPECT_EQ(h[0].v, value_of_u32(1));
  EXPECT_EQ(h[1].kind, event_kind::reply_write);
  EXPECT_EQ(h[2].kind, event_kind::invoke_read);
  EXPECT_EQ(h[3].kind, event_kind::reply_read);
  EXPECT_EQ(h[4].kind, event_kind::crash);
  EXPECT_EQ(h[5].kind, event_kind::recover);
  EXPECT_TRUE(check_well_formed(h).ok);
  EXPECT_TRUE(check_persistent_atomicity(h).ok);
}

TEST(Recorder, TimeGoingBackwardsThrows) {
  // A reported time is never rewritten: an event earlier than the last one
  // is a driver bug, not something to paper over.
  recorder rec;
  rec.invoke_write(process_id{0}, value_of_u32(1), 100);
  EXPECT_THROW(rec.reply_write(process_id{0}, 90), driver_error);
  rec.reply_write(process_id{0}, 100);  // equal times are fine
  const auto h = rec.events();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[1].at, 100);
  EXPECT_TRUE(check_well_formed(h).ok);
}

TEST(Recorder, SizeAndClear) {
  recorder rec;
  EXPECT_EQ(rec.size(), 0u);
  rec.crash(process_id{0}, 1);
  rec.recover(process_id{0}, 2);
  EXPECT_EQ(rec.size(), 2u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

/// A clock that ticks once per reading.
std::atomic<time_ns> g_ticks{0};
time_ns tick() { return g_ticks.fetch_add(1, std::memory_order_relaxed); }

TEST(Recorder, ConcurrentReportersProduceWellFormedPerProcessStreams) {
  // Racing reporters pass a clock, which the recorder reads under its lock:
  // every event appends with the time it really had, in time order.
  recorder rec;
  std::vector<std::thread> threads;
  for (std::uint32_t p = 0; p < 8; ++p) {
    threads.emplace_back([&rec, p] {
      for (std::uint32_t i = 0; i < 200; ++i) {
        rec.invoke_write(process_id{p}, default_register, value_of_u32(p * 1000 + i), tick);
        rec.reply_write(process_id{p}, default_register, tick);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto h = rec.events();
  EXPECT_EQ(h.size(), 8u * 200u * 2u);
  // Each process's local stream alternates invoke/reply; global timestamps
  // strictly increase, since each event read the clock once.
  EXPECT_TRUE(check_well_formed(h).ok);
  for (std::size_t i = 1; i < h.size(); ++i) EXPECT_LT(h[i - 1].at, h[i].at);
}

}  // namespace
}  // namespace remus::history
