// Event-queue semantics across the typed-event / calendar-band rewrite:
// equal-timestamp ordering, eager cancellation (including cancel-after-fire),
// run_until boundary inclusivity, counter consistency, typed-event dispatch,
// cross-band (ring / level-2 wheel / overflow heap) ordering, a
// differential check against a plain priority queue on (time, seq), and a
// clock sweep through every bucket that must not allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/event_queue.h"

// ---- Allocation counting (this test binary only) -----------------------------
// Replacing the throwing operators is enough: the nothrow and array forms
// forward to them by default.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace remus::sim {
namespace {

TEST(EventQueueOrder, EqualTimestampsRunInInsertionOrder) {
  event_queue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.run(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(q.now(), 42);
}

TEST(EventQueueOrder, InterleavedTimesSortGlobally) {
  event_queue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(11); });  // ties after the first 10
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST(EventQueueCancel, CancelPreventsExecutionAndIsEager) {
  event_queue q;
  int hits = 0;
  const auto t = q.schedule_at(5, [&] { ++hits; });
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(t));
  // Eager: the event leaves the queue immediately.
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(t));  // double-cancel reports failure
  q.run();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueueCancel, CancelAfterFireReturnsFalse) {
  event_queue q;
  int hits = 0;
  const auto t = q.schedule_at(5, [&] { ++hits; });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(q.cancel(t));  // already ran
  // A recycled slot must not resurrect old tokens.
  const auto t2 = q.schedule_at(10, [&] { ++hits; });
  EXPECT_FALSE(q.cancel(t));
  EXPECT_TRUE(q.cancel(t2));
}

TEST(EventQueueCancel, CancelBogusTokensReturnsFalse) {
  event_queue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(~0ULL));
  q.schedule_at(1, [] {});
  EXPECT_FALSE(q.cancel(0));
  q.run();
}

TEST(EventQueueCancel, CancelMiddleKeepsOrder) {
  event_queue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  const auto t = q.schedule_at(20, [&] { order.push_back(2); });
  q.schedule_at(20, [&] { order.push_back(22); });
  q.schedule_at(30, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(t));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 22, 3}));
}

TEST(EventQueueRunUntil, DeadlineIsInclusive) {
  event_queue q;
  int hits = 0;
  q.schedule_at(10, [&] { ++hits; });
  q.schedule_at(15, [&] { ++hits; });  // exactly at the deadline: runs
  q.schedule_at(16, [&] { ++hits; });  // one past: stays
  EXPECT_EQ(q.run_until(15), 2u);
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(q.now(), 15);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(hits, 3);
}

TEST(EventQueueRunUntil, EmptyRunAdvancesClockOnly) {
  event_queue q;
  EXPECT_EQ(q.run_until(500), 0u);
  EXPECT_EQ(q.now(), 500);
}

TEST(EventQueueRunUntil, DoesNotOvershootDeadlinePastFarEvents) {
  event_queue q;
  int hits = 0;
  // 50 ms out: lives in the level-2 wheel, far beyond the deadline.
  q.schedule_at(50'000'000, [&] { ++hits; });
  q.run_until(3'000'000);
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(q.now(), 3'000'000);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.now(), 50'000'000);
}

TEST(EventQueueCounters, PendingAndExecutedStayConsistent) {
  event_queue q;
  std::vector<event_queue::token> tokens;
  for (int i = 0; i < 10; ++i) tokens.push_back(q.schedule_at(i, [] {}));
  EXPECT_EQ(q.pending(), 10u);
  EXPECT_TRUE(q.cancel(tokens[3]));
  EXPECT_TRUE(q.cancel(tokens[7]));
  EXPECT_EQ(q.pending(), 8u);
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(q.executed(), 4u);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(q.executed(), 8u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueBands, OrderHoldsAcrossRingWheelAndOverflow) {
  event_queue q;
  std::vector<int> order;
  q.schedule_at(10'000'000'000, [&] { order.push_back(4); });  // overflow heap
  q.schedule_at(500'000'000, [&] { order.push_back(3); });     // level-2 wheel
  q.schedule_at(10'000'000, [&] { order.push_back(2); });      // level-2 wheel
  q.schedule_at(100, [&] { order.push_back(1); });             // calendar ring
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 10'000'000'000);
}

TEST(EventQueueBands, CancelWorksInEveryBand) {
  event_queue q;
  int hits = 0;
  const auto ring = q.schedule_at(100, [&] { ++hits; });
  const auto wheel = q.schedule_at(50'000'000, [&] { ++hits; });
  const auto overflow = q.schedule_at(10'000'000'000, [&] { ++hits; });
  EXPECT_TRUE(q.cancel(wheel));
  EXPECT_TRUE(q.cancel(overflow));
  EXPECT_TRUE(q.cancel(ring));
  EXPECT_TRUE(q.empty());
  q.run();
  EXPECT_EQ(hits, 0);
}

TEST(EventQueueBands, FarEventsSortAgainstLateRingInserts) {
  // An event scheduled far ahead must still order by (time, insertion seq)
  // against events scheduled near its time much later.
  event_queue q;
  std::vector<int> order;
  q.schedule_at(6'000'000, [&] { order.push_back(1); });  // wheel at schedule time
  q.schedule_at(5'000'000, [&] {
    // now = 5 ms: the 6 ms event has cascaded into the ring; this sibling
    // shares its timestamp but was scheduled later, so it runs second.
    q.schedule_at(6'000'000, [&] { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// The ring's direct-schedule horizon: 2048 buckets of 2^10 ns.
constexpr time_ns ring_horizon = time_ns{2048} << 10;

TEST(EventQueueBands, OverflowEventJustPastTheHorizonKeepsItsPlace) {
  // A and F start in the overflow heap. When A runs, F is just past the
  // horizon, but inside the wheel bucket the cascade already moved into the
  // ring, so W (scheduled by A, later than F) goes straight to the ring. F
  // must still run before W, and the clock must never step back.
  event_queue q;
  std::vector<char> order;
  std::vector<time_ns> times;
  const time_ns a = 3'000'000'000;
  const auto note = [&](char c) {
    order.push_back(c);
    times.push_back(q.now());
  };
  q.schedule_at(a, [&] {
    note('A');
    q.schedule_at(a + ring_horizon + 800'000, [&] { note('W'); });
  });
  q.schedule_at(a + ring_horizon + 500'000, [&] { note('F'); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<char>{'A', 'F', 'W'}));
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
}

TEST(EventQueueBands, ScheduleAfterADeadlineJumpKeepsOrder) {
  // run_until that ends by its deadline moves the clock without running an
  // event. A schedule made right after it, within the ring's horizon, must
  // still order after an earlier overflow event the jump left behind.
  event_queue q;
  std::vector<char> order;
  const time_ns f = 5'000'000'000;  // overflow heap at schedule time
  q.schedule_at(f, [&] { order.push_back('F'); });
  EXPECT_EQ(q.run_until(f - 1'000'000), 0u);
  q.schedule_at(f + 500'000, [&] { order.push_back('W'); });
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(order, (std::vector<char>{'F', 'W'}));
}

TEST(EventQueueBands, MatchesAPriorityQueueOnRandomNestedSchedules) {
  // Every event is checked, as it runs, against a std::priority_queue on
  // (time, insertion seq) fed the same schedules and cancels. Delays are
  // log-uniform from 1 ns to 10 s, so every band and every boundary between
  // them is crossed; running events schedule and cancel others.
  struct entry {
    time_ns at;
    std::uint64_t seq;
    std::size_t id;
    bool operator>(const entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    rng r(seed);
    event_queue q;
    std::priority_queue<entry, std::vector<entry>, std::greater<>> model;
    std::vector<event_queue::token> tokens;  // by event id
    std::vector<bool> live;                  // by event id: queued in the model
    std::uint64_t seq = 0;
    std::size_t ran = 0;
    std::string mismatch;
    const auto delay = [&r] {
      return static_cast<time_ns>(std::exp(r.next_unit() * std::log(1e10)));
    };
    std::function<void(time_ns)> schedule = [&](time_ns at) {
      const std::size_t id = tokens.size();
      live.push_back(true);
      model.push(entry{at, seq++, id});
      tokens.push_back(q.schedule_at(at, [&, id, at] {
        while (!model.empty() && !live[model.top().id]) model.pop();
        if (mismatch.empty() && (model.empty() || model.top().id != id || q.now() != at)) {
          mismatch = "event " + std::to_string(id) + " at " + std::to_string(at) +
                     " ran at now " + std::to_string(q.now()) + "; expected event " +
                     (model.empty() ? std::string("none")
                                    : std::to_string(model.top().id) + " at " +
                                          std::to_string(model.top().at));
        }
        if (!model.empty() && model.top().id == id) model.pop();
        live[id] = false;
        ++ran;
        if (tokens.size() < 4000) {
          for (std::uint64_t k = r.next_below(3); k > 0; --k) schedule(q.now() + delay());
        }
        if (r.chance(0.2)) {
          const std::size_t victim = r.next_below(tokens.size());
          const bool queued = live[victim];
          if (q.cancel(tokens[victim]) != queued && mismatch.empty()) {
            mismatch = "cancel of event " + std::to_string(victim) + " disagreed";
          }
          live[victim] = false;
        }
      }));
    };
    for (int i = 0; i < 200; ++i) schedule(delay());
    // Drive with both entry points: single steps, and deadline runs followed
    // by a schedule from outside any event, as the shard router's windows
    // do. Half the deadlines stop up to 1 ms short of the next pending
    // event, where a schedule a few ms out can land just after it.
    while (!q.empty() && mismatch.empty()) {
      if (r.chance(0.5)) {
        q.step();
        continue;
      }
      time_ns deadline = q.now() + delay();
      if (r.chance(0.5)) {
        deadline = std::max(q.now(), q.next_time() - 1 -
                                         static_cast<time_ns>(r.next_below(1'000'000)));
      }
      q.run_until(deadline);
      if (tokens.size() < 4000) {
        schedule(q.now() + static_cast<time_ns>(std::exp(r.next_unit() * std::log(4e6))));
      }
    }
    EXPECT_EQ(mismatch, "");
    while (!model.empty() && !live[model.top().id]) model.pop();
    EXPECT_TRUE(model.empty());
    EXPECT_GT(ran, 1000u);
  }
}

TEST(EventQueueAllocations, ClockSweepThroughEveryBucketAllocatesNothing) {
  // Once the slot arena (and the overflow heap) have held the peak number
  // of pending events, typed events allocate nothing, whatever buckets
  // their times fall in. Three kinds of event chains drive the clock:
  //   * a ring sweeper, 1 us apart for the first 20 ms: every ~1 us ring
  //     bucket, five laps round;
  //   * three wheel sweepers, each 3 ms out and 1 ms apart from the next:
  //     every ~1 ms level-2 wheel bucket, over 10 s;
  //   * random lanes with log-uniform delays from 1 us to 3 s, which
  //     schedule extra events (up to a cap) and cancel pending ones.
  constexpr time_ns kRingBucket = time_ns{1} << 10;
  constexpr time_ns kWheelBucket = time_ns{1} << 20;
  constexpr time_ns kRingHorizon = kRingBucket * 2048;   // direct ring schedules
  constexpr time_ns kWheelHorizon = kWheelBucket * 2048;  // wheel, then overflow
  constexpr std::size_t kPeak = 512;
  constexpr std::uint64_t kRing = 0, kWheel = 1, kLane = 2;
  constexpr std::size_t kLanes = 128, kLaneCap = 256;

  struct sweep final : sim_executor {
    event_queue* q = nullptr;
    rng r{7};
    time_ns start = 0;
    std::array<event_queue::token, 64> recent{};
    std::size_t next_recent = 0;
    std::size_t lanes = 0;  // lane events pending
    std::bitset<4096> ring_hit, wheel_hit;

    void put(time_ns delay, std::uint64_t kind) {
      const time_ns at = q->now() + delay;
      // Where the event waits: ring buckets by ~1 us, wheel buckets by ~1 ms.
      if (delay < kRingHorizon) {
        ring_hit.set(static_cast<std::size_t>((at / kRingBucket) % 4096));
      } else if (delay < kWheelHorizon) {
        wheel_hit.set(static_cast<std::size_t>((at / kWheelBucket) % 4096));
      }
      const event_queue::token t = q->schedule_plain(at, event_kind::timer, process_id{0}, kind);
      if (kind == kLane) {
        ++lanes;
        recent[next_recent++ % recent.size()] = t;
      }
    }
    time_ns lane_delay() {
      return static_cast<time_ns>(1e3 * std::exp(r.next_unit() * std::log(3e6)));
    }
    void execute(sim_event& ev) override {
      const time_ns t = q->now() - start;
      if (ev.a == kRing) {
        if (t < 20'000'000) put(1'000, kRing);
      } else if (ev.a == kWheel) {
        if (t < 10'000'000'000) put(3'000'000, kWheel);
      } else {
        --lanes;
        if (t >= 10'000'000'000) return;
        put(lane_delay(), kLane);
        while (lanes < kLaneCap && r.chance(0.3)) put(lane_delay(), kLane);
        if (r.chance(0.1) && q->cancel(recent[r.next_below(recent.size())])) --lanes;
      }
    }
  } exec;
  event_queue q;
  q.set_executor(&exec);
  exec.q = &q;

  // Warm-up: the peak number of events, all in the overflow heap.
  for (std::size_t i = 0; i < kPeak; ++i) {
    q.schedule_plain(3'000'000'000 + static_cast<time_ns>(i), event_kind::timer,
                     process_id{0}, kLane);
  }
  exec.lanes = kPeak;
  q.run();
  ASSERT_EQ(exec.lanes, 0u);

  exec.start = q.now();
  exec.put(1'000, kRing);
  for (time_ns i = 0; i < 3; ++i) exec.put(3'000'000 + i * 1'000'000, kWheel);
  for (std::size_t i = 0; i < kLanes; ++i) exec.put(exec.lane_delay(), kLane);
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t ran = q.run();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;

  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_GE(q.now() - exec.start, 10'000'000'000);
  EXPECT_EQ(exec.ring_hit.count(), 4096u);
  EXPECT_EQ(exec.wheel_hit.count(), 4096u);
  EXPECT_GT(ran, 30'000u);
}

TEST(EventQueueScheduling, IntoThePastThrows) {
  event_queue q;
  q.schedule_at(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, [] {}), driver_error);
}

TEST(EventQueueTyped, ExecutorReceivesTypedEvents) {
  struct capture final : sim_executor {
    std::vector<sim_event> seen;
    void execute(sim_event& ev) override {
      sim_event copy;
      copy.kind = ev.kind;
      copy.target = ev.target;
      copy.a = ev.a;
      copy.incarnation = ev.incarnation;
      seen.push_back(std::move(copy));
    }
  } exec;
  event_queue q;
  q.set_executor(&exec);
  q.schedule_plain(30, event_kind::timer, process_id{2}, 77, 5);
  q.schedule_plain(10, event_kind::op_dispatch, process_id{1}, 4);
  q.schedule_plain(20, event_kind::log_done, process_id{0}, 9, 1);
  EXPECT_EQ(q.run(), 3u);
  ASSERT_EQ(exec.seen.size(), 3u);
  EXPECT_EQ(exec.seen[0].kind, event_kind::op_dispatch);
  EXPECT_EQ(exec.seen[0].target, process_id{1});
  EXPECT_EQ(exec.seen[0].a, 4u);
  EXPECT_EQ(exec.seen[1].kind, event_kind::log_done);
  EXPECT_EQ(exec.seen[1].target, process_id{0});
  EXPECT_EQ(exec.seen[1].a, 9u);
  EXPECT_EQ(exec.seen[1].incarnation, 1u);
  EXPECT_EQ(exec.seen[2].kind, event_kind::timer);
  EXPECT_EQ(exec.seen[2].a, 77u);
  EXPECT_EQ(exec.seen[2].incarnation, 5u);
}

TEST(EventQueueTyped, SharedMessagePayloadIsRefcountedNotCopied) {
  proto::message_pool pool;
  proto::message m;
  m.kind = proto::msg_kind::write;
  m.from = process_id{1};
  m.entries = {{0, tag{}, value_of_u32(7)}};

  struct count_exec final : sim_executor {
    int delivered = 0;
    const proto::message* payload = nullptr;
    void execute(sim_event& ev) override {
      ++delivered;
      // Every delivery of the broadcast sees the same pooled object.
      if (payload == nullptr) payload = &*ev.msg;
      EXPECT_EQ(payload, &*ev.msg);
      EXPECT_EQ(ev.msg->entries[0].val, value_of_u32(7));
    }
  } exec;
  event_queue q;
  q.set_executor(&exec);
  {
    const proto::shared_message sh = pool.make(m);
    for (int i = 0; i < 3; ++i) {
      q.schedule_message(10 + i, process_id{static_cast<std::uint32_t>(i)}, sh);
    }
  }
  EXPECT_EQ(pool.outstanding(), 1u);  // events keep the payload alive
  q.run();
  EXPECT_EQ(exec.delivered, 3);
  EXPECT_EQ(pool.outstanding(), 0u);  // returned to the pool after delivery
  EXPECT_EQ(pool.capacity(), 1u);     // one slot served the whole broadcast
}

}  // namespace
}  // namespace remus::sim
