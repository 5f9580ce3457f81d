// Deterministic discrete-event queue: the heart of the simulated
// asynchronous system. Events at equal timestamps run in insertion order,
// so a run is a pure function of (configuration, seed).
//
// Implementation notes (this is the hottest structure in the repo):
//   * Events are a tagged union (sim_event) executed in place via the
//     sim_executor interface — no per-event closure allocation, no move of
//     the payload between scheduling and execution. A thunk's closure sits
//     in a side table the event indexes, so every event is 32 bytes.
//   * Three bands split traffic by horizon, hierarchical-timing-wheel
//     style. Short-horizon events (protocol messages, disk completions —
//     the churn) go to a calendar ring: 4096 one-microsecond buckets with
//     an occupancy bitmap, giving O(1) insert and pop instead of heap
//     sifts. Longer-dated events (retransmission timers, mostly — the bulk
//     of *pending* events) go to a level-2 wheel of ~1 ms buckets whose
//     contents cascade into the ring just before the clock reaches them;
//     multi-second schedules (fault plans) land in an overflow min-heap.
//     Every event is popped from the ring in (timestamp, insertion-seq)
//     order, so the schedule is exactly the single-queue order.
//   * Events live in generation-stamped slots with stable addresses
//     (chunked arena); a token packs (slot, generation), making cancel() an
//     O(1) validity check plus a short bucket walk. A slot carries its
//     event's sort key (time, seq) and a `next` link, and the ring's and
//     the wheel's buckets are intrusive lists threaded through the slots (a
//     bucket is a head/tail pair of slot indices), so a bucket costs no
//     allocation however the clock sweeps the ring. Free slots are threaded
//     through the same link. A slot is one 64-byte cache line: popping an
//     event reads its sort key, its link and its payload from one line.
//     Only the overflow heap keeps separate entries.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/time.h"
#include "sim/sim_event.h"

namespace remus::sim {

class event_queue {
 public:
  using action = std::function<void()>;

  /// Token identifying a scheduled event, usable for cancellation.
  using token = std::uint64_t;

  /// Install the executor for typed (non-thunk) events. Must be set before
  /// any typed event fires; thunk-only users may skip it.
  void set_executor(sim_executor* ex) noexcept { executor_ = ex; }

  // In-place typed scheduling: fills exactly the fields the kind's handler
  // reads, so the hot path never constructs or moves a full sim_event.

  /// message delivery: shares `m`'s payload by refcount.
  token schedule_message(time_ns at, process_id target,
                         const proto::shared_message& m) {
    const auto [idx, s] = acquire_slot(at);
    s->ev.kind = event_kind::message;
    s->ev.target = target;
    s->ev.msg = m;
    return commit(at, idx, *s);
  }
  token schedule_message(time_ns at, process_id target, proto::shared_message&& m) {
    const auto [idx, s] = acquire_slot(at);
    s->ev.kind = event_kind::message;
    s->ev.target = target;
    s->ev.msg = std::move(m);
    return commit(at, idx, *s);
  }

  /// log_done / timer / op_dispatch / crash / recover / lease_expiry: POD
  /// payloads only.
  token schedule_plain(time_ns at, event_kind k, process_id target,
                       std::uint64_t a = no_event_arg,
                       std::uint64_t incarnation = no_event_arg) {
    const auto [idx, s] = acquire_slot(at);
    s->ev.kind = k;
    s->ev.target = target;
    s->ev.a = a;
    s->ev.incarnation = incarnation;
    return commit(at, idx, *s);
  }

  /// Schedule `fn` at absolute time `at` (generic-thunk fallback).
  token schedule_at(time_ns at, action fn);

  /// Schedule `fn` `delay` after now().
  token schedule_after(time_ns delay, action fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a scheduled event; returns false if it already ran or was
  /// cancelled before. Cancellation is eager: the event leaves the queue
  /// immediately (pending() drops, and empty() may become true).
  bool cancel(token t);

  /// Run the next event; returns false when the queue is empty.
  /// Not reentrant: an executing event must not call step()/run().
  bool step();

  /// Run events until the queue drains or `limit` events executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t limit = ~0ULL);

  /// Run events with timestamp <= deadline (inclusive); later events stay.
  std::uint64_t run_until(time_ns deadline);

  [[nodiscard]] time_ns now() const noexcept { return now_; }
  /// Lower bound on the earliest pending event's timestamp: exact when an
  /// imminent (calendar-ring) event exists, a bucket-start bound for
  /// wheel/overflow events, and time_ns's max when the queue is empty.
  /// Read-only (no cascade happens). The shard router uses it to advance
  /// independent clusters' clocks in merged virtual-time order.
  [[nodiscard]] time_ns next_time() const;
  [[nodiscard]] bool empty() const noexcept {
    return ring_count_ == 0 && w2_count_ == 0 && far_.empty();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return ring_count_ + w2_count_ + far_.size();
  }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  static constexpr std::uint32_t npos = ~0u;
  static constexpr std::uint32_t far_flag = 0x8000'0000u;
  static constexpr std::uint32_t w2_flag = 0x4000'0000u;
  static constexpr std::uint32_t chunk_shift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t chunk_size = 1u << chunk_shift;

  // Calendar ring: 4096 buckets of 2^10 ns (~1 us) cover ~4.2 ms. Direct
  // schedules land in the ring only when closer than far_horizon, but the
  // cascade moves whole wheel buckets, so the ring holds events up to one
  // wheel bucket past the horizon; the real aliasing bound is far_horizon +
  // 2^w2_shift < ring span (checked below).
  static constexpr std::uint32_t bucket_shift = 10;
  static constexpr time_ns bucket_ns = time_ns{1} << bucket_shift;
  static constexpr std::uint32_t ring_size = 4096;  // power of two
  static constexpr time_ns far_horizon = bucket_ns * (ring_size / 2);

  // Level-2 wheel: 4096 buckets of 2^20 ns (~1 ms) cover ~4.3 s; events
  // within half that horizon go here, later ones to the overflow heap.
  // Buckets are unsorted append-only; the cascade into the (sorting) ring
  // happens before now() + far_horizon reaches them. The flush boundary is
  // the end of the last cascaded bucket: every event before it, overflow
  // events included, is in the ring, and none after it is.
  static constexpr std::uint32_t w2_shift = 20;
  static constexpr std::uint32_t w2_size = 4096;  // power of two
  static constexpr time_ns w2_horizon = (time_ns{1} << w2_shift) * (w2_size / 2);

  // Masked ring indices stay unambiguous only while every queued ring event
  // is within one ring span of now(); cascaded events reach at most
  // far_horizon + one wheel bucket.
  static_assert(far_horizon + (time_ns{1} << w2_shift) < bucket_ns * ring_size);

  struct alignas(64) slot {
    time_ns at = 0;
    std::uint64_t seq = 0;  // insertion order: ties run first-scheduled
    std::uint32_t gen = 1;  // stamped into tokens; bumped on retire
    /// npos = not queued; far_flag|pos = overflow-heap position;
    /// w2_flag|bucket = level-2 wheel bucket; else the masked ring bucket.
    std::uint32_t heap_pos = npos;
    /// Next slot of its ring or wheel bucket, or of the free list.
    std::uint32_t next = npos;
    sim_event ev{};
  };
  static_assert(sizeof(slot) == 64, "one slot, one cache line");

  /// Overflow-heap entries carry their sort key inline so sifts never chase
  /// the slot table.
  struct heap_entry {
    time_ns at = 0;
    std::uint64_t seq = 0;
    std::uint32_t idx = 0;  // slot holding the payload
  };

  /// One ring or wheel bucket: a list of slots linked through slot::next.
  /// Ring buckets keep it sorted by (at, seq); wheel buckets keep
  /// insertion order.
  struct bucket {
    std::uint32_t head = npos;
    std::uint32_t tail = npos;
  };

  template <class A, class B>
  [[nodiscard]] static bool before(const A& a, const B& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  [[nodiscard]] slot& slot_at(std::uint32_t idx) {
    return chunks_[idx >> chunk_shift][idx & (chunk_size - 1)];
  }
  [[nodiscard]] const slot& slot_at(std::uint32_t idx) const {
    return chunks_[idx >> chunk_shift][idx & (chunk_size - 1)];
  }

  /// Take a free slot for an event at `at` (throws on past times). Retired
  /// slots are guaranteed to hold no message reference, so typed fillers
  /// only assign the fields their kind's handler reads.
  std::pair<std::uint32_t, slot*> acquire_slot(time_ns at) {
    if (at < now_) throw driver_error("event_queue: scheduling into the past");
    std::uint32_t idx;
    if (free_head_ == npos) {
      if ((slot_count_ & (chunk_size - 1)) == 0) {
        chunks_.push_back(std::make_unique<slot[]>(chunk_size));
      }
      idx = slot_count_++;
    } else {
      idx = free_head_;
      free_head_ = slot_at(idx).next;
    }
    return {idx, &slot_at(idx)};
  }

  /// Stamp the acquired slot's sort key and insert it into its band;
  /// returns its token.
  token commit(time_ns at, std::uint32_t idx, slot& s) {
    s.at = at;
    s.seq = next_seq_++;
    const time_ns delta = at - now_;
    if (delta < far_horizon ||
        (static_cast<std::uint64_t>(at) >> w2_shift) < w2_flushed_) {
      // Imminent — or its wheel bucket already cascaded (the flush boundary
      // sits inside it), which still keeps it within the ring's safe span.
      ring_insert(idx, s);
    } else {
      commit_far(idx, s, delta);
    }
    return (static_cast<std::uint64_t>(idx) << 32) | s.gen;
  }
  void commit_far(std::uint32_t idx, slot& s, time_ns delta);

  void far_sift_up(std::uint32_t pos, heap_entry e);
  void far_sift_down(std::uint32_t pos, heap_entry e);
  void far_remove(std::uint32_t pos);
  /// Masked index of the first occupied ring bucket at or after now();
  /// call only when ring_count_ > 0.
  [[nodiscard]] std::uint32_t first_bucket() const;
  void ring_insert(std::uint32_t idx, slot& s);
  /// Links `idx` at the tail of `bk`; returns true when `bk` was empty.
  bool append(bucket& bk, std::uint32_t idx, slot& s);
  /// Unlinks the head of ring bucket `b` and returns its slot.
  std::uint32_t pop_bucket(std::uint32_t b);
  /// Unlinks `idx` from `bk`; returns true when the bucket became empty.
  bool unlink(bucket& bk, std::uint32_t idx);
  /// Cascade wheel/overflow events into the ring as the clock approaches:
  /// through the wheel bucket holding now() + far_horizon, and every
  /// overflow event before the new flush boundary. The fast path is one
  /// compare against the cached due time.
  void maybe_flush() {
    if (now_ >= flush_due_) advance_flush();
  }
  void advance_flush();
  /// Moves now() to the popped event's time; an earlier time means the
  /// bands broke the schedule order, which no caller may observe.
  void advance_clock(time_ns at) {
    if (at < now_) throw driver_error("event_queue: clock would run backwards");
    now_ = at;
  }
  /// With the ring empty, fast-forward now() to the next band's first event
  /// (invisible: no event runs in the gap) and cascade it in. Returns that
  /// time. Call only when w2_count_ + far_.size() > 0.
  time_ns jump_to_next_band();
  /// Earliest possible event time in wheel/overflow (bucket-start lower
  /// bound for the wheel; exact for the overflow heap).
  [[nodiscard]] time_ns next_band_time() const;
  void retire(std::uint32_t idx);
  /// Moves thunk event `s`'s closure out of the side table, freeing its entry.
  action take_thunk(const slot& s);
  void execute_slot(std::uint32_t idx);

  std::vector<std::unique_ptr<slot[]>> chunks_;  // stable slot storage
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = npos;  // recycled slots, linked through next
  std::vector<bucket> ring_ = std::vector<bucket>(ring_size);
  std::array<std::uint64_t, ring_size / 64> occupied_{};
  std::size_t ring_count_ = 0;
  std::vector<bucket> w2_ = std::vector<bucket>(w2_size);  // level-2 wheel
  std::array<std::uint64_t, w2_size / 64> w2_occupied_{};
  std::size_t w2_count_ = 0;
  std::uint64_t w2_flushed_ = 0;     // absolute bucket: all before are empty
  std::vector<heap_entry> far_;      // 4-ary min-heap, multi-second overflow
  /// Closures of pending thunk events, indexed by their event's `a`.
  std::vector<action> thunks_;
  std::vector<std::uint32_t> free_thunks_;
  sim_executor* executor_ = nullptr;
  /// Earliest now() at which a cascade could matter: far_horizon before
  /// the flush boundary (w2_flushed_'s bucket start). Maintained by
  /// advance_flush().
  time_ns flush_due_ = 0;
  time_ns now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace remus::sim
