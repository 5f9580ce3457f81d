#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace remus::sim {

namespace {
constexpr time_ns no_time = std::numeric_limits<time_ns>::max();
}  // namespace

event_queue::token event_queue::schedule_at(time_ns at, action fn) {
  const auto [idx, s] = acquire_slot(at);
  std::uint32_t t;
  if (free_thunks_.empty()) {
    t = static_cast<std::uint32_t>(thunks_.size());
    thunks_.push_back(std::move(fn));
  } else {
    t = free_thunks_.back();
    free_thunks_.pop_back();
    thunks_[t] = std::move(fn);
  }
  s->ev.kind = event_kind::thunk;
  s->ev.a = t;
  return commit(at, idx, *s);
}

event_queue::action event_queue::take_thunk(const slot& s) {
  const auto t = static_cast<std::uint32_t>(s.ev.a);
  action fn = std::move(thunks_[t]);
  thunks_[t] = nullptr;
  free_thunks_.push_back(t);
  return fn;
}

void event_queue::ring_insert(std::uint32_t idx, slot& s) {
  const std::uint32_t b =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(s.at) >> bucket_shift) &
      (ring_size - 1);
  bucket& bk = ring_[b];
  ++ring_count_;
  s.heap_pos = b;
  // Sorted insert from the tail; in practice appends, since a bucket spans
  // ~1 us and near-simultaneous events arrive in seq order.
  if (bk.tail == npos || !before(s, slot_at(bk.tail))) {
    if (append(bk, idx, s)) occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    return;
  }
  // Out of order: link it in before the first later entry, which exists
  // (the tail is one).
  std::uint32_t* link = &bk.head;
  while (!before(s, slot_at(*link))) link = &slot_at(*link).next;
  s.next = *link;
  *link = idx;
}

void event_queue::commit_far(std::uint32_t idx, slot& s, time_ns delta) {
  if (delta < w2_horizon) {
    const std::uint32_t b = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(s.at) >> w2_shift) & (w2_size - 1));
    // Unsorted append; the cascade into the ring orders it.
    if (append(w2_[b], idx, s)) w2_occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++w2_count_;
    s.heap_pos = b | w2_flag;
  } else {
    const std::uint32_t pos = static_cast<std::uint32_t>(far_.size());
    far_.emplace_back();
    far_sift_up(pos, heap_entry{s.at, s.seq, idx});
  }
}

void event_queue::far_sift_up(std::uint32_t pos, heap_entry e) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!before(e, far_[parent])) break;
    far_[pos] = far_[parent];
    slot_at(far_[pos].idx).heap_pos = pos | far_flag;
    pos = parent;
  }
  far_[pos] = e;
  slot_at(e.idx).heap_pos = pos | far_flag;
}

void event_queue::far_sift_down(std::uint32_t pos, heap_entry e) {
  const std::uint32_t n = static_cast<std::uint32_t>(far_.size());
  for (;;) {
    const std::uint32_t first_child = pos * 4 + 1;
    if (first_child >= n) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child = std::min(first_child + 4, n);
    for (std::uint32_t c = first_child + 1; c < last_child; ++c) {
      if (before(far_[c], far_[best])) best = c;
    }
    if (!before(far_[best], e)) break;
    far_[pos] = far_[best];
    slot_at(far_[pos].idx).heap_pos = pos | far_flag;
    pos = best;
  }
  far_[pos] = e;
  slot_at(e.idx).heap_pos = pos | far_flag;
}

void event_queue::far_remove(std::uint32_t pos) {
  const heap_entry moved = far_.back();
  far_.pop_back();
  if (pos == static_cast<std::uint32_t>(far_.size())) return;
  // The replacement may need to move either direction.
  far_sift_down(pos, moved);
  if ((slot_at(moved.idx).heap_pos & ~far_flag) == pos) far_sift_up(pos, moved);
}

std::uint32_t event_queue::first_bucket() const {
  const std::uint32_t start =
      static_cast<std::uint32_t>(static_cast<std::uint64_t>(now_) >> bucket_shift) &
      (ring_size - 1);
  std::uint32_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::uint32_t scanned = 0;; ++scanned) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    word = (word + 1) & (ring_size / 64 - 1);
    bits = occupied_[word];
    if (scanned > ring_size / 64) {
      throw driver_error("event_queue: corrupt ring occupancy");
    }
  }
}

bool event_queue::append(bucket& bk, std::uint32_t idx, slot& s) {
  s.next = npos;
  if (bk.tail == npos) {
    bk.head = bk.tail = idx;
    return true;
  }
  slot_at(bk.tail).next = idx;
  bk.tail = idx;
  return false;
}

std::uint32_t event_queue::pop_bucket(std::uint32_t b) {
  bucket& bk = ring_[b];
  const std::uint32_t idx = bk.head;
  bk.head = slot_at(idx).next;
  if (bk.head == npos) {
    bk.tail = npos;
    occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  --ring_count_;
  return idx;
}

bool event_queue::unlink(bucket& bk, std::uint32_t idx) {
  std::uint32_t prev = npos;
  std::uint32_t* link = &bk.head;
  while (*link != idx) {
    prev = *link;
    link = &slot_at(prev).next;
  }
  *link = slot_at(idx).next;
  if (bk.tail == idx) bk.tail = prev;
  return bk.head == npos;
}

void event_queue::advance_flush() {
  // Cascade through the bucket containing now() + far_horizon (inclusive):
  // afterwards every unflushed wheel event is strictly beyond the horizon.
  // A flushed event is at most far_horizon + one wheel bucket out, which
  // must stay below the ring span (see the static_assert next to the
  // constants).
  const std::uint64_t target =
      (static_cast<std::uint64_t>(now_ + far_horizon) >> w2_shift) + 1;
  while (w2_flushed_ < target) {
    const std::uint32_t b = static_cast<std::uint32_t>(w2_flushed_ & (w2_size - 1));
    bucket& bk = w2_[b];
    if (bk.head != npos) {
      for (std::uint32_t idx = bk.head; idx != npos;) {
        slot& s = slot_at(idx);
        const std::uint32_t next = s.next;
        ring_insert(idx, s);
        --w2_count_;
        idx = next;
      }
      bk.head = bk.tail = npos;
      w2_occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
    ++w2_flushed_;
  }
  // Overflow events follow the same boundary, not the horizon: the ring now
  // holds cascaded events up to it, so an overflow event before it must be
  // in the ring too, or a later ring event would pop first and carry now()
  // past it. The ring thus always holds a complete prefix of the schedule.
  const time_ns boundary = static_cast<time_ns>(w2_flushed_ << w2_shift);
  while (!far_.empty() && far_[0].at < boundary) {
    const std::uint32_t idx = far_[0].idx;
    far_remove(0);
    ring_insert(idx, slot_at(idx));
  }
  // Next time a cascade can matter: the boundary moves into a new bucket.
  flush_due_ = boundary - far_horizon;
}

time_ns event_queue::next_time() const {
  time_ns t = no_time;
  if (ring_count_ != 0) t = slot_at(ring_[first_bucket()].head).at;
  if (w2_count_ != 0 || !far_.empty()) t = std::min(t, next_band_time());
  return t;
}

time_ns event_queue::next_band_time() const {
  time_ns t = far_.empty() ? no_time : far_[0].at;
  if (w2_count_ != 0) {
    // First occupied wheel bucket at or after the flush boundary.
    const std::uint32_t start = static_cast<std::uint32_t>(w2_flushed_ & (w2_size - 1));
    std::uint32_t word = start >> 6;
    std::uint64_t bits = w2_occupied_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::uint32_t scanned = 0;; ++scanned) {
      if (bits != 0) {
        const std::uint32_t b =
            (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
        const std::uint64_t dist = (b - start) & (w2_size - 1);
        const time_ns bucket_start =
            static_cast<time_ns>((w2_flushed_ + dist) << w2_shift);
        // Bucket start is a lower bound on its earliest entry, which is all
        // the jump needs (the cascade sorts the real times into the ring).
        t = std::min(t, std::max(bucket_start, now_));
        break;
      }
      word = (word + 1) & (w2_size / 64 - 1);
      bits = w2_occupied_[word];
      if (scanned > w2_size / 64) {
        throw driver_error("event_queue: corrupt wheel occupancy");
      }
    }
  }
  return t;
}

time_ns event_queue::jump_to_next_band() {
  const time_ns t = next_band_time();
  // Fast-forward is invisible: no event exists in (now, t), and the next
  // pop sets now() to its own timestamp anyway.
  if (t > now_) now_ = t;
  advance_flush();
  return t;
}

void event_queue::retire(std::uint32_t idx) {
  slot& s = slot_at(idx);
  s.heap_pos = npos;
  if (++s.gen == 0) s.gen = 1;  // keep tokens nonzero on generation wrap
  s.next = free_head_;
  free_head_ = idx;
}

bool event_queue::cancel(token t) {
  const std::uint32_t idx = static_cast<std::uint32_t>(t >> 32);
  const std::uint32_t gen = static_cast<std::uint32_t>(t);
  if (idx >= slot_count_) return false;
  slot& s = slot_at(idx);
  if (s.gen != gen || s.heap_pos == npos) return false;
  if (s.heap_pos & far_flag) {
    far_remove(s.heap_pos & ~far_flag);
  } else if (s.heap_pos & w2_flag) {
    const std::uint32_t b = s.heap_pos & ~w2_flag;
    if (unlink(w2_[b], idx)) w2_occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    --w2_count_;
  } else {
    const std::uint32_t b = s.heap_pos;
    if (unlink(ring_[b], idx)) occupied_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    --ring_count_;
  }
  // Drop the payload (closure, message reference) now.
  if (s.ev.kind == event_kind::thunk) (void)take_thunk(s);
  s.ev.msg.reset();
  retire(idx);
  return true;
}

void event_queue::execute_slot(std::uint32_t idx) {
  // The slot address is stable (chunked arena) and cannot be recycled while
  // executing: it is out of every band but only retired afterwards.
  slot& s = slot_at(idx);
  s.heap_pos = npos;
  ++executed_;
  if (s.ev.kind == event_kind::thunk) {
    // Out of the side table first: the closure may schedule thunks itself.
    take_thunk(s)();
  } else {
    executor_->execute(s.ev);
  }
  s.ev.msg.reset();  // return the payload to its pool promptly
  retire(idx);
}

bool event_queue::step() {
  if (ring_count_ == 0) {
    advance_flush();
    while (ring_count_ == 0) {
      if (w2_count_ == 0 && far_.empty()) return false;
      jump_to_next_band();
    }
  }
  const std::uint32_t b = first_bucket();
  advance_clock(slot_at(ring_[b].head).at);
  const std::uint32_t idx = pop_bucket(b);
  maybe_flush();  // keep the ring complete up to now() + far_horizon
  execute_slot(idx);
  return true;
}

std::uint64_t event_queue::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::uint64_t event_queue::run_until(time_ns deadline) {
  std::uint64_t n = 0;
  for (;;) {
    if (ring_count_ == 0) {
      advance_flush();
      while (ring_count_ == 0) {
        if (w2_count_ == 0 && far_.empty()) goto done;
        // Jump only if the next band's earliest possible event can still
        // beat the deadline; otherwise the run is over (and now() must not
        // overshoot the deadline).
        if (next_band_time() > deadline) goto done;
        jump_to_next_band();
      }
    }
    {
      const std::uint32_t b = first_bucket();
      const time_ns at = slot_at(ring_[b].head).at;
      if (at > deadline) break;
      advance_clock(at);
      const std::uint32_t idx = pop_bucket(b);
      maybe_flush();
      execute_slot(idx);
      ++n;
    }
  }
done:
  if (now_ < deadline) {
    // A clock moved without a pop still keeps the ring complete, or a
    // schedule made next could pass an event still outside the ring.
    now_ = deadline;
    maybe_flush();
  }
  return n;
}

}  // namespace remus::sim
