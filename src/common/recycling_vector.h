// A vector whose clear() retires elements without destroying them.
//
// Effect batches (proto::outputs) are filled and drained thousands of times
// per simulated second; with std::vector, clear() destroys each element —
// freeing every message payload and record buffer — only for the next batch
// to reallocate them. A recycling_vector keeps retired elements alive past
// clear(): emplace_slot() hands back a retired element whose heap capacity
// (value bytes, record buffers) the caller reuses via copy-assignment.
//
// The price is a sharp contract: a slot from emplace_slot() holds an
// arbitrary retired element's state, so the caller must assign every field a
// reader may look at. push_back() (plain assignment) is always safe.
// recycling_fifo is the same idea for a queue (the simulator's in-flight
// stores).
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace remus {

template <class T>
class recycling_vector {
 public:
  recycling_vector() = default;
  recycling_vector(recycling_vector&& o) noexcept
      : items_(std::move(o.items_)), live_(o.live_) {
    o.live_ = 0;
  }
  recycling_vector& operator=(recycling_vector&& o) noexcept {
    items_ = std::move(o.items_);
    live_ = o.live_;
    o.live_ = 0;
    return *this;
  }

  /// Append and return a slot that may carry a retired element's old state;
  /// assign every field before anyone reads the batch.
  T& emplace_slot() {
    if (live_ == items_.size()) items_.emplace_back();
    return items_[live_++];
  }

  void push_back(T v) { emplace_slot() = std::move(v); }

  /// Retire all elements, keeping them (and their buffers) for reuse.
  void clear() noexcept { live_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) { return items_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return items_[i]; }

  [[nodiscard]] T* begin() noexcept { return items_.data(); }
  [[nodiscard]] T* end() noexcept { return items_.data() + live_; }
  [[nodiscard]] const T* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const T* end() const noexcept { return items_.data() + live_; }

 private:
  std::vector<T> items_;  // [0, live_) live, [live_, size) retired
  std::size_t live_ = 0;
};

/// A FIFO under the same contract: pop_front() retires the oldest element
/// without destroying it, and push_slot() hands back a retired element
/// whose every field the caller must assign.
template <class T>
class recycling_fifo {
 public:
  /// Append and return a slot that may carry a retired element's old state.
  T& push_slot() {
    if (size_ == items_.size()) {
      // Full: rotate the oldest to the front, then grow at the end.
      std::rotate(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_),
                  items_.end());
      head_ = 0;
      items_.emplace_back();
    }
    return items_[wrap(head_ + size_++)];
  }

  void pop_front() noexcept {
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Retire all elements, keeping them (and their buffers) for reuse.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& front() { return items_[head_]; }
  [[nodiscard]] T& back() { return items_[wrap(head_ + size_ - 1)]; }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t i) const noexcept {
    return i >= items_.size() ? i - items_.size() : i;
  }

  std::vector<T> items_;  // a ring: size_ live elements from head_
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace remus
