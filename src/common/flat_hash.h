// Open-addressing hash map for the simulator hot path.
//
// std::map / std::unordered_map allocate one node per insertion, which shows
// up as per-operation heap churn in the event loop. This map keeps everything
// in one flat array (linear probing, power-of-two capacity, grow at 7/8
// load), so inserts are allocation-free in steady state. It supports exactly
// what the hot path needs — find-or-insert, lookup, erase (backward-shift,
// so probe chains never accumulate tombstones), clear. Erasing completed
// entries keeps the live table a few cache lines wide no matter how long
// the run is.
//
// Requirements: Key is trivially copyable and equality-comparable; Value is
// default-constructible. Iteration order is unspecified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace remus {

template <class Key, class Value, class Hash = std::hash<Key>>
class flat_hash_map {
 public:
  flat_hash_map() = default;

  /// Find the value for `k`, inserting a default-constructed one if absent.
  Value& operator[](const Key& k) { return find_or_insert(k, /*reset=*/true); }

  /// operator[] for a caller that assigns the whole value: an inserted entry
  /// is not reset, so it keeps the buffers of whatever value clear() left
  /// at its table position (their contents are stale until assigned).
  Value& slot_for_overwrite(const Key& k) { return find_or_insert(k, /*reset=*/false); }

  [[nodiscard]] Value* find(const Key& k) {
    if (table_.empty()) return nullptr;
    std::size_t i = probe_start(k);
    while (table_[i].used) {
      if (table_[i].key == k) return &table_[i].val;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  [[nodiscard]] const Value* find(const Key& k) const {
    return const_cast<flat_hash_map*>(this)->find(k);
  }

  /// Remove `k` if present (backward-shift deletion: later entries of the
  /// probe chain move up, so lookups never walk dead slots).
  bool erase(const Key& k) {
    if (table_.empty()) return false;
    std::size_t i = probe_start(k);
    while (table_[i].used) {
      if (table_[i].key == k) {
        std::size_t hole = i;
        std::size_t j = (i + 1) & mask_;
        while (table_[j].used) {
          const std::size_t home = probe_start(table_[j].key);
          // j may fill the hole only if its home position precedes the hole
          // (cyclically); otherwise it would become unreachable.
          if (((j - home) & mask_) >= ((j - hole) & mask_)) {
            table_[hole].key = table_[j].key;
            table_[hole].val = std::move(table_[j].val);
            hole = j;
          }
          j = (j + 1) & mask_;
        }
        table_[hole].used = false;
        table_[hole].val = Value{};
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Visit every live (key, value) pair. Iteration order is unspecified
  /// (table order); callers needing determinism must sort what they collect.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const entry& e : table_) {
      if (e.used) fn(e.key, e.val);
    }
  }

  void clear() {
    for (auto& e : table_) e.used = false;
    size_ = 0;
  }

 private:
  struct entry {
    Key key{};
    Value val{};
    bool used = false;
  };

  Value& find_or_insert(const Key& k, bool reset) {
    if (table_.empty() || size_ * 8 >= table_.size() * 7) grow();
    std::size_t i = probe_start(k);
    while (table_[i].used) {
      if (table_[i].key == k) return table_[i].val;
      i = (i + 1) & mask_;
    }
    table_[i].used = true;
    table_[i].key = k;
    if (reset) table_[i].val = Value{};
    ++size_;
    return table_[i].val;
  }

  [[nodiscard]] std::size_t probe_start(const Key& k) const {
    return Hash{}(k)&mask_;
  }

  void grow() {
    std::vector<entry> old = std::move(table_);
    const std::size_t cap = old.empty() ? 16 : old.size() * 2;
    table_.assign(cap, entry{});
    mask_ = cap - 1;
    size_ = 0;
    for (entry& e : old) {
      if (!e.used) continue;
      std::size_t i = probe_start(e.key);
      while (table_[i].used) i = (i + 1) & mask_;
      table_[i].used = true;
      table_[i].key = e.key;
      table_[i].val = std::move(e.val);
      ++size_;
    }
  }

  std::vector<entry> table_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// splitmix64 finalizer: a cheap, well-mixed hash for packed integer keys.
[[nodiscard]] constexpr std::uint64_t mix_u64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace remus
