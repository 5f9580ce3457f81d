// Pass-through decorators on the library's public seams. Each forwards every
// call unchanged and records spans and counts around it; with tracing off a
// span costs one relaxed load.
//
//   store_probe      storage::stable_store  "storage.store" spans; also
//                    counts calls in progress, which the runtime workload
//                    waits on before it reopens a crashed replica's WAL
//   media_probe      storage::wal_media     "storage.append" / "storage.snapshot"
//                    spans and appended bytes
//   transport_probe  runtime::transport     "runtime.send" spans around
//                    send/broadcast, frame and wire-byte counts, and
//                    "runtime.handler" spans around every delivered message
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "proto/message.h"
#include "runtime/transport.h"
#include "storage/wal_store.h"
#include "trace.h"

namespace perfbench {

class store_probe final : public remus::storage::stable_store {
 public:
  explicit store_probe(remus::storage::stable_store& inner) : inner_(inner) {}

  void store(remus::storage::record_key key, const remus::bytes& record) override {
    const in_flight_scope g(*this);
    trace::span_scope sp("storage.store");
    inner_.store(key, record);
  }
  void store_and_obsolete(remus::storage::record_key key, const remus::bytes& record,
                          std::span<const remus::storage::record_key> obsolete) override {
    const in_flight_scope g(*this);
    trace::span_scope sp("storage.store");
    inner_.store_and_obsolete(key, record, obsolete);
  }
  [[nodiscard]] std::optional<remus::bytes> retrieve(
      remus::storage::record_key key) const override {
    return inner_.retrieve(key);
  }
  void for_each(remus::storage::record_area area,
                const std::function<void(remus::register_id, const remus::bytes&)>& fn)
      const override {
    inner_.for_each(area, fn);
  }
  void erase(remus::storage::record_key key) override {
    const in_flight_scope g(*this);
    inner_.erase(key);
  }
  void wipe() override { inner_.wipe(); }
  [[nodiscard]] std::uint64_t store_count() const override {
    return calls_.load(std::memory_order_relaxed);
  }

  /// store()/store_and_obsolete()/erase() calls currently executing.
  [[nodiscard]] int in_flight() const { return in_flight_.load(std::memory_order_acquire); }

 private:
  struct in_flight_scope {
    explicit in_flight_scope(store_probe& s) : p(s) {
      p.in_flight_.fetch_add(1, std::memory_order_acq_rel);
      p.calls_.fetch_add(1, std::memory_order_relaxed);
    }
    ~in_flight_scope() { p.in_flight_.fetch_sub(1, std::memory_order_acq_rel); }
    in_flight_scope(const in_flight_scope&) = delete;
    in_flight_scope& operator=(const in_flight_scope&) = delete;
    store_probe& p;
  };

  remus::storage::stable_store& inner_;
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> calls_{0};
};

class media_probe final : public remus::storage::wal_media {
 public:
  explicit media_probe(std::unique_ptr<remus::storage::wal_media> inner)
      : inner_(std::move(inner)) {}

  void append_log(std::span<const std::uint8_t> data) override {
    trace::span_scope sp("storage.append");
    const timed t(appends_);
    appended_.fetch_add(data.size(), std::memory_order_relaxed);
    inner_->append_log(data);
  }
  void install_snapshot(const remus::bytes& snapshot) override {
    trace::span_scope sp("storage.snapshot");
    const timed t(snapshots_);
    inner_->install_snapshot(snapshot);
  }
  void truncate_log(std::size_t size) override { inner_->truncate_log(size); }
  void load(remus::bytes& snapshot, remus::bytes& log) const override {
    inner_->load(snapshot, log);
  }
  void wipe() override { inner_->wipe(); }

  /// Calls and their total wall time; counted whether or not spans are on
  /// (compactions are rare enough to miss every span window).
  struct tally {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  [[nodiscard]] const tally& appends() const { return appends_; }
  [[nodiscard]] const tally& snapshots() const { return snapshots_; }
  [[nodiscard]] std::uint64_t appended_bytes() const {
    return appended_.load(std::memory_order_relaxed);
  }

 private:
  struct timed {
    explicit timed(tally& t) : t_(t), start_(std::chrono::steady_clock::now()) {}
    ~timed() {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      t_.calls.fetch_add(1, std::memory_order_relaxed);
      t_.ns.fetch_add(static_cast<std::uint64_t>(ns), std::memory_order_relaxed);
    }
    timed(const timed&) = delete;
    timed& operator=(const timed&) = delete;
    tally& t_;
    std::chrono::steady_clock::time_point start_;
  };

  std::unique_ptr<remus::storage::wal_media> inner_;
  tally appends_, snapshots_;
  std::atomic<std::uint64_t> appended_{0};
};

class transport_probe final : public remus::runtime::transport {
 public:
  explicit transport_probe(remus::runtime::transport& inner) : inner_(inner) {}

  void attach(remus::process_id p, handler h) override {
    inner_.attach(p, [h = std::move(h)](const remus::proto::message& m) {
      trace::span_scope sp("runtime.handler", trace::request_id(m.op_seq, m.epoch));
      h(m);
    });
  }
  void detach(remus::process_id p) override { inner_.detach(p); }

  void send(remus::process_id to, const remus::proto::message& m) override {
    count(m, 1);
    trace::span_scope sp("runtime.send", trace::request_id(m.op_seq, m.epoch));
    inner_.send(to, m);
  }
  void broadcast(std::uint32_t n, const remus::proto::message& m) override {
    count(m, n);
    trace::span_scope sp("runtime.send", trace::request_id(m.op_seq, m.epoch));
    inner_.broadcast(n, m);
  }

  [[nodiscard]] std::uint64_t datagrams_sent() const override {
    return inner_.datagrams_sent();
  }
  [[nodiscard]] std::uint64_t datagrams_dropped() const override {
    return inner_.datagrams_dropped();
  }

  [[nodiscard]] std::uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void count(const remus::proto::message& m, std::uint32_t copies) {
    // A client span learns its request id from its first message.
    trace::adopt_request(trace::request_id(m.op_seq, m.epoch));
    frames_.fetch_add(copies, std::memory_order_relaxed);
    wire_bytes_.fetch_add(copies * remus::proto::wire_size(m), std::memory_order_relaxed);
  }

  remus::runtime::transport& inner_;
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> wire_bytes_{0};
};

}  // namespace perfbench
