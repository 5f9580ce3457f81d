#include "runtime/transport.h"

namespace remus::runtime {

datagram_transport::datagram_transport(transport_options opt, std::uint64_t seed)
    : opt_(opt), rng_(seed ^ 0x7472616e73ULL) {
  pump_thread_ = std::thread([this] { pump(); });
}

datagram_transport::~datagram_transport() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  pump_thread_.join();
}

void datagram_transport::attach(process_id p, handler h) {
  std::lock_guard lk(mu_);
  handlers_[p.index] = std::move(h);
}

void datagram_transport::detach(process_id p) {
  std::unique_lock lk(mu_);
  handlers_.erase(p.index);
  // Wait out a delivery in progress, unless this thread is running it.
  if (std::this_thread::get_id() != pump_thread_.get_id()) {
    idle_cv_.wait(lk, [&] { return delivering_ != p; });
  }
}

void datagram_transport::enqueue_copy(process_id to, const bytes& wire) {
  // Caller holds mu_.
  ++sent_;
  if (opt_.drop_probability > 0 && rng_.chance(opt_.drop_probability)) {
    ++dropped_;
    return;
  }
  auto due = std::chrono::steady_clock::now();
  time_ns extra = opt_.base_delay;
  if (opt_.jitter > 0) {
    extra += static_cast<time_ns>(rng_.next_below(static_cast<std::uint64_t>(opt_.jitter)));
  }
  due += std::chrono::nanoseconds(extra);
  queue_.push(packet{due, seq_++, to, wire});
}

void datagram_transport::send(process_id to, const proto::message& m) {
  const bytes wire = proto::encode(m);
  {
    std::lock_guard lk(mu_);
    enqueue_copy(to, wire);
    if (opt_.duplicate_probability > 0 && rng_.chance(opt_.duplicate_probability)) {
      enqueue_copy(to, wire);
    }
  }
  cv_.notify_all();
}

void datagram_transport::broadcast(std::uint32_t n, const proto::message& m) {
  const bytes wire = proto::encode(m);
  {
    std::lock_guard lk(mu_);
    for (std::uint32_t i = 0; i < n; ++i) {
      enqueue_copy(process_id{i}, wire);
      if (opt_.duplicate_probability > 0 && rng_.chance(opt_.duplicate_probability)) {
        enqueue_copy(process_id{i}, wire);
      }
    }
  }
  cv_.notify_all();
}

std::uint64_t datagram_transport::datagrams_sent() const {
  std::lock_guard lk(mu_);
  return sent_;
}

std::uint64_t datagram_transport::datagrams_dropped() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

void datagram_transport::pump() {
  std::unique_lock lk(mu_);
  while (true) {
    if (stop_) return;
    if (queue_.empty()) {
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      continue;
    }
    const auto due = queue_.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (due > now) {
      cv_.wait_until(lk, due);
      continue;
    }
    packet pkt = queue_.top();
    queue_.pop();
    const auto it = handlers_.find(pkt.to.index);
    if (it == handlers_.end()) {
      ++dropped_;  // dead socket
      continue;
    }
    handler h = it->second;  // copy so the handler can detach safely
    delivering_ = pkt.to;
    lk.unlock();
    bool threw = false;
    try {
      h(proto::decode_message(pkt.wire));
    } catch (...) {
      // A malformed datagram or a throwing handler must not kill the pump
      // (UDP spirit); it counts as a drop.
      threw = true;
    }
    lk.lock();
    if (threw) ++dropped_;
    delivering_ = no_process;
    idle_cv_.notify_all();
  }
}

}  // namespace remus::runtime
