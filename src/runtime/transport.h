// Transport interface for the threaded runtime, plus the in-process datagram
// implementation.
//
// `transport` is the runtime half of the protocol/execution split (see
// sim/driver.h for the simulator half): runtime::node drives a quorum_core
// purely off delivered inputs, and everything wire-shaped hides behind this
// interface. Two implementations exist — `datagram_transport` below (an
// in-process model of the paper's UDP + IP-multicast setup, with a scheduler
// thread applying delay/jitter/drop/duplication) and `tcp_transport`
// (tcp_transport.h: real sockets over loopback, one process per replica).
// Both cross proto::encode/decode so the codec is exercised either way.
//
// Delivery contract shared by every implementation:
//   * messages may be dropped, duplicated, or reordered (UDP spirit — the
//     protocol's retransmission machinery owns reliability);
//   * handlers run on a transport-owned thread, never on the sender's;
//   * a process that is not attached (crashed) silently loses its traffic,
//     like a dead socket;
//   * a message that does not decode, or whose handler throws, is lost the
//     same way and counted in datagrams_dropped(); delivery goes on;
//   * detach(p) returns only once no handler call for p is running, unless
//     it is called on the transport's own thread (from a handler). The
//     caller must therefore not hold anything p's handler may wait for;
//     after detach returns, whatever the handler uses may be destroyed;
//   * send/broadcast never block on delivery and are safe from any thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "proto/message.h"

namespace remus::runtime {

class transport {
 public:
  using handler = std::function<void(const proto::message&)>;

  virtual ~transport() = default;

  /// Attach a receiver; messages are dispatched on a transport-owned thread.
  virtual void attach(process_id p, handler h) = 0;
  /// Detach (crash): subsequent traffic to p is dropped. Waits out a
  /// handler call for p in progress on another thread (see the contract).
  virtual void detach(process_id p) = 0;

  virtual void send(process_id to, const proto::message& m) = 0;
  virtual void broadcast(std::uint32_t n, const proto::message& m) = 0;

  [[nodiscard]] virtual std::uint64_t datagrams_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t datagrams_dropped() const = 0;
};

struct transport_options {
  /// Fixed one-way delay plus uniform jitter, in nanoseconds of wall time.
  time_ns base_delay = 0;
  time_ns jitter = 0;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

/// In-process datagram transport: unreliable, unordered, connectionless.
/// A scheduler thread applies configurable delay and jitter; drops and
/// duplicates are coin flips on a seeded rng.
class datagram_transport final : public transport {
 public:
  explicit datagram_transport(transport_options opt = {}, std::uint64_t seed = 1);
  ~datagram_transport() override;

  datagram_transport(const datagram_transport&) = delete;
  datagram_transport& operator=(const datagram_transport&) = delete;

  void attach(process_id p, handler h) override;
  void detach(process_id p) override;

  void send(process_id to, const proto::message& m) override;
  void broadcast(std::uint32_t n, const proto::message& m) override;

  [[nodiscard]] std::uint64_t datagrams_sent() const override;
  [[nodiscard]] std::uint64_t datagrams_dropped() const override;

 private:
  struct packet {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;
    process_id to;
    bytes wire;

    friend bool operator>(const packet& a, const packet& b) {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void enqueue_copy(process_id to, const bytes& wire);
  void pump();

  transport_options opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;  // signals the end of a handler call
  std::map<std::uint32_t, handler> handlers_;
  process_id delivering_ = no_process;  // whose handler is running
  std::priority_queue<packet, std::vector<packet>, std::greater<>> queue_;
  rng rng_;
  std::uint64_t seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  bool stop_ = false;
  std::thread pump_thread_;
};

}  // namespace remus::runtime
