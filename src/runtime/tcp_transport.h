// Real-socket transport: the emulation's first steps off the simulator and
// onto an actual network stack.
//
// One tcp_transport instance serves one process of an n-process group.
// Process i listens on 127.0.0.1:(base_port + i). Frames are length-prefixed
// proto::encode images ([u32 LE length][payload]), so the same codec that
// crosses the simulated wire crosses the kernel's.
//
// Connections: each peer has at most one send leg, the connection this
// transport writes that peer's frames to. A send to a peer without one
// opens a non-blocking connection to the peer's port. A connection the
// peer opened becomes the send leg instead when a frame from that peer
// decodes on it while no leg to it exists (no socket, nothing queued):
// the binding happens before that frame's handler runs, so the reply
// rides the connection the request came on and its segment carries the
// request's TCP ACK. A connection is bound at most once. Every socket
// is read, since replies come back on the legs this side opened. Accepted
// sockets get TCP_NODELAY like connected ones, because they may carry
// frames. Two peers that connect to each other at once keep two one-way
// connections: correct, just a pure ACK per frame dearer.
//
// Datagram semantics over a stream: the quorum protocol assumes fair-lossy
// messaging and owns reliability (retransmission, epoch nonces), so this
// transport deliberately keeps UDP-shaped delivery guarantees — a frame
// either arrives whole or not at all, and is dropped without notice when
//   * the peer is not listening yet / anymore (connect fails, connection
//     resets — everything buffered on that connection goes with it),
//   * the peer's outbound buffer is full (bounded per-peer pending bytes),
//   * the receiving process has no handler attached (crashed node),
//   * the frame does not decode, or the handler throws.
// Reconnection is automatic with a short backoff; the protocol's
// retransmission machinery papers over every loss, exactly as it does over
// the simulator's coin-flip drops.
//
// Threading: one epoll thread per transport accepts connections, reads
// every socket, opens and reopens send legs, and runs the handlers (the
// `transport` contract). Sockets are written by whichever thread sends,
// under the transport mutex: send() and broadcast() write a frame straight
// to the peer's leg, non-blocking, when it is connected and nothing is
// queued for that peer. Only a short write, a missing connection or a
// backlog leaves bytes queued, and the epoll thread finishes them on
// EPOLLOUT or once it has connected. Only the epoll thread closes sockets:
// a sender whose write fails shuts the leg down and unbinds it, and the
// epoll thread closes the socket when it reads the hang-up, so a socket's
// number is never reused while that thread may still read it. The epoll
// thread is woken (eventfd) only for work epoll cannot show it: a frame to
// self, or a peer that needs a connect, sent from another thread. It never
// wakes itself: frames its handlers send to self are delivered before it
// blocks again. Self-sends are always queued and delivered asynchronously
// on the epoll thread, so delivery order to the local handler never
// depends on who sent.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/transport.h"

namespace remus::runtime {

struct tcp_transport_options {
  /// Group size: peers are processes 0 .. n-1.
  std::uint32_t n = 3;
  /// Process i listens on base_port + i (loopback only). Must be nonzero.
  std::uint16_t base_port = 0;
  /// Which process this instance is.
  std::uint32_t self = 0;
  /// Per-peer outbound buffer cap; whole frames are dropped beyond it.
  std::size_t max_pending_bytes = 1u << 20;
  /// Frames larger than this on the inbound side indicate a desynced or
  /// hostile stream; the connection is dropped.
  std::uint32_t max_frame_bytes = 1u << 24;
};

class tcp_transport final : public transport {
 public:
  explicit tcp_transport(tcp_transport_options opt);
  ~tcp_transport() override;

  tcp_transport(const tcp_transport&) = delete;
  tcp_transport& operator=(const tcp_transport&) = delete;

  void attach(process_id p, handler h) override;
  void detach(process_id p) override;

  void send(process_id to, const proto::message& m) override;
  void broadcast(std::uint32_t n, const proto::message& m) override;

  [[nodiscard]] std::uint64_t datagrams_sent() const override;
  [[nodiscard]] std::uint64_t datagrams_dropped() const override;

 private:
  /// Send leg to one peer, guarded by mu_. Any sending thread writes to
  /// it; only the epoll thread connects, binds and closes it.
  struct peer_state {
    int fd = -1;
    bool connecting = false;
    bool out_armed = false;  // EPOLLOUT interest registered for fd
    bytes pending;  // queued frames, possibly partially written
    std::uint32_t pending_frames = 0;
    std::chrono::steady_clock::time_point next_attempt{};
  };
  /// One open socket, accepted or connected; reassembles frames split
  /// across reads. Epoll thread only.
  struct conn_state {
    int fd = -1;
    /// The peer whose send leg this socket is or was; none for an accepted
    /// socket that has not been bound.
    process_id peer = no_process;
    bytes buf;
  };

  [[nodiscard]] bool on_loop_thread() const;
  bool post(process_id to, const bytes& wire);
  void wake_loop();
  void loop();
  void ensure_connected(peer_state& ps, std::uint32_t idx);
  void bind_leg(conn_state& c, process_id from);
  void flush_peer(peer_state& ps);
  void hang_up(peer_state& ps);
  void unbind_leg(peer_state& ps);
  void on_writable(int fd);
  bool read_conn(int fd);
  void close_conn(int fd);
  void deliver_frame(std::span<const std::uint8_t> wire, conn_state* via);
  void drain_self_queue();

  tcp_transport_options opt_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // signals the end of a handler call
  std::map<std::uint32_t, handler> handlers_;
  std::vector<peer_state> peers_;      // indexed by process
  std::vector<bytes> self_queue_;      // frames to self, drained by the loop
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  bool delivering_ = false;            // a handler call is running
  bool stop_ = false;
  std::map<int, conn_state> conns_;    // every open socket; epoll thread only
  std::thread loop_thread_;
};

}  // namespace remus::runtime
