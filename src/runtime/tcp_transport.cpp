#include "runtime/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "common/error.h"

namespace remus::runtime {

namespace {

// epoll_event.data.u64 encoding: what kind of fd fired, and which one.
enum class fd_kind : std::uint32_t { listener = 0, wake = 1, socket = 2 };

std::uint64_t tag(fd_kind k, std::uint32_t v) {
  return (static_cast<std::uint64_t>(k) << 32) | v;
}

constexpr auto reconnect_backoff = std::chrono::milliseconds(50);

void append_frame(bytes& out, const bytes& wire) {
  const auto len = static_cast<std::uint32_t>(wire.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xff));
  out.insert(out.end(), wire.begin(), wire.end());
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

tcp_transport::tcp_transport(tcp_transport_options opt) : opt_(opt) {
  if (opt_.n == 0 || opt_.self >= opt_.n) {
    throw driver_error("tcp_transport: self must be < n");
  }
  if (opt_.base_port == 0) {
    throw driver_error("tcp_transport: base_port must be nonzero");
  }
  peers_.resize(opt_.n);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw driver_error("tcp_transport: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(opt_.base_port + opt_.self));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 64) < 0) {
    const int e = errno;
    ::close(listen_fd_);
    throw driver_error(std::string("tcp_transport: bind/listen failed: ") +
                       std::strerror(e));
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw driver_error("tcp_transport: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = tag(fd_kind::listener, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = tag(fd_kind::wake, 0);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  loop_thread_ = std::thread([this] { loop(); });
}

tcp_transport::~tcp_transport() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  wake_loop();
  loop_thread_.join();
  for (auto& [fd, c] : conns_) ::close(fd);  // every send leg among them
  ::close(listen_fd_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void tcp_transport::attach(process_id p, handler h) {
  std::lock_guard lk(mu_);
  handlers_[p.index] = std::move(h);
}

void tcp_transport::detach(process_id p) {
  std::unique_lock lk(mu_);
  handlers_.erase(p.index);
  // Wait out a delivery in progress, unless this thread is running it.
  if (p.index == opt_.self && !on_loop_thread()) {
    idle_cv_.wait(lk, [this] { return !delivering_; });
  }
}

bool tcp_transport::on_loop_thread() const {
  return std::this_thread::get_id() == loop_thread_.get_id();
}

void tcp_transport::send(process_id to, const proto::message& m) {
  const bytes wire = proto::encode(m);
  bool wake = false;
  {
    std::lock_guard lk(mu_);
    wake = post(to, wire);
  }
  if (wake && !on_loop_thread()) wake_loop();
}

void tcp_transport::broadcast(std::uint32_t n, const proto::message& m) {
  const bytes wire = proto::encode(m);
  bool wake = false;
  {
    std::lock_guard lk(mu_);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (post(process_id{i}, wire)) wake = true;
    }
  }
  if (wake && !on_loop_thread()) wake_loop();
}

bool tcp_transport::post(process_id to, const bytes& wire) {
  // Caller holds mu_. Returns whether the frame waits on the epoll thread
  // for work epoll cannot show it: a delivery to self or a connect.
  ++sent_;
  if (!to.valid() || to.index >= opt_.n) {
    ++dropped_;
    return false;
  }
  if (to.index == opt_.self) {
    self_queue_.push_back(wire);
    return true;
  }
  peer_state& ps = peers_[to.index];
  if (ps.pending.size() + wire.size() + 4 > opt_.max_pending_bytes) {
    ++dropped_;  // backpressure: drop the whole frame, never block
    return false;
  }
  const bool queued_ahead = !ps.pending.empty();
  append_frame(ps.pending, wire);
  ps.pending_frames += 1;
  if (ps.fd < 0) return true;  // the epoll thread connects
  // Connected with nothing queued ahead: write it now, from this thread. A
  // connecting or backlogged leg already waits for EPOLLOUT.
  if (!queued_ahead && !ps.connecting) flush_peer(ps);
  return false;
}

void tcp_transport::wake_loop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

std::uint64_t tcp_transport::datagrams_sent() const {
  std::lock_guard lk(mu_);
  return sent_;
}

std::uint64_t tcp_transport::datagrams_dropped() const {
  std::lock_guard lk(mu_);
  return dropped_;
}

void tcp_transport::unbind_leg(peer_state& ps) {
  // Caller holds mu_. Everything buffered rides the dead connection down —
  // the stream's delivery-or-not is all-or-nothing per frame from the
  // protocol's point of view, and retransmission recovers.
  ps.fd = -1;
  ps.connecting = false;
  ps.out_armed = false;
  dropped_ += ps.pending_frames;
  ps.pending.clear();
  ps.pending_frames = 0;
  ps.next_attempt = std::chrono::steady_clock::now() + reconnect_backoff;
}

void tcp_transport::hang_up(peer_state& ps) {
  // Caller holds mu_; any thread. The epoll thread reads this socket, so it
  // closes it once it sees the hang-up.
  ::shutdown(ps.fd, SHUT_RDWR);
  unbind_leg(ps);
}

void tcp_transport::ensure_connected(peer_state& ps, std::uint32_t idx) {
  // Caller holds mu_; only the loop thread calls this.
  if (ps.fd >= 0 || ps.pending.empty()) return;
  if (std::chrono::steady_clock::now() < ps.next_attempt) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    unbind_leg(ps);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(opt_.base_port + idx));
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc == 0 || errno == EINPROGRESS) {
    conns_[fd] = conn_state{fd, process_id{idx}, {}};
    ps.fd = fd;
    ps.connecting = rc != 0;
    ps.out_armed = true;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.u64 = tag(fd_kind::socket, static_cast<std::uint32_t>(fd));
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (!ps.connecting) flush_peer(ps);
  } else {
    ::close(fd);
    unbind_leg(ps);  // refused: peer not up yet; backoff applies
  }
}

void tcp_transport::bind_leg(conn_state& c, process_id from) {
  // Caller holds mu_; epoll thread. `c` is an accepted socket not yet bound,
  // and `from` sent the frame just decoded on it.
  if (!from.valid() || from.index >= opt_.n || from.index == opt_.self) return;
  peer_state& ps = peers_[from.index];
  // A connecting leg has an fd, so this also excludes it.
  if (ps.fd >= 0 || !ps.pending.empty()) return;
  ps.fd = c.fd;
  c.peer = from;
}

void tcp_transport::flush_peer(peer_state& ps) {
  // Caller holds mu_; any thread. Non-blocking: what the socket does not
  // take now waits for EPOLLOUT.
  while (!ps.pending.empty()) {
    const ssize_t n = ::send(ps.fd, ps.pending.data(), ps.pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      ps.pending.erase(ps.pending.begin(), ps.pending.begin() + n);
      if (ps.pending.empty()) ps.pending_frames = 0;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    hang_up(ps);
    return;
  }
  const bool want_out = !ps.pending.empty();
  if (want_out == ps.out_armed) return;
  ps.out_armed = want_out;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = tag(fd_kind::socket, static_cast<std::uint32_t>(ps.fd));
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, ps.fd, &ev);
}

void tcp_transport::on_writable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end() || !it->second.peer.valid()) return;
  std::lock_guard lk(mu_);
  peer_state& ps = peers_[it->second.peer.index];
  if (ps.fd != fd) return;  // unbound since the event was queued
  if (ps.connecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      hang_up(ps);
      return;
    }
    ps.connecting = false;
  }
  flush_peer(ps);
}

void tcp_transport::close_conn(int fd) {
  const auto it = conns_.find(fd);
  {
    // Unbind first: no sender may write to the number once it is closed.
    std::lock_guard lk(mu_);
    const process_id p = it->second.peer;
    if (p.valid() && peers_[p.index].fd == fd) unbind_leg(peers_[p.index]);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

void tcp_transport::deliver_frame(std::span<const std::uint8_t> wire, conn_state* via) {
  std::optional<proto::message> m;
  try {
    m = proto::decode_message(wire);
  } catch (...) {
    // Malformed frame: counted below; the stream stays (framing is intact).
  }
  handler h;
  {
    std::lock_guard lk(mu_);
    // Bound before the handler runs, so its reply rides this connection.
    if (m && via != nullptr && !via->peer.valid()) bind_leg(*via, m->from);
    const auto it = handlers_.find(opt_.self);
    if (!m || it == handlers_.end()) {
      ++dropped_;  // garbled, or a crashed node: dead socket semantics
      return;
    }
    h = it->second;  // copy so the handler can detach safely
    delivering_ = true;
  }
  bool threw = false;
  try {
    h(*m);
  } catch (...) {
    threw = true;  // must not kill the epoll thread; counted as a drop
  }
  std::lock_guard lk(mu_);
  if (threw) ++dropped_;
  delivering_ = false;
  idle_cv_.notify_all();
}

bool tcp_transport::read_conn(int fd) {
  // Returns whether fd is still open.
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  conn_state& c = it->second;
  bytes& buf = c.buf;
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      close_conn(fd);  // EOF or error; any partial frame dies with the stream
      return false;
    }
    // Frames decode in place from `buf`; a frame split across reads keeps
    // its head there until the rest arrives.
    buf.insert(buf.end(), chunk, chunk + n);
    const std::span<const std::uint8_t> in(buf);
    std::size_t off = 0;
    while (in.size() - off >= 4) {
      const std::uint32_t len = static_cast<std::uint32_t>(in[off]) |
                                (static_cast<std::uint32_t>(in[off + 1]) << 8) |
                                (static_cast<std::uint32_t>(in[off + 2]) << 16) |
                                (static_cast<std::uint32_t>(in[off + 3]) << 24);
      if (len > opt_.max_frame_bytes) {
        close_conn(fd);  // desynced or hostile stream
        return false;
      }
      if (in.size() - off - 4 < len) break;
      deliver_frame(in.subspan(off + 4, len), &c);
      off += 4 + len;
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    // A short read drained the socket; level-triggered epoll reports more.
    if (static_cast<std::size_t>(n) < sizeof(chunk)) return true;
  }
}

void tcp_transport::drain_self_queue() {
  std::vector<bytes> frames;
  {
    std::lock_guard lk(mu_);
    frames.swap(self_queue_);
  }
  for (const bytes& wire : frames) deliver_frame(wire, nullptr);
}

void tcp_transport::loop() {
  epoll_event events[64];
  // The timeout drives reconnect backoff expiry; nothing else is timed.
  int timeout_ms = 20;
  for (;;) {
    const int nev = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    {
      std::lock_guard lk(mu_);
      if (stop_) return;
    }
    for (int i = 0; i < nev; ++i) {
      const auto kind = static_cast<fd_kind>(events[i].data.u64 >> 32);
      const auto id = static_cast<std::uint32_t>(events[i].data.u64);
      switch (kind) {
        case fd_kind::listener: {
          for (;;) {
            const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                     SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) break;
            const int one = 1;  // it may become a send leg
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            conns_[fd] = conn_state{fd, no_process, {}};
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u64 = tag(fd_kind::socket, static_cast<std::uint32_t>(fd));
            ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
          }
          break;
        }
        case fd_kind::wake: {
          std::uint64_t val;  // one read resets the eventfd counter
          [[maybe_unused]] ssize_t n = ::read(wake_fd_, &val, sizeof(val));
          break;
        }
        case fd_kind::socket: {
          // Read before acting on a hang-up: frames that arrived before it
          // still count, and the read that finds it closes the socket.
          const int fd = static_cast<int>(id);
          const std::uint32_t ev = events[i].events;
          if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 && !read_conn(fd)) break;
          if ((ev & EPOLLOUT) != 0) on_writable(fd);
          break;
        }
      }
    }
    // Frames to self, from other threads (they woke us) or from the
    // handlers just run, are delivered before this thread blocks again.
    drain_self_queue();
    {
      std::lock_guard lk(mu_);
      // Handlers run by the drain may have queued more: poll, don't block.
      timeout_ms = self_queue_.empty() ? 20 : 0;
      // Connect legs with frames waiting: fresh sends and expired reconnect
      // backoffs alike. Connected legs flush on EPOLLOUT.
      for (std::uint32_t p = 0; p < opt_.n; ++p) {
        if (peers_[p].fd < 0) ensure_connected(peers_[p], p);
      }
    }
  }
}

}  // namespace remus::runtime
