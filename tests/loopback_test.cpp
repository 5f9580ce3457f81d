// Tests for the TCP loopback transport: real sockets, one listener per
// process, length-prefixed proto frames, datagram drop semantics over the
// stream — and a full 3-replica quorum emulation running over it in-process
// (runtime::node is transport-agnostic; here the kernel carries the wire).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "history/atomicity.h"
#include "history/recorder.h"
#include "proto/policy.h"
#include "runtime/node.h"
#include "runtime/tcp_transport.h"
#include "storage/memory_store.h"
#include "transport_contract.h"

namespace remus::runtime {
namespace {

/// True when ports [base, base + count) are all bindable right now.
bool port_block_free(std::uint16_t base, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(base + i));
    const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    ::close(fd);
    if (!ok) return false;
  }
  return true;
}

/// A free block of `count` consecutive loopback ports (pid-salted start so
/// concurrent test binaries don't race for the same block).
std::uint16_t probe_base_port(std::uint32_t count) {
  std::uint16_t base =
      static_cast<std::uint16_t>(24000 + (static_cast<std::uint32_t>(::getpid()) * 37) % 18000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (port_block_free(base, count)) return base;
    base = static_cast<std::uint16_t>(24000 + (base - 24000 + 131) % 18000);
  }
  ADD_FAILURE() << "no free loopback port block of " << count;
  return 0;
}

tcp_transport_options tcp_opt(std::uint32_t n, std::uint16_t base, std::uint32_t self) {
  tcp_transport_options o;
  o.n = n;
  o.base_port = base;
  o.self = self;
  return o;
}

void wait_for(const std::atomic<int>& counter, int want, int ms = 3000) {
  for (int i = 0; i < ms && counter.load() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A plain blocking socket connected to loopback `port`, standing in for a
/// peer process; -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Appends one frame, [u32 LE length][payload], to a raw stream.
void append_framed(bytes& stream, const bytes& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    stream.push_back(static_cast<std::uint8_t>(len >> shift));
  }
  stream.insert(stream.end(), payload.begin(), payload.end());
}

/// The payload of the next whole frame on a raw socket, or nothing if none
/// arrives within `timeout` or the stream ends first.
std::optional<bytes> read_frame(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  bytes got;
  for (;;) {
    if (got.size() >= 4) {
      const std::size_t len = static_cast<std::size_t>(got[0]) |
                              (static_cast<std::size_t>(got[1]) << 8) |
                              (static_cast<std::size_t>(got[2]) << 16) |
                              (static_cast<std::size_t>(got[3]) << 24);
      if (got.size() >= 4 + len) return bytes(got.begin() + 4, got.begin() + 4 + len);
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return std::nullopt;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return std::nullopt;
    got.insert(got.end(), chunk, chunk + n);
  }
}

// ---------- Transport semantics ----------

TEST(TcpTransport, DeliversAcrossRealSockets) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));

  std::atomic<int> got_b{0};
  proto::message last;
  std::mutex mu;
  b.attach(process_id{1}, [&](const proto::message& m) {
    std::lock_guard<std::mutex> lk(mu);
    last = m;
    got_b += 1;
  });

  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{0};
  m.op_seq = 42;
  m.entries = {{7, tag{}, {}}};
  a.send(process_id{1}, m);
  wait_for(got_b, 1);
  ASSERT_EQ(got_b.load(), 1);
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(last, m);  // the codec round-trips through the kernel intact
  }
  EXPECT_EQ(a.datagrams_sent(), 1u);
}

TEST(TcpTransport, SelfSendIsDeliveredAsynchronously) {
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  proto::message m;
  m.from = process_id{0};
  t.send(process_id{0}, m);
  t.broadcast(1, m);
  wait_for(got, 2);
  EXPECT_EQ(got.load(), 2);
}

TEST(TcpTransport, DetachedProcessLosesTraffic) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got{0};
  b.attach(process_id{1}, [&](const proto::message&) { got += 1; });
  b.detach(process_id{1});  // crashed: socket still listens, frames vanish
  proto::message m;
  m.from = process_id{0};
  a.send(process_id{1}, m);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(got.load(), 0);
}

TEST(TcpTransport, SendToAbsentPeerDropsWithoutBlocking) {
  // Peer 1 never exists: connects fail, frames are counted dropped, and the
  // sender never wedges — the protocol's retransmission owns recovery.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  proto::message m;
  m.from = process_id{0};
  for (int i = 0; i < 5; ++i) a.send(process_id{1}, m);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(a.datagrams_sent(), 5u);
  EXPECT_GT(a.datagrams_dropped(), 0u);
}

TEST(TcpTransport, LargeFramesArriveWholeAndInOrder) {
  // Frames far beyond one read() chunk must reassemble; a stream of mixed
  // sizes on one connection arrives in order and intact.
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> got{0};
  std::vector<std::uint64_t> seqs;
  std::vector<std::size_t> sizes;
  std::mutex mu;
  b.attach(process_id{1}, [&](const proto::message& m) {
    std::lock_guard<std::mutex> lk(mu);
    seqs.push_back(m.op_seq);
    sizes.push_back(m.entries.at(0).val.data.size());
    got += 1;
  });
  for (std::uint64_t i = 0; i < 8; ++i) {
    proto::message m;
    m.kind = proto::msg_kind::write;
    m.from = process_id{0};
    m.op_seq = i;
    m.entries.resize(1);
    m.entries[0].val.data.assign(i % 2 == 0 ? (200u * 1024u) : 3u,
                                 static_cast<std::uint8_t>(i));
    a.send(process_id{1}, m);
  }
  wait_for(got, 8, 10000);
  ASSERT_EQ(got.load(), 8);
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seqs[i], i) << "frame order broke at " << i;
    EXPECT_EQ(sizes[i], i % 2 == 0 ? 200u * 1024u : 3u);
  }
}

TEST(TcpTransport, MalformedFrameIsCountedAsDropped) {
  // A well-framed payload that does not decode is a drop, like any other;
  // the stream survives it, so the valid frame behind it still arrives.
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  const std::uint64_t dropped_before = t.datagrams_dropped();

  proto::message m;
  m.from = process_id{0};
  bytes stream;
  append_framed(stream, {0xee, 0x01, 0x02, 0x03, 0x04});  // kind 0xee: no such kind
  append_framed(stream, proto::encode(m));
  const int fd = connect_raw(base);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  wait_for(got, 1);
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(t.datagrams_dropped(), dropped_before + 1);
  ::close(fd);
}

TEST(TcpTransport, DetachWaitsOutARunningHandler) {
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  expect_detach_waits_out_handler(t, process_id{0});
}

TEST(TcpTransport, HandlerExceptionCountsAsDrop) {
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  expect_handler_exception_counts_as_drop(t, process_id{0});
}

// ---------- One connection per pair, used both ways ----------

/// Makes `t`, process 1 of two, answer every frame with one to process 0
/// that echoes its op_seq.
void reply_to_process_0(tcp_transport& t) {
  t.attach(process_id{1}, [&t](const proto::message& m) {
    proto::message reply;
    reply.kind = proto::msg_kind::sn_ack;
    reply.from = process_id{1};
    reply.op_seq = m.op_seq;
    t.send(process_id{0}, reply);
  });
}

/// Plays process 0 over a raw socket to `t` (process 1 of two; nothing
/// listens on process 0's port): sends one frame and expects the reply back
/// on the same connection within 1 s. Returns the socket.
int expect_reply_on_the_request_connection(tcp_transport& t, std::uint16_t base) {
  const int fd = connect_raw(static_cast<std::uint16_t>(base + 1));
  EXPECT_GE(fd, 0);
  proto::message request;
  request.kind = proto::msg_kind::sn_query;
  request.from = process_id{0};
  request.op_seq = 17;
  bytes stream;
  append_framed(stream, proto::encode(request));
  EXPECT_EQ(::write(fd, stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  const std::optional<bytes> reply = read_frame(fd, std::chrono::seconds(1));
  EXPECT_TRUE(reply.has_value()) << "no reply on the request's connection";
  if (reply) {
    const proto::message m = proto::decode_message(*reply);
    EXPECT_EQ(m.from, process_id{1});
    EXPECT_EQ(m.op_seq, 17u);
  }
  EXPECT_EQ(t.datagrams_dropped(), 0u);
  return fd;
}

TEST(TcpTransport, ReplyRidesTheRequestsConnection) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport b(tcp_opt(2, base, 1));
  reply_to_process_0(b);
  const int fd = expect_reply_on_the_request_connection(b, base);
  b.detach(process_id{1});
  if (fd >= 0) ::close(fd);
}

TEST(TcpTransport, DeadSharedLegIsClosedAndReplaced) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport b(tcp_opt(2, base, 1));
  reply_to_process_0(b);
  const int fd = expect_reply_on_the_request_connection(b, base);
  ASSERT_GE(fd, 0);
  ::close(fd);
  // Let b's epoll thread read the hang-up and close its socket. A new
  // connection, which b then accepts, is likely to reuse that socket's
  // number; it has sent nothing, so it must not carry b's frames.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int idle = connect_raw(static_cast<std::uint16_t>(base + 1));
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // No leg and nothing listening: the next send is refused and dropped, and
  // the sender does not wait for that.
  proto::message m;
  m.from = process_id{1};
  const auto start = std::chrono::steady_clock::now();
  b.send(process_id{0}, m);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(100));
  for (int i = 0; i < 3000 && b.datagrams_dropped() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(b.datagrams_dropped(), 1u);
  EXPECT_FALSE(read_frame(idle, std::chrono::milliseconds(100)).has_value());
  ::close(idle);

  // Process 0 comes up: a later send opens a new leg and arrives.
  tcp_transport a(tcp_opt(2, base, 0));
  std::atomic<int> got{0};
  a.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  b.send(process_id{0}, m);
  wait_for(got, 1);
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(b.datagrams_dropped(), 1u);
  a.detach(process_id{0});
  b.detach(process_id{1});
}

TEST(TcpTransport, PairSendingBothWaysAtOnceLosesNothing) {
  // Both sides send before either has heard from the other, so each may
  // open its own leg or bind the one the other opened; either way every
  // frame arrives, in its sender's order.
  constexpr std::uint64_t kFrames = 200;
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::mutex mu;
  std::vector<std::uint64_t> got[2];  // op_seqs received by process 0, 1
  std::atomic<int> received{0};
  for (std::uint32_t self = 0; self < 2; ++self) {
    tcp_transport& t = self == 0 ? a : b;
    t.attach(process_id{self}, [&, self](const proto::message& m) {
      std::lock_guard<std::mutex> lk(mu);
      got[self].push_back(m.op_seq);
      received += 1;
    });
  }
  std::atomic<bool> go{false};
  const auto sender = [&](tcp_transport& t, std::uint32_t self) {
    while (!go) std::this_thread::yield();
    for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
      proto::message m;
      m.kind = proto::msg_kind::write;
      m.from = process_id{self};
      m.op_seq = seq;
      t.send(process_id{1 - self}, m);
    }
  };
  std::thread sa(sender, std::ref(a), 0u);
  std::thread sb(sender, std::ref(b), 1u);
  go = true;
  sa.join();
  sb.join();
  wait_for(received, 2 * kFrames, 10000);
  a.detach(process_id{0});
  b.detach(process_id{1});
  EXPECT_EQ(a.datagrams_dropped(), 0u);
  EXPECT_EQ(b.datagrams_dropped(), 0u);
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint32_t self = 0; self < 2; ++self) {
    ASSERT_EQ(got[self].size(), kFrames) << "process " << self;
    for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
      EXPECT_EQ(got[self][seq], seq) << "process " << self << " frame " << seq;
    }
  }
}

// A chain of hops, each sent from inside the previous hop's handler. Every
// hop that waited out the epoll timeout (20 ms) would add up to 4 s over
// 200 hops, so a lost wake-up fails the deadline instead of slowing it.
constexpr std::uint64_t kChainHops = 200;
constexpr auto kChainDeadline = std::chrono::seconds(1);

/// Counts a hop and, until the last one, sends the message one hop further
/// through `via` to `next`.
transport::handler chain_hop(tcp_transport& via, process_id next, std::atomic<int>& hops) {
  return [&via, &hops, next](const proto::message& m) {
    hops += 1;
    if (m.op_seq == kChainHops) return;
    proto::message fwd = m;
    fwd.op_seq += 1;
    via.send(next, fwd);
  };
}

TEST(TcpTransport, HandlerChainToSelfNeverWaitsOutTheTimeout) {
  const std::uint16_t base = probe_base_port(1);
  tcp_transport t(tcp_opt(1, base, 0));
  std::atomic<int> hops{0};
  t.attach(process_id{0}, chain_hop(t, process_id{0}, hops));
  proto::message m;
  m.from = process_id{0};
  const auto start = std::chrono::steady_clock::now();
  t.send(process_id{0}, m);
  wait_for(hops, kChainHops + 1, 10000);
  EXPECT_EQ(hops.load(), static_cast<int>(kChainHops + 1));
  EXPECT_LT(std::chrono::steady_clock::now() - start, kChainDeadline);
  t.detach(process_id{0});
}

TEST(TcpTransport, HandlerChainBetweenPeersNeverWaitsOutTheTimeout) {
  const std::uint16_t base = probe_base_port(2);
  tcp_transport a(tcp_opt(2, base, 0));
  tcp_transport b(tcp_opt(2, base, 1));
  std::atomic<int> hops{0};
  a.attach(process_id{0}, chain_hop(a, process_id{1}, hops));
  b.attach(process_id{1}, chain_hop(b, process_id{0}, hops));
  proto::message m;
  m.from = process_id{0};
  const auto start = std::chrono::steady_clock::now();
  a.send(process_id{1}, m);
  wait_for(hops, kChainHops + 1, 10000);
  EXPECT_EQ(hops.load(), static_cast<int>(kChainHops + 1));
  EXPECT_LT(std::chrono::steady_clock::now() - start, kChainDeadline);
  EXPECT_EQ(a.datagrams_dropped() + b.datagrams_dropped(), 0u);
  a.detach(process_id{0});
  b.detach(process_id{1});
}

TEST(TcpTransport, ThreadAndHandlerSendersEachKeepTheirOrder) {
  // The test thread and a handler on a's epoll thread write interleaved
  // numbered frames to one peer; every fifth frame is 200 KB, so writes
  // come up short and the two senders meet in the backlog. Each sender's
  // frames must arrive whole and in its order, with nothing dropped.
  constexpr std::uint32_t kFrames = 50;
  const std::uint16_t base = probe_base_port(2);
  tcp_transport_options ao = tcp_opt(2, base, 0);
  ao.max_pending_bytes = 64u << 20;  // room for every frame: no backpressure
  tcp_transport a(ao);
  tcp_transport b(tcp_opt(2, base, 1));

  const auto frame = [](std::uint32_t sender, std::uint64_t seq) {
    proto::message m;
    m.kind = proto::msg_kind::write;
    m.from = process_id{0};
    m.round = sender;
    m.op_seq = seq;
    m.entries.resize(1);
    m.entries[0].val.data.assign(seq % 5 == 0 ? 200u * 1024u : 16u,
                                 static_cast<std::uint8_t>(seq));
    return m;
  };
  std::mutex mu;
  std::vector<proto::message> got[2];
  std::atomic<int> received{0}, warmed{0};
  b.attach(process_id{1}, [&](const proto::message& m) {
    if (m.kind != proto::msg_kind::write) {
      warmed += 1;
      return;
    }
    std::lock_guard<std::mutex> lk(mu);
    got[m.round].push_back(m);
    received += 1;
  });
  // Each self-frame to a triggers the handler's frame with the same number.
  a.attach(process_id{0}, [&](const proto::message& m) {
    a.send(process_id{1}, frame(1, m.op_seq));
  });
  // Connect first, so the frames below take the write-from-the-sender path
  // instead of piling up behind the connect.
  proto::message warm_up;
  warm_up.from = process_id{0};
  a.send(process_id{1}, warm_up);
  wait_for(warmed, 1);
  ASSERT_EQ(warmed.load(), 1);
  for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
    proto::message trigger;
    trigger.from = process_id{0};
    trigger.op_seq = seq;
    a.send(process_id{0}, trigger);
    a.send(process_id{1}, frame(0, seq));
  }
  wait_for(received, 2 * kFrames, 20000);
  a.detach(process_id{0});
  b.detach(process_id{1});
  EXPECT_EQ(a.datagrams_dropped(), 0u);
  EXPECT_EQ(b.datagrams_dropped(), 0u);
  std::lock_guard<std::mutex> lk(mu);
  for (std::uint32_t sender = 0; sender < 2; ++sender) {
    ASSERT_EQ(got[sender].size(), kFrames) << "sender " << sender;
    for (std::uint64_t seq = 0; seq < kFrames; ++seq) {
      EXPECT_EQ(got[sender][seq], frame(sender, seq))
          << "sender " << sender << " frame " << seq;
    }
  }
}

// ---------- A real quorum over the kernel's wire ----------

TEST(TcpQuorum, WriteReadCrashRecoverStaysAtomic) {
  constexpr std::uint32_t n = 3;
  const std::uint16_t base = probe_base_port(n);

  history::recorder rec;
  std::vector<std::unique_ptr<storage::memory_store>> stores;
  std::vector<std::unique_ptr<tcp_transport>> nets;
  std::vector<std::unique_ptr<node>> nodes;
  node_options nopt;
  nopt.op_timeout = 20ll * 1000 * 1000 * 1000;
  for (std::uint32_t i = 0; i < n; ++i) {
    stores.push_back(std::make_unique<storage::memory_store>());
    nets.push_back(std::make_unique<tcp_transport>(tcp_opt(n, base, i)));
    nodes.push_back(std::make_unique<node>(proto::persistent_policy(), process_id{i},
                                           n, *stores[i], *nets[i], rec, nopt,
                                           0xbeef + i));
  }
  for (auto& nd : nodes) nd->start();

  nodes[0]->write(value_of_u32(5));
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(nodes[i]->read(), value_of_u32(5));
  }

  // Crash a replica (its transport stays bound — the process is "down", the
  // wire keeps eating its frames), write around it, recover, and the
  // recovered replica must serve the new value.
  nodes[2]->crash();
  nodes[0]->write(value_of_u32(9));
  nodes[2]->recover();
  EXPECT_EQ(nodes[2]->read(), value_of_u32(9));

  const auto verdict = history::check_persistent_atomicity(rec.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;

  nodes.clear();  // nodes detach before their transports die
}

}  // namespace
}  // namespace remus::runtime
