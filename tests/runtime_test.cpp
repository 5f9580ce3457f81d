// Tests for the threaded real-time runtime: the same protocol cores driven
// by actual threads, an in-process datagram transport, and (optionally)
// fsync'd file stores — the shape of the paper's C/UDP implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "history/atomicity.h"
#include "history/wellformed.h"
#include "runtime/service.h"
#include "storage/memory_store.h"
#include "storage/wal_store.h"
#include "transport_contract.h"

namespace remus::runtime {
namespace {

service_options fast_options(proto::protocol_policy pol, std::uint32_t n = 3) {
  service_options opt;
  opt.n = n;
  opt.policy = std::move(pol);
  opt.node.op_timeout = 20ll * 1000 * 1000 * 1000;  // generous CI margin
  return opt;
}

TEST(Transport, DeliversToAttachedHandlers) {
  datagram_transport t;
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{1};
  t.send(process_id{0}, m);
  t.broadcast(2, m);  // one copy to p0, one dropped at unattached p1
  for (int i = 0; i < 200 && got < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got.load(), 2);
  EXPECT_EQ(t.datagrams_sent(), 3u);
  EXPECT_EQ(t.datagrams_dropped(), 1u);
}

TEST(Transport, DetachedNodeLosesTraffic) {
  datagram_transport t;
  std::atomic<int> got{0};
  t.attach(process_id{0}, [&](const proto::message&) { got += 1; });
  t.detach(process_id{0});
  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{1};
  t.send(process_id{0}, m);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), 0);
}

TEST(Transport, DetachWaitsOutARunningHandler) {
  datagram_transport t;
  expect_detach_waits_out_handler(t, process_id{0});
}

TEST(Transport, HandlerExceptionCountsAsDrop) {
  datagram_transport t;
  expect_handler_exception_counts_as_drop(t, process_id{0});
}

class RuntimePolicies : public ::testing::TestWithParam<const char*> {
 protected:
  static proto::protocol_policy policy() {
    const std::string name = GetParam();
    if (name == "crash_stop") return proto::crash_stop_policy();
    if (name == "persistent") return proto::persistent_policy();
    return proto::transient_policy();
  }
};

INSTANTIATE_TEST_SUITE_P(Algorithms, RuntimePolicies,
                         ::testing::Values("crash_stop", "persistent", "transient"));

TEST_P(RuntimePolicies, WriteThenReadEverywhere) {
  service s(fast_options(policy()));
  s.write(process_id{0}, value_of_u32(7));
  for (std::uint32_t p = 0; p < s.size(); ++p) {
    EXPECT_EQ(s.read(process_id{p}), value_of_u32(7));
  }
  const auto verdict = history::check_persistent_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST_P(RuntimePolicies, ConcurrentClientsStayAtomic) {
  service s(fast_options(policy(), 5));
  std::vector<std::thread> clients;
  std::atomic<std::uint32_t> next{1};
  for (std::uint32_t p = 0; p < 5; ++p) {
    clients.emplace_back([&, p] {
      for (int i = 0; i < 10; ++i) {
        if ((i + p) % 2 == 0) {
          s.write(process_id{p}, value_of_u32(next.fetch_add(1)));
        } else {
          (void)s.read(process_id{p});
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  const auto verdict = history::check_persistent_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeCrashRecovery, ValueSurvivesCrashOfAdopters) {
  service s(fast_options(proto::persistent_policy()));
  s.write(process_id{0}, value_of_u32(5));
  s.crash(process_id{2});
  s.recover(process_id{2});
  EXPECT_EQ(s.read(process_id{2}), value_of_u32(5));
  const auto verdict = history::check_persistent_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeCrashRecovery, TransientCounterAdvances) {
  service s(fast_options(proto::transient_policy()));
  s.write(process_id{0}, value_of_u32(1));
  s.crash(process_id{0});
  s.recover(process_id{0});
  s.crash(process_id{0});
  s.recover(process_id{0});
  s.write(process_id{0}, value_of_u32(2));
  EXPECT_EQ(s.read(process_id{1}), value_of_u32(2));
  const auto verdict = history::check_transient_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeCrashRecovery, CrashedNodeRejectsOps) {
  service s(fast_options(proto::persistent_policy()));
  s.crash(process_id{1});
  EXPECT_THROW(s.read(process_id{1}), precondition_error);
  EXPECT_THROW(s.write(process_id{1}, value_of_u32(1)), precondition_error);
  s.recover(process_id{1});
  EXPECT_NO_THROW((void)s.read(process_id{1}));
}

// Holds each detach() caller until a second one arrives (or a deadline
// passes), so two crash() calls are both past their first is_up() check.
class paired_detach_transport final : public transport {
 public:
  void attach(process_id p, handler h) override { inner_.attach(p, std::move(h)); }
  void detach(process_id p) override {
    {
      std::unique_lock lk(mu_);
      ++detaching_;
      cv_.notify_all();
      cv_.wait_for(lk, std::chrono::seconds(2), [this] { return detaching_ >= 2; });
    }
    inner_.detach(p);
  }
  void send(process_id to, const proto::message& m) override { inner_.send(to, m); }
  void broadcast(std::uint32_t n, const proto::message& m) override {
    inner_.broadcast(n, m);
  }
  [[nodiscard]] std::uint64_t datagrams_sent() const override {
    return inner_.datagrams_sent();
  }
  [[nodiscard]] std::uint64_t datagrams_dropped() const override {
    return inner_.datagrams_dropped();
  }

 private:
  datagram_transport inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  int detaching_ = 0;
};

TEST(RuntimeCrashRecovery, OverlappingCrashesCrashOnce) {
  paired_detach_transport net;
  storage::memory_store store;
  history::recorder rec;
  node nd(proto::persistent_policy(), process_id{0}, 1, store, net, rec);
  nd.start();
  std::thread other([&] { nd.crash(); });
  nd.crash();
  other.join();
  EXPECT_FALSE(nd.is_up());
  const history::history_log h = rec.events();
  EXPECT_EQ(std::count_if(h.begin(), h.end(),
                          [](const history::event& e) {
                            return e.kind == history::event_kind::crash;
                          }),
            1);
  nd.recover();
  EXPECT_TRUE(nd.is_up());
}

TEST(RuntimeCrashRecovery, MinorityCrashDoesNotBlockOthers) {
  service s(fast_options(proto::persistent_policy()));
  s.crash(process_id{2});
  s.write(process_id{0}, value_of_u32(3));
  EXPECT_EQ(s.read(process_id{1}), value_of_u32(3));
}

TEST(RuntimeLossyTransport, RetransmissionMakesProgress) {
  service_options opt = fast_options(proto::persistent_policy());
  opt.net.drop_probability = 0.3;
  service s(std::move(opt));
  s.write(process_id{0}, value_of_u32(9));
  EXPECT_EQ(s.read(process_id{1}), value_of_u32(9));
}

// ---------- What the runtime runs because the simulator does ----------

constexpr time_ns kMs = 1000 * 1000;

/// Persistent policy with read leases granted on a process's third quorum
/// read of a register.
service_options leased_options(time_ns lease_duration, time_ns op_timeout) {
  service_options opt = fast_options(proto::persistent_policy());
  opt.policy.read_leases = true;
  opt.policy.lease_duration = lease_duration;
  opt.node.op_timeout = op_timeout;
  return opt;
}

/// Waits until the transport has sent nothing for 30 ms.
void wait_quiet(const transport& net) {
  std::uint64_t sent = net.datagrams_sent();
  for (int quiet = 0; quiet < 30;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t now = net.datagrams_sent();
    quiet = now == sent ? quiet + 1 : 0;
    sent = now;
  }
}

TEST(RuntimeLeases, HolderReadsLocallyWithNoFrames) {
  service s(leased_options(/*lease_duration=*/10'000 * kMs, /*op_timeout=*/2'000 * kMs));
  s.write(process_id{1}, value_of_u32(4));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.read(process_id{1}), value_of_u32(4));  // grants
  wait_quiet(s.net());
  const std::uint64_t frames = s.net().datagrams_sent();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(s.read(process_id{1}), value_of_u32(4));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(500));
  EXPECT_EQ(s.net().datagrams_sent(), frames);
  const auto verdict = history::check_persistent_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeLeases, CrashedHoldersLeaseExpiresForWriters) {
  // p1 holds a lease on the register; each grantor's record names it. Once
  // p1 crashes, a write can settle without p1's ack only after those
  // records expire.
  constexpr time_ns lease = 50 * kMs;
  service s(leased_options(lease, /*op_timeout=*/2'000 * kMs));
  s.write(process_id{0}, value_of_u32(1));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s.read(process_id{1}), value_of_u32(1));
  s.crash(process_id{1});
  std::this_thread::sleep_for(std::chrono::nanoseconds(4 * lease));
  s.write(process_id{0}, value_of_u32(2));
  EXPECT_EQ(s.read(process_id{2}), value_of_u32(2));
  const auto verdict = history::check_persistent_atomicity(s.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeTimeouts, TimedOutOperationFinishesBeforeTheNextOne) {
  // A write that times out without a majority keeps running; once the
  // majority is back, the next call at that node waits for it and runs.
  service_options opt = fast_options(proto::persistent_policy());
  opt.node.op_timeout = 300 * kMs;
  service s(std::move(opt));
  s.crash(process_id{1});
  s.crash(process_id{2});
  EXPECT_THROW(s.write(process_id{0}, value_of_u32(1)), driver_error);
  s.recover(process_id{1});
  s.recover(process_id{2});
  s.write(process_id{0}, value_of_u32(2));
  EXPECT_EQ(s.read(process_id{0}), value_of_u32(2));
  const history::history_log h = s.events();
  const auto wf = history::check_well_formed(h);
  EXPECT_TRUE(wf.ok) << wf.explanation;
  // Both writes completed: the timed-out one's reply is in the history too.
  EXPECT_EQ(std::count_if(h.begin(), h.end(),
                          [](const history::event& e) {
                            return e.kind == history::event_kind::reply_write;
                          }),
            2);
  const auto verdict = history::check_persistent_atomicity(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(RuntimeDurableFiles, StateSurvivesOnDisk) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("remus_rt_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    service_options opt = fast_options(proto::persistent_policy());
    opt.durable_dir = dir;
    service s(std::move(opt));
    s.write(process_id{0}, value_of_u32(77));
    s.crash(process_id{1});
    s.recover(process_id{1});
    EXPECT_EQ(s.read(process_id{1}), value_of_u32(77));
  }
  // The records really are on disk: each process owns a WAL directory, and
  // the storage engine alone (no protocol, no fresh install overwriting the
  // records) recovers the written register's record from it.
  EXPECT_TRUE(std::filesystem::exists(dir / "0" / "wal.log"));
  {
    storage::wal_store st(std::make_unique<storage::file_media>(dir / "0", false));
    const auto rec = st.retrieve(
        {storage::record_area::written, default_register});
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->empty());
    EXPECT_EQ(st.last_recovery().log_stop, storage::wal_scan_stop::clean_end);
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(RuntimeDurableFiles, SettledWritesRetireTheirWritingRecords) {
  // Each write pre-logs a (writing) record and piggybacks the tombstones of
  // its settled predecessors on that store. A node that kept them all would
  // re-finish every register it ever wrote at each recovery. Register 0
  // comes first, so the installation's (writing) record is retired too.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("remus_rt_obsolete_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  constexpr register_id registers = 64;
  {
    service_options opt = fast_options(proto::persistent_policy());
    opt.durable_dir = dir;
    service s(std::move(opt));
    for (register_id reg = 0; reg < registers; ++reg) {
      s.write(process_id{0}, reg, value_of_u32(reg + 1));
    }
    s.crash(process_id{0});
    s.recover(process_id{0});
    for (register_id reg = 0; reg < registers; reg += 7) {
      EXPECT_EQ(s.read(process_id{0}, reg), value_of_u32(reg + 1));
    }
  }
  storage::wal_store st(std::make_unique<storage::file_media>(dir / "0", false));
  std::size_t writing = 0;
  st.for_each(storage::record_area::writing,
              [&](register_id, const bytes&) { ++writing; });
  EXPECT_LE(writing, 1u);
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace remus::runtime
