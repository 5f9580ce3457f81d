// Integration tests: full emulations over the simulated world — reads and
// writes across the three algorithms, crash/recovery scenarios, log and
// message accounting, and atomicity verdicts on the recorded histories.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "history/atomicity.h"
#include "proto/policy.h"

namespace remus::core {
namespace {

using proto::protocol_policy;

cluster_config make_config(protocol_policy pol, std::uint32_t n = 5,
                           std::uint64_t seed = 1) {
  cluster_config cfg;
  cfg.n = n;
  cfg.policy = std::move(pol);
  cfg.seed = seed;
  return cfg;
}

// ---------- Basic read/write across algorithms ----------

class AllPolicies : public ::testing::TestWithParam<const char*> {
 protected:
  static protocol_policy policy() {
    const std::string name = GetParam();
    if (name == "crash-stop") return proto::crash_stop_policy();
    if (name == "persistent") return proto::persistent_policy();
    if (name == "transient") return proto::transient_policy();
    return proto::crash_stop_policy();
  }
};

INSTANTIATE_TEST_SUITE_P(Algorithms, AllPolicies,
                         ::testing::Values("crash-stop", "persistent", "transient"));

TEST_P(AllPolicies, ReadInitiallyReturnsBottom) {
  cluster c(make_config(policy()));
  EXPECT_TRUE(c.read(process_id{1}).is_initial());
}

TEST_P(AllPolicies, WriteThenReadFromEveryProcess) {
  cluster c(make_config(policy()));
  c.write(process_id{0}, value_of_u32(42));
  for (std::uint32_t p = 0; p < c.size(); ++p) {
    EXPECT_EQ(c.read(process_id{p}), value_of_u32(42)) << "reader p" << p;
  }
}

TEST_P(AllPolicies, LastWriteWins) {
  cluster c(make_config(policy()));
  c.write(process_id{0}, value_of_u32(1));
  c.write(process_id{1}, value_of_u32(2));
  c.write(process_id{2}, value_of_u32(3));
  EXPECT_EQ(c.read(process_id{4}), value_of_u32(3));
}

TEST_P(AllPolicies, HistoryIsPersistentAtomicWithoutCrashes) {
  cluster c(make_config(policy()));
  std::uint32_t v = 1;
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t p = 0; p < c.size(); ++p) {
      c.submit_write(process_id{p}, value_of_u32(v++), c.now());
      c.submit_read(process_id{(p + 2) % c.size()}, c.now());
    }
    ASSERT_TRUE(c.run_until_idle());
  }
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST_P(AllPolicies, ConcurrentWritersConverge) {
  cluster c(make_config(policy()));
  // All five processes write at the same instant, then everyone reads.
  for (std::uint32_t p = 0; p < c.size(); ++p) {
    c.submit_write(process_id{p}, value_of_u32(100 + p), 0);
  }
  ASSERT_TRUE(c.run_until_idle());
  const value v0 = c.read(process_id{0});
  for (std::uint32_t p = 1; p < c.size(); ++p) {
    EXPECT_EQ(c.read(process_id{p}), v0);
  }
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST_P(AllPolicies, OperationsUseFourCommunicationSteps) {
  // Paper section IV: both emulations keep [2]'s message complexity —
  // 2 round-trips (4 steps) per operation.
  cluster c(make_config(policy()));
  const auto w = c.submit_write(process_id{0}, value_of_u32(5), 0);
  ASSERT_TRUE(c.run_until_idle());
  const auto r = c.submit_read(process_id{1}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).sample.round_trips, 2u);
  EXPECT_EQ(c.result(r).sample.round_trips, 2u);
}

TEST_P(AllPolicies, SurvivesMinorityCrash) {
  cluster c(make_config(policy()));
  c.submit_crash(process_id{3}, 0);
  c.submit_crash(process_id{4}, 0);
  c.run_for(1_ms);
  c.write(process_id{0}, value_of_u32(7));
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(7));
}

TEST_P(AllPolicies, DeterministicAcrossRuns) {
  auto run_once = [&] {
    cluster c(make_config(policy(), 5, 77));
    for (std::uint32_t p = 0; p < 5; ++p) {
      c.submit_write(process_id{p}, value_of_u32(p + 1), static_cast<time_ns>(p) * 100_us);
      c.submit_read(process_id{4 - p}, static_cast<time_ns>(p) * 150_us);
    }
    c.run_until_idle();
    return std::make_pair(c.now(), history::to_string(c.events()));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---------- Log complexity (the paper's headline numbers) ----------

TEST(LogComplexity, CrashStopNeverLogs) {
  cluster c(make_config(proto::crash_stop_policy()));
  c.write(process_id{0}, value_of_u32(1));
  (void)c.read(process_id{1});
  for (std::uint32_t p = 0; p < c.size(); ++p) {
    EXPECT_EQ(c.durable_stores(process_id{p}), 0u);
  }
}

TEST(LogComplexity, PersistentWriteCostsTwoCausalLogs) {
  cluster c(make_config(proto::persistent_policy()));
  const auto w = c.submit_write(process_id{0}, value_of_u32(1), 0);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).sample.causal_logs, 2u);
  // Total stores: 1 writer prelog + one per replica that adopted (all 5).
  EXPECT_EQ(c.result(w).sample.total_logs, 6u);
}

TEST(LogComplexity, TransientWriteCostsOneCausalLog) {
  cluster c(make_config(proto::transient_policy()));
  const auto w = c.submit_write(process_id{0}, value_of_u32(1), 0);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).sample.causal_logs, 1u);
  EXPECT_EQ(c.result(w).sample.total_logs, 5u);  // replicas only, no prelog
}

TEST(LogComplexity, UncontendedReadDoesNotLog) {
  // "in the absence of concurrency, a read will not log" (section IV-B).
  for (auto pol : {proto::persistent_policy(), proto::transient_policy()}) {
    cluster c(make_config(pol));
    c.write(process_id{0}, value_of_u32(1));
    const auto r = c.submit_read(process_id{1}, c.now());
    ASSERT_TRUE(c.run_until_idle());
    EXPECT_EQ(c.result(r).sample.causal_logs, 0u) << pol.name;
    EXPECT_EQ(c.result(r).sample.total_logs, 0u) << pol.name;
  }
}

TEST(LogComplexity, ReadLogsWhenPropagatingAFresherValue) {
  // Force the read to encounter a value not yet at a majority: the write
  // reaches only p3; the reader must write it back, which costs 1 causal log.
  cluster c(make_config(proto::persistent_policy()));
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    // Block the writer's round-2 W from everyone but p3 (and block acks the
    // writer would need, keeping the write pending).
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
        pi.from == process_id{0} && pi.to != process_id{3}) {
      v.drop = true;
    }
    return v;
  });
  c.submit_write(process_id{0}, value_of_u32(9), 0);
  c.run_for(20_ms);  // write cannot finish (only p3 got W)
  c.network().clear_filter();
  const auto r = c.submit_read(process_id{1}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  ASSERT_TRUE(c.result(r).completed);
  EXPECT_EQ(c.result(r).entries[0].val, value_of_u32(9));
  EXPECT_EQ(c.result(r).sample.causal_logs, 1u);
  EXPECT_GE(c.result(r).sample.total_logs, 3u);  // the other replicas adopt
}

// ---------- Message complexity (the paper's 4n parity) ----------

TEST(MessageComplexity, SingleKeyOpsCostFourNMessagesAndPinnedBytes) {
  // A fault-free write and read at n=5: two rounds each of a broadcast and n
  // acks, so 4n = 20 messages per op, under every algorithm. The byte counts
  // pin the single-key wire layout that every message of these ops uses.
  struct pin {
    protocol_policy pol;
    std::uint64_t write_bytes;
    std::uint64_t read_bytes;
  };
  for (const pin& p : {pin{proto::crash_stop_policy(), 1320, 1340},
                       pin{proto::transient_policy(), 1320, 1340},
                       pin{proto::persistent_policy(), 1320, 1340}}) {
    cluster c(make_config(p.pol));
    const auto w = c.submit_write(process_id{0}, value_of_u32(7), 0);
    ASSERT_TRUE(c.run_until_idle());
    const auto r = c.submit_read(process_id{1}, c.now());
    ASSERT_TRUE(c.run_until_idle());
    ASSERT_TRUE(c.result(w).completed && c.result(r).completed) << p.pol.name;
    EXPECT_EQ(c.result(w).sample.messages, 20u) << p.pol.name;
    EXPECT_EQ(c.result(r).sample.messages, 20u) << p.pol.name;
    EXPECT_EQ(c.result(w).sample.net_bytes, p.write_bytes) << p.pol.name;
    EXPECT_EQ(c.result(r).sample.net_bytes, p.read_bytes) << p.pol.name;
  }
}

// ---------- Crash-recovery behaviour ----------

TEST(CrashRecovery, ValueSurvivesFullBlackout) {
  // "all the processes crash, possibly at the same time, as long as a
  // majority eventually recovers" (section I-D).
  for (auto pol : {proto::persistent_policy(), proto::transient_policy()}) {
    cluster c(make_config(pol));
    c.write(process_id{0}, value_of_u32(123));
    c.apply(sim::make_blackout_plan(c.size(), c.now() + 1_ms, 10_ms));
    ASSERT_TRUE(c.run_until_idle());
    EXPECT_EQ(c.read(process_id{2}), value_of_u32(123)) << pol.name;
    const auto verdict = history::check_persistent_atomicity(c.events());
    EXPECT_TRUE(verdict.ok) << pol.name << "\n" << verdict.explanation;
  }
}

TEST(CrashRecovery, RecoveringProcessRestoresItsReplicaState) {
  cluster c(make_config(proto::persistent_policy()));
  c.write(process_id{0}, value_of_u32(5));
  c.submit_crash(process_id{2}, c.now());
  c.submit_recover(process_id{2}, c.now() + 5_ms);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.core_of(process_id{2}).replica_value(), value_of_u32(5));
}

TEST(CrashRecovery, PersistentRecoveryFinishesInterruptedWrite) {
  // The writer crashes right after its prelog becomes durable; on recovery
  // the write is finished and every later read sees it (persistent
  // atomicity's whole point).
  cluster c(make_config(proto::persistent_policy()));
  c.write(process_id{0}, value_of_u32(1));
  // Block every round-2 W copy of the writer's next write, so the new value
  // reaches nobody before the crash.
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
        pi.from == process_id{0}) {
      v.drop = true;
    }
    return v;
  });
  c.submit_write(process_id{0}, value_of_u32(2), c.now());
  c.run_for(5_ms);  // prelog done, W blocked
  c.network().clear_filter();
  c.submit_crash(process_id{0}, c.now());
  c.submit_recover(process_id{0}, c.now() + 2_ms);
  ASSERT_TRUE(c.run_until_idle());
  // After recovery the interrupted write must be visible.
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(2));
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(CrashRecovery, TransientRecoveryBumpsCounterOnly) {
  cluster c(make_config(proto::transient_policy()));
  c.write(process_id{0}, value_of_u32(1));
  const auto stores_before = c.recovery_stores();
  c.submit_crash(process_id{0}, c.now());
  c.submit_recover(process_id{0}, c.now() + 2_ms);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.core_of(process_id{0}).recoveries(), 1);
  EXPECT_EQ(c.recovery_stores(), stores_before + 1);  // exactly one rec log
  // Next write's tag carries the counter.
  const auto w = c.submit_write(process_id{0}, value_of_u32(2), c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).entries[0].ts.rec, 1);
}

TEST(CrashRecovery, OpsQueuedDuringRecoveryRunAfterIt) {
  cluster c(make_config(proto::persistent_policy()));
  c.write(process_id{0}, value_of_u32(1));
  c.submit_crash(process_id{0}, c.now());
  c.submit_recover(process_id{0}, c.now() + 2_ms);
  // Submitted while down/recovering: must run after recovery completes.
  const auto w = c.submit_write(process_id{0}, value_of_u32(2), c.now() + 3_ms);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_TRUE(c.result(w).completed);
  EXPECT_EQ(c.read(process_id{3}), value_of_u32(2));
}

TEST(CrashRecovery, CrashedMajorityBlocksThenRecoversAndUnblocks) {
  cluster c(make_config(proto::persistent_policy()));
  c.write(process_id{0}, value_of_u32(1));
  c.submit_crash(process_id{2}, c.now());
  c.submit_crash(process_id{3}, c.now());
  c.submit_crash(process_id{4}, c.now());
  const auto w = c.submit_write(process_id{0}, value_of_u32(2), c.now() + 1_ms);
  c.run_for(300_ms);
  EXPECT_FALSE(c.result(w).completed);  // majority down: robustness stalls
  c.submit_recover(process_id{2}, c.now());
  c.submit_recover(process_id{3}, c.now());
  c.submit_recover(process_id{4}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_TRUE(c.result(w).completed);  // ...and resumes once majority is back
  EXPECT_EQ(c.read(process_id{2}), value_of_u32(2));
}

TEST(CrashRecovery, ReaderCrashMidReadLeavesPendingInvocation) {
  cluster c(make_config(proto::persistent_policy()));
  c.write(process_id{0}, value_of_u32(1));
  // Slow down all read acks so the read is still running when p1 crashes.
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::read_ack)) {
      v.deliver_at = 100_ms;
    }
    return v;
  });
  const auto r = c.submit_read(process_id{1}, c.now());
  c.submit_crash(process_id{1}, c.now() + 1_ms);
  c.run_for(2_ms);  // read is in flight, then the reader crashes
  c.network().clear_filter();
  c.submit_recover(process_id{1}, c.now() + 3_ms);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_FALSE(c.result(r).completed);
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(CrashRecovery, RepeatedCrashesOfSameProcess) {
  cluster c(make_config(proto::transient_policy()));
  std::uint32_t v = 1;
  for (int round = 0; round < 5; ++round) {
    c.write(process_id{0}, value_of_u32(v++));
    c.submit_crash(process_id{0}, c.now());
    c.submit_recover(process_id{0}, c.now() + 2_ms);
    ASSERT_TRUE(c.run_until_idle());
  }
  EXPECT_EQ(c.core_of(process_id{0}).recoveries(), 5);
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(v - 1));
  const auto verdict = history::check_transient_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------- Lossy network ----------

TEST(LossyNetwork, OperationsCompleteDespiteDrops) {
  for (auto pol : {proto::crash_stop_policy(), proto::persistent_policy(),
                   proto::transient_policy()}) {
    cluster_config cfg = make_config(pol, 5, 13);
    cfg.net.drop_probability = 0.3;
    cfg.net.duplicate_probability = 0.1;
    cfg.policy.retransmit_delay = 5_ms;
    cluster c(cfg);
    c.write(process_id{0}, value_of_u32(11));
    EXPECT_EQ(c.read(process_id{1}), value_of_u32(11)) << pol.name;
    const auto verdict = history::check_persistent_atomicity(c.events());
    EXPECT_TRUE(verdict.ok) << pol.name << "\n" << verdict.explanation;
  }
}

TEST(LossyNetwork, HeavyLossStillTerminates) {
  cluster_config cfg = make_config(proto::persistent_policy(), 5, 17);
  cfg.net.drop_probability = 0.6;
  cfg.policy.retransmit_delay = 2_ms;
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(3));
  EXPECT_EQ(c.read(process_id{4}), value_of_u32(3));
}

// ---------- Misc driver behaviour ----------

TEST(Driver, CrashStopRejectsRecovery) {
  cluster c(make_config(proto::crash_stop_policy()));
  EXPECT_THROW(c.submit_recover(process_id{0}, 0), driver_error);
}

TEST(Driver, QueuedOpsDroppedOnCrash) {
  cluster c(make_config(proto::persistent_policy()));
  // Stall the first write by blocking SN acks, then queue another behind it.
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::sn_ack)) v.drop = true;
    return v;
  });
  const auto w1 = c.submit_write(process_id{0}, value_of_u32(1), 0);
  const auto w2 = c.submit_write(process_id{0}, value_of_u32(2), 1_ms);
  c.submit_crash(process_id{0}, 2_ms);
  c.run_for(10_ms);
  c.network().clear_filter();
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_FALSE(c.result(w1).completed);  // invoked, cut short by the crash
  EXPECT_FALSE(c.result(w2).completed);
  EXPECT_TRUE(c.result(w2).dropped);  // never invoked at all
}

TEST(Driver, ResultsExposeAppliedTags) {
  cluster c(make_config(proto::persistent_policy()));
  const auto w = c.submit_write(process_id{2}, value_of_u32(5), 0);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).entries[0].ts, (tag{1, 0, process_id{2}}));
  const auto r = c.submit_read(process_id{0}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(r).entries[0].ts, (tag{1, 0, process_id{2}}));
}

TEST(Driver, SingleProcessClusterWorks) {
  cluster c(make_config(proto::persistent_policy(), 1));
  c.write(process_id{0}, value_of_u32(9));
  EXPECT_EQ(c.read(process_id{0}), value_of_u32(9));
}

TEST(Driver, EvenClusterSizeUsesProperMajority) {
  cluster c(make_config(proto::persistent_policy(), 4));
  EXPECT_EQ(c.core_of(process_id{0}).quorum_size(), 3u);
  c.write(process_id{0}, value_of_u32(1));
  // Two down (half): majority of 3 still reachable? No — 4-node majority is
  // 3, so with 2 down operations must stall.
  c.submit_crash(process_id{2}, c.now());
  c.submit_crash(process_id{3}, c.now());
  const auto w = c.submit_write(process_id{0}, value_of_u32(2), c.now() + 1_ms);
  c.run_for(200_ms);
  EXPECT_FALSE(c.result(w).completed);
}

}  // namespace
}  // namespace remus::core
