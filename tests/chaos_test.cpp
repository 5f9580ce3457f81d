// Chaos-style tests: network partitions, pathological reordering, decoder
// fuzzing, and long mixed fault/workload soaks — conditions beyond the
// scripted scenarios, where only the model's guarantees remain.
#include <gtest/gtest.h>

#include "common/codec.h"
#include "core/cluster.h"
#include "history/atomicity.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "proto/message.h"
#include "proto/policy.h"
#include "core/shard_router.h"
#include "sim/kv_workload.h"

namespace remus::core {
namespace {

// ---------- Partitions (cut links, not crashes) ----------

TEST(Partition, WriterIsolatedFromMajorityStallsThenHeals) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::persistent_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));

  // Cut p0 off from everyone (both directions).
  c.network().partition({{process_id{0}},
                         {process_id{1}, process_id{2}, process_id{3}, process_id{4}}});
  const auto w = c.submit_write(process_id{0}, value_of_u32(2), c.now());
  c.run_for(100_ms);
  EXPECT_FALSE(c.result(w).completed);  // no majority reachable

  // Others still serve (p0's listener is unreachable but 4 > majority).
  EXPECT_EQ(c.read(process_id{2}), value_of_u32(1));

  c.network().restore_all_links();
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_TRUE(c.result(w).completed);  // retransmission finished the write
  EXPECT_EQ(c.read(process_id{3}), value_of_u32(2));
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Partition, MinoritySideServesNothingButStaysConsistent) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::transient_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));

  // Split {0,1} | {2,3,4}: cut all cross links.
  c.network().partition({{process_id{0}, process_id{1}},
                         {process_id{2}, process_id{3}, process_id{4}}});
  const auto minority_w = c.submit_write(process_id{0}, value_of_u32(2), c.now());
  const auto majority_w = c.submit_write(process_id{3}, value_of_u32(3), c.now());
  c.run_for(100_ms);
  EXPECT_FALSE(c.result(minority_w).completed);
  EXPECT_TRUE(c.result(majority_w).completed);  // majority side progresses

  c.network().restore_all_links();
  ASSERT_TRUE(c.run_until_idle());
  const auto verdict = history::check_transient_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation << history::to_string(c.events());
  const auto order = history::check_tag_order(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;
}

TEST(Partition, FlappingLinksEventuallyDeliver) {
  cluster_config cfg;
  cfg.n = 3;
  cfg.policy = proto::persistent_policy();
  cfg.policy.retransmit_delay = 3_ms;
  cluster c(cfg);
  // Isolate and reconnect the writer repeatedly while its write runs; the
  // repeat-until loop must push it through the connected windows.
  const auto w = c.submit_write(process_id{0}, value_of_u32(7), 0);
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      c.network().cut_pair(process_id{0}, process_id{1});
      c.network().cut_pair(process_id{0}, process_id{2});
    } else {
      c.network().restore_all_links();
    }
    c.run_for(2_ms);
  }
  c.network().restore_all_links();
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_TRUE(c.result(w).completed);
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(7));
}

// ---------- Extreme reordering ----------

TEST(Reordering, HugeJitterStillLinearizes) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::transient_policy();
  cfg.policy.retransmit_delay = 20_ms;
  cfg.net.jitter = 5_ms;  // 50x the base delay: acks arrive wildly reordered
  cfg.seed = 33;
  cluster c(cfg);
  std::uint32_t v = 1;
  for (int i = 0; i < 10; ++i) {
    c.submit_write(process_id{static_cast<std::uint32_t>(i) % 5}, value_of_u32(v++),
                   static_cast<time_ns>(i) * 3_ms);
    c.submit_read(process_id{(static_cast<std::uint32_t>(i) + 1) % 5},
                  static_cast<time_ns>(i) * 3_ms + 1_ms);
  }
  ASSERT_TRUE(c.run_until_idle());
  const auto verdict = history::check_transient_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation << history::to_string(c.events());
}

TEST(Reordering, DuplicateStormIsHarmless) {
  cluster_config cfg;
  cfg.n = 3;
  cfg.policy = proto::persistent_policy();
  cfg.net.duplicate_probability = 0.9;  // nearly every message doubled
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(5));
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(5));
  const auto verdict = history::check_persistent_atomicity(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------- Re-entrant recovery (crash during recovery log replay) ----------

TEST(ReentrantRecovery, CrashDuringRecoveryReplayStaysAtomicPerKey) {
  // A node populated with many registers crashes, starts recovering (the
  // recovery reads + replays every register's stable records), and crashes
  // *again* mid-recovery — repeatedly, at sliding offsets so the second
  // crash lands before, during, and after the stable-store read and the
  // persistent finish-write round. Per-key atomicity must survive every
  // interleaving, and the node must end up consistent once it finally stays
  // up.
  for (const auto& pol : {proto::persistent_policy(), proto::transient_policy()}) {
    for (int offset_us = 50; offset_us <= 850; offset_us += 200) {
      cluster_config cfg;
      cfg.n = 3;
      cfg.policy = pol;
      cfg.policy.retransmit_delay = 3_ms;
      cfg.seed = 100 + static_cast<std::uint64_t>(offset_us);
      cluster c(cfg);
      for (std::uint32_t k = 0; k < 10; ++k) {
        c.write(process_id{0}, k, value_of_u32(100 + k));
      }
      const time_ns t0 = c.now();
      c.submit_crash(process_id{2}, t0);
      c.submit_recover(process_id{2}, t0 + 100_us);
      // Second crash lands inside the previous recovery procedure
      // (recovery_read_latency is 400 us; the finish-write round follows).
      c.submit_crash(process_id{2}, t0 + 100_us + static_cast<time_ns>(offset_us) * 1_us);
      c.submit_recover(process_id{2}, t0 + 5_ms);
      // Keep traffic flowing from the healthy majority while p2 thrashes.
      c.submit_write(process_id{0}, 3, value_of_u32(9000 + static_cast<std::uint32_t>(offset_us)),
                     t0 + 200_us);
      c.submit_read(process_id{1}, 7, t0 + 300_us);
      ASSERT_TRUE(c.run_until_idle());

      const auto verdict = cfg.policy.recovery_counter
                               ? history::check_transient_atomicity_per_key(c.events())
                               : history::check_persistent_atomicity_per_key(c.events());
      EXPECT_TRUE(verdict.ok) << pol.name << " offset " << offset_us << "us\n"
                              << verdict.explanation;
      // The twice-recovered node serves consistent values afterwards.
      for (std::uint32_t k = 0; k < 10; ++k) {
        EXPECT_EQ(c.read(process_id{2}, k), c.read(process_id{0}, k)) << "reg " << k;
      }
    }
  }
}

// ---------- Crashes during batched multi-key writes ----------

TEST(BatchChaos, CrashesDuringBatchedWritesStayAtomicPerKey) {
  // Batched writes in flight while the writer and replicas crash at sliding
  // offsets: the batch's per-register logs and the deferred batched ack
  // must never let a partially-durable batch violate any key's atomicity.
  for (int crash_writer = 0; crash_writer <= 1; ++crash_writer) {
    for (int offset_us = 100; offset_us <= 1300; offset_us += 300) {
      cluster_config cfg;
      cfg.n = 5;
      cfg.policy = proto::persistent_policy();
      cfg.policy.retransmit_delay = 3_ms;
      cfg.seed = 7000 + static_cast<std::uint64_t>(offset_us + crash_writer);
      cluster c(cfg);
      std::uint32_t v = 1;
      // Ground state on a few registers.
      for (std::uint32_t k = 0; k < 6; ++k) c.write(process_id{1}, k, value_of_u32(v++));

      const time_ns t0 = c.now();
      std::vector<proto::write_op> ops;
      for (std::uint32_t k = 0; k < 6; ++k) ops.push_back({k, value_of_u32(100 + v++ )});
      c.submit_write_batch(process_id{0}, ops, t0);
      // Competing batched read of the same keys.
      c.submit_read_batch(process_id{3}, {0, 1, 2, 3, 4, 5}, t0 + 50_us);

      const process_id victim = crash_writer ? process_id{0} : process_id{4};
      c.submit_crash(victim, t0 + static_cast<time_ns>(offset_us) * 1_us);
      c.submit_recover(victim, t0 + 10_ms);
      ASSERT_TRUE(c.run_until_idle());

      const auto verdict = history::check_persistent_atomicity_per_key(c.events());
      EXPECT_TRUE(verdict.ok)
          << (crash_writer ? "writer" : "replica") << " crash at " << offset_us << "us\n"
          << verdict.explanation;
      const auto order = history::check_tag_order_per_key(c.tagged_operations());
      EXPECT_TRUE(order.ok) << order.explanation;
      // Every register converges: all nodes agree after the dust settles.
      for (std::uint32_t k = 0; k < 6; ++k) {
        const value expect = c.read(process_id{2}, k);
        EXPECT_EQ(c.read(process_id{0}, k), expect) << "reg " << k;
        EXPECT_EQ(c.read(process_id{4}, k), expect) << "reg " << k;
      }
    }
  }
}

TEST(BatchChaos, KeyedSoakWithBatchesLossAndFaults) {
  // A longer randomized keyed soak: batched + single-key traffic over 16
  // registers, 10% message loss, rolling crash/recovery — the blackbox
  // "everything at once" case for the namespace.
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::transient_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cfg.net.drop_probability = 0.1;
  cfg.seed = 4242;
  cluster c(cfg);

  sim::kv_workload_config wc;
  wc.n = 5;
  wc.key_count = 16;
  wc.zipf_theta = 0.9;
  wc.read_fraction = 0.4;
  wc.batch_size = 3;
  wc.ops = 120;
  wc.mean_gap = 2'000'000;  // ~2 ms between ops per process
  wc.seed = 99;
  std::vector<proto::write_op> batch_ops;
  std::vector<register_id> batch_regs;
  for (const auto& op : sim::make_kv_workload(wc)) {
    if (op.is_read) {
      batch_regs.clear();
      for (const auto& e : op.entries) batch_regs.push_back(e.reg);
      c.submit_read_batch(op.p, batch_regs, op.at);
    } else {
      batch_ops.clear();
      for (const auto& e : op.entries) batch_ops.push_back({e.reg, e.val});
      c.submit_write_batch(op.p, batch_ops, op.at);
    }
  }

  sim::random_plan_config fp;
  fp.n = 5;
  fp.crashes = 12;
  fp.horizon = 300_ms;
  fp.min_down = 5_ms;
  fp.max_down = 50_ms;
  rng fr(17);
  c.apply(sim::make_random_plan(fp, fr));

  ASSERT_TRUE(c.run_until_idle(80'000'000));
  const auto verdict = history::check_transient_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_GE(verdict.keys_checked, 10u);  // the workload really spread out
  const auto order = history::check_tag_order_per_key(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;
}

// ---------- Long soak ----------

TEST(Soak, MixedWorkloadFaultsAndLossForSimulatedSeconds) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::transient_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cfg.net.drop_probability = 0.1;
  cfg.seed = 99;
  cluster c(cfg);
  rng r(99);

  std::uint32_t v = 1;
  const time_ns horizon = 3_s;
  for (time_ns t = 0; t < horizon; t += 20_ms) {
    const process_id p{static_cast<std::uint32_t>(r.next_below(5))};
    if (r.chance(0.6)) {
      c.submit_write(p, value_of_u32(v++), t + r.next_in(0, 10_ms));
    } else {
      c.submit_read(p, t + r.next_in(0, 10_ms));
    }
  }
  sim::random_plan_config fp;
  fp.n = 5;
  fp.crashes = 25;
  fp.horizon = horizon;
  fp.min_down = 5_ms;
  fp.max_down = 80_ms;
  rng fr(7);
  c.apply(sim::make_random_plan(fp, fr));

  ASSERT_TRUE(c.run_until_idle(80'000'000));
  const auto h = c.events();
  const auto verdict = history::check_transient_atomicity(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  const auto order = history::check_tag_order(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;
  EXPECT_GT(c.tagged_operations().size(), 50u);  // the run did real work
}

// ---------- Migration chaos (live rebalancing under faults) ----------

namespace {

/// A 2-shard router with an open-loop keyed workload submitted, run
/// partway so operations straddle the upcoming migration window.
core::shard_router make_migrating_router(std::uint64_t seed,
                                         std::vector<core::shard_router::op_handle>* hs) {
  core::shard_router_config cfg;
  cfg.shards = 2;
  cfg.base.n = 3;
  cfg.base.policy = proto::persistent_policy();
  cfg.base.policy.retransmit_delay = 3_ms;
  cfg.base.seed = seed;
  core::shard_router r(cfg);

  sim::kv_workload_config wc;
  wc.n = 3;
  wc.key_count = 48;
  wc.ops = 160;
  wc.read_fraction = 0.5;
  wc.seed = seed;
  for (const auto& op : sim::make_kv_workload(wc)) {
    const auto h = op.is_read
                       ? r.submit_read(op.p, op.entries[0].reg, op.at)
                       : r.submit_write(op.p, op.entries[0].reg, op.entries[0].val, op.at);
    if (hs != nullptr) hs->push_back(h);
  }
  r.run_for(4_ms);  // some completed, some in flight at window open
  return r;
}

void verify_merged(core::shard_router& r, const char* what) {
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << what << ": " << verdict.explanation;
  EXPECT_GT(verdict.keys_checked, 4u);
  const auto order = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(order.ok) << what << ": " << order.explanation;
}

/// The straddling workload must not silently vanish in the faulty window:
/// crashes may cut a few ops short, but the vast majority completes and
/// nothing is left permanently in flight.
void verify_outcomes(core::shard_router& r,
                     const std::vector<core::shard_router::op_handle>& handles,
                     const char* what) {
  std::size_t completed = 0;
  for (const auto h : handles) {
    if (r.result(h).completed) ++completed;
  }
  EXPECT_GE(completed, handles.size() * 3 / 4) << what;
  EXPECT_EQ(r.events_pending(), 0u) << what;  // nothing stalled forever
}

}  // namespace

TEST(MigrationChaos, SourceShardReplicaCrashesMidHandoff) {
  // Crash a replica of each *source* shard right as the window opens (state
  // is being exported from these very groups), recover mid-window: exports
  // read stable storage, which survives the crash, and the drain waits out
  // any operation the crash cut short.
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    std::vector<core::shard_router::op_handle> handles;
    core::shard_router r = make_migrating_router(seed, &handles);
    r.begin_add_shard();
    r.submit_crash(0, process_id{1}, r.now() + 200_us);
    r.submit_crash(1, process_id{2}, r.now() + 350_us);
    r.submit_recover(0, process_id{1}, r.now() + 6_ms);
    r.submit_recover(1, process_id{2}, r.now() + 7_ms);
    // Window traffic while the sources are degraded.
    std::uint32_t v = 1'000'000;
    for (register_id reg = 0; reg < 48; reg += 5) {
      r.submit_write(process_id{0}, reg, value_of_u32(v++), r.now() + 1_ms);
      r.submit_read(process_id{2}, reg, r.now() + 2_ms);
    }
    ASSERT_TRUE(r.run_until_idle(200'000'000)) << "seed " << seed;
    ASSERT_TRUE(r.migration_drained()) << "seed " << seed;
    r.finish_add_shard();
    verify_merged(r, "source crash");
    verify_outcomes(r, handles, "source crash");
  }
}

TEST(MigrationChaos, DestinationShardCrashesBeforeDrainCompletes) {
  // Crash replicas of the *destination* shard while keys are still being
  // imported: imports install stable records regardless (a crashed core
  // restores them on recovery), so no transferred state is lost and writes
  // handed off to the degraded destination finish once it recovers.
  std::vector<core::shard_router::op_handle> handles;
  core::shard_router r = make_migrating_router(21, &handles);
  const std::uint32_t added = r.begin_add_shard();
  // Take down a majority of the new shard for part of the window.
  r.submit_crash(added, process_id{0}, r.now() + 100_us);
  r.submit_crash(added, process_id{2}, r.now() + 150_us);
  r.submit_recover(added, process_id{0}, r.now() + 5_ms);
  r.submit_recover(added, process_id{2}, r.now() + 6_ms);
  std::uint32_t v = 2'000'000;
  for (register_id reg = 0; reg < 48; reg += 3) {
    r.submit_write(process_id{1}, reg, value_of_u32(v++), r.now() + 500_us);
  }
  ASSERT_TRUE(r.run_until_idle(200'000'000));
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();
  verify_merged(r, "destination crash");
  verify_outcomes(r, handles, "destination crash");
  // The transferred namespace serves from the new topology afterwards.
  for (register_id reg = 0; reg < 48; reg += 7) {
    (void)r.read(process_id{0}, reg);
  }
  verify_merged(r, "destination crash + post reads");
}

TEST(MigrationChaos, ReenteredRecoveryDuringWindowStaysAtomic) {
  // A source replica crashes, recovers, and crashes *again during its
  // recovery replay window* while the migration drain is running — the
  // double-fault from ReentrantRecovery, now overlapped with an epoch
  // change. The merged two-epoch history must still be atomic per key.
  std::vector<core::shard_router::op_handle> handles;
  core::shard_router r = make_migrating_router(31, &handles);
  r.begin_add_shard();
  const time_ns t0 = r.now();
  r.submit_crash(0, process_id{1}, t0 + 200_us);
  r.submit_recover(0, process_id{1}, t0 + 1_ms);
  // Recovery replay takes ~recovery_read_latency + a quorum round; crash
  // again inside it, then recover for good.
  r.submit_crash(0, process_id{1}, t0 + 1_ms + 300_us);
  r.submit_recover(0, process_id{1}, t0 + 8_ms);
  std::uint32_t v = 3'000'000;
  for (register_id reg = 0; reg < 48; reg += 4) {
    r.submit_write(process_id{1}, reg, value_of_u32(v++), t0 + 2_ms);
    r.submit_read(process_id{2}, reg, t0 + 3_ms);
  }
  ASSERT_TRUE(r.run_until_idle(200'000'000));
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();
  verify_merged(r, "re-entered recovery");
  verify_outcomes(r, handles, "re-entered recovery");
}

}  // namespace
}  // namespace remus::core

// ---------- Decoder fuzzing ----------

namespace remus::proto {
namespace {

TEST(Fuzz, DecoderNeverCrashesOnRandomBytes) {
  rng r(4242);
  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    bytes junk(r.next_below(96));
    for (auto& b : junk) b = static_cast<std::uint8_t>(r.next_u64());
    try {
      const message m = decode_message(junk);
      (void)m;
      ++ok;
    } catch (const codec_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 20000);
  EXPECT_GT(rejected, 15000);  // almost everything random must be rejected
}

TEST(Fuzz, TruncatedRealMessagesRejectedCleanly) {
  message m;
  m.kind = msg_kind::write;
  m.from = process_id{2};
  m.op_seq = 7;
  m.round = 2;
  m.epoch = 123;
  m.entries = {{0, tag{9, 1, process_id{2}}, value_of_size(64)}};
  const bytes wire = encode(m);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_message(prefix), codec_error) << "cut=" << cut;
  }
  EXPECT_NO_THROW((void)decode_message(wire));
}

TEST(Fuzz, BitflippedMessagesEitherParseOrThrow) {
  message m;
  m.kind = msg_kind::read_ack;
  m.from = process_id{1};
  m.entries = {{0, tag{}, value_of_u32(5)}};
  const bytes wire = encode(m);
  rng r(17);
  for (int i = 0; i < 2000; ++i) {
    bytes mutated = wire;
    mutated[r.next_below(mutated.size())] ^= static_cast<std::uint8_t>(1 + r.next_below(255));
    try {
      (void)decode_message(mutated);
    } catch (const codec_error&) {
      // fine: rejected cleanly
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace remus::proto
