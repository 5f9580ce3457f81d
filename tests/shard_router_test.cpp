// Sharded-namespace tests: consistent-hash ring determinism and stability,
// routing through independent quorum groups, cross-shard batch split/merge,
// and per-key atomicity of the merged multi-shard history under concurrent
// crashes in several shards at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "open_loop.h"
#include "proto/policy.h"
#include "sim/kv_workload.h"

namespace remus::core {
namespace {

shard_router_config router_cfg(std::uint32_t shards, std::uint32_t n = 3,
                               std::uint64_t seed = 11) {
  shard_router_config cfg;
  cfg.shards = shards;
  cfg.base.n = n;
  cfg.base.policy = proto::persistent_policy();
  cfg.base.seed = seed;
  return cfg;
}

// ---------- Hash ring ----------

TEST(HashRing, DeterministicAcrossInstances) {
  const hash_ring a(4, 64);
  const hash_ring b(4, 64);
  for (register_id reg = 0; reg < 10'000; ++reg) {
    ASSERT_EQ(a.shard_of(reg), b.shard_of(reg)) << "register " << reg;
  }
}

TEST(HashRing, SeedIndependentPlacement) {
  // Placement must not depend on any run configuration: two routers with
  // different seeds route every key identically.
  shard_router r1(router_cfg(4, 3, /*seed=*/1));
  shard_router r2(router_cfg(4, 3, /*seed=*/999));
  for (register_id reg = 0; reg < 2'000; ++reg) {
    ASSERT_EQ(r1.shard_of(reg), r2.shard_of(reg));
  }
}

TEST(HashRing, EveryShardOwnsAFairSlice) {
  const std::uint32_t shards = 8;
  const hash_ring ring(shards, 64);
  std::vector<std::uint32_t> owned(shards, 0);
  const std::uint32_t keys = 64 * 1024;
  for (register_id reg = 0; reg < keys; ++reg) owned[ring.shard_of(reg)]++;
  for (std::uint32_t s = 0; s < shards; ++s) {
    // Perfect balance is keys/shards; virtual nodes keep every shard within
    // a loose 2x band of it (the classic consistent-hashing concentration).
    EXPECT_GT(owned[s], keys / shards / 2) << "shard " << s << " underloaded";
    EXPECT_LT(owned[s], keys / shards * 2) << "shard " << s << " overloaded";
  }
}

TEST(HashRing, GrowingTheRingMovesAboutOneOverSKeys) {
  // Consistent hashing's point: going S -> S+1 only remaps keys whose
  // successor point now belongs to the new shard — ~1/(S+1) of them —
  // while modulo hashing would remap almost everything.
  const std::uint32_t keys = 32 * 1024;
  for (std::uint32_t s : {2u, 4u, 8u}) {
    const hash_ring before(s, 64);
    const hash_ring after(s + 1, 64);
    std::uint32_t moved = 0;
    for (register_id reg = 0; reg < keys; ++reg) {
      const std::uint32_t was = before.shard_of(reg);
      const std::uint32_t is = after.shard_of(reg);
      if (was == is) continue;
      ++moved;
      // A key that moves must move *to the new shard*: old shards never
      // trade keys among themselves when one shard is added.
      EXPECT_EQ(is, s) << "register " << reg << " moved between old shards";
    }
    const double expected = static_cast<double>(keys) / (s + 1);
    EXPECT_GT(moved, 0u);
    EXPECT_LT(static_cast<double>(moved), 2.0 * expected)
        << "grow " << s << "->" << s + 1 << " moved " << moved;
  }
}

TEST(HashRing, RejectsEmptyConfigurations) {
  EXPECT_THROW(hash_ring(0, 64), driver_error);
  EXPECT_THROW(hash_ring(4, 0), driver_error);
  EXPECT_THROW(hash_ring({0, 1, 1}, 64, 0), driver_error);  // duplicate id
  EXPECT_THROW(hash_ring(std::vector<std::uint32_t>{}, 64, 0), driver_error);
}

TEST(HashRing, EpochsStampSnapshotsAndDerivations) {
  const hash_ring r(2, 64);
  EXPECT_EQ(r.epoch(), 0u);
  const hash_ring grown = r.grow(2);
  EXPECT_EQ(grown.epoch(), 1u);
  EXPECT_EQ(grown.shard_count(), 3u);
  EXPECT_TRUE(grown.has_shard(2));
  const hash_ring back = grown.shrink(2);
  EXPECT_EQ(back.epoch(), 2u);
  EXPECT_EQ(back.shard_ids(), r.shard_ids());
  EXPECT_THROW(r.grow(1), driver_error);    // id already present
  EXPECT_THROW(r.shrink(7), driver_error);  // id absent
}

TEST(HashRing, SingleShardRingOwnsEverythingAndCannotShrink) {
  const hash_ring one(1, 64);
  for (register_id reg = 0; reg < 4'096; ++reg) {
    ASSERT_EQ(one.shard_of(reg), 0u);
  }
  EXPECT_THROW(one.shrink(0), driver_error);
  // Growing 1 -> 2 moves roughly half the keys, all onto the new shard.
  const hash_ring two = one.grow(1);
  const auto d = hash_ring::diff(one, two);
  std::uint32_t moved = 0;
  for (register_id reg = 0; reg < 32'768; ++reg) {
    if (d.moved(reg)) {
      ++moved;
      EXPECT_EQ(two.shard_of(reg), 1u);
    }
  }
  EXPECT_GT(moved, 32'768 / 4);
  EXPECT_LT(moved, 3 * 32'768 / 4);
}

TEST(HashRing, ShrinkMovesOnlyTheRemovedShardsKeys) {
  const hash_ring before(4, 64);
  const hash_ring after = before.shrink(2);
  const std::uint32_t keys = 32 * 1024;
  std::uint32_t moved = 0;
  for (register_id reg = 0; reg < keys; ++reg) {
    const std::uint32_t was = before.shard_of(reg);
    const std::uint32_t is = after.shard_of(reg);
    if (was != 2) {
      // Survivors keep every key they had: removal never shuffles them.
      ASSERT_EQ(is, was) << "register " << reg << " moved between survivors";
    } else {
      ASSERT_NE(is, 2u);
      ++moved;
    }
  }
  // The removed shard owned ~1/4 of the namespace; all of it moved.
  EXPECT_GT(moved, keys / 8);
  EXPECT_LT(moved, keys / 2);
}

TEST(HashRing, DiffMatchesBruteForceOwnershipComparison) {
  for (const auto& [before, after] :
       {std::pair{hash_ring(2, 64), hash_ring(2, 64).grow(2)},
        std::pair{hash_ring(4, 64), hash_ring(4, 64).shrink(1)},
        std::pair{hash_ring(3, 16), hash_ring(3, 16).grow(3)}}) {
    const auto d = hash_ring::diff(before, after);
    EXPECT_FALSE(d.empty());
    for (register_id reg = 0; reg < 32'768; ++reg) {
      const std::uint32_t was = before.shard_of(reg);
      const std::uint32_t is = after.shard_of(reg);
      ASSERT_EQ(d.moved(reg), was != is) << "register " << reg;
      if (const auto* seg = d.segment_of(reg)) {
        ASSERT_EQ(seg->from_shard, was);
        ASSERT_EQ(seg->to_shard, is);
      }
    }
  }
  // Identical snapshots produce an empty delta.
  EXPECT_TRUE(hash_ring::diff(hash_ring(4, 64), hash_ring(4, 64)).empty());
}

TEST(HashRing, DiffOfFullCircleOwnershipChangeMovesEveryKey) {
  // Replacing the only shard changes the owner of the whole circle: the
  // delta degenerates to a single lo == hi segment, which must mean "every
  // key moved", not "none did".
  const hash_ring only_zero(std::vector<std::uint32_t>{0}, 64, 0);
  const hash_ring only_one(std::vector<std::uint32_t>{1}, 64, 0);
  const auto d = hash_ring::diff(only_zero, only_one);
  ASSERT_FALSE(d.empty());
  for (register_id reg = 0; reg < 10'000; ++reg) {
    ASSERT_TRUE(d.moved(reg)) << "register " << reg;
    const auto* seg = d.segment_of(reg);
    ASSERT_NE(seg, nullptr);
    EXPECT_EQ(seg->from_shard, 0u);
    EXPECT_EQ(seg->to_shard, 1u);
  }
}

// ---------- Routing & merged results ----------

TEST(ShardRouter, WriteThenReadRoundTripsAcrossShards) {
  shard_router r(router_cfg(4));
  // Pick registers landing on distinct shards so the test exercises several
  // quorum groups.
  std::set<std::uint32_t> seen;
  std::vector<register_id> regs;
  for (register_id reg = 0; regs.size() < 4 && reg < 1000; ++reg) {
    if (seen.insert(r.shard_of(reg)).second) regs.push_back(reg);
  }
  ASSERT_EQ(regs.size(), 4u);
  for (std::size_t i = 0; i < regs.size(); ++i) {
    r.write(process_id{0}, regs[i], value_of_u32(static_cast<std::uint32_t>(100 + i)));
  }
  for (std::size_t i = 0; i < regs.size(); ++i) {
    EXPECT_EQ(value_as_u32(r.read(process_id{1}, regs[i])),
              static_cast<std::uint32_t>(100 + i));
  }
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_EQ(verdict.keys_checked, regs.size());
}

TEST(ShardRouter, SingleShardRouterMatchesClusterSemantics) {
  shard_router r(router_cfg(1));
  const auto h = r.submit_write(process_id{0}, 7, value_of_u32(42), 0);
  ASSERT_TRUE(r.run_until_idle());
  const auto& res = r.result(h);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.entries.at(0).reg, 7u);
  EXPECT_EQ(value_as_u32(res.entries.at(0).val), 42u);
  EXPECT_GT(res.completed_at, res.invoked_at);
}

TEST(ShardRouter, CrossShardBatchSplitsAndMergesInOriginalOrder) {
  shard_router r(router_cfg(4));
  // A batch spanning many registers necessarily touches several shards.
  std::vector<proto::write_op> ops;
  std::vector<register_id> regs;
  for (register_id reg = 0; reg < 12; ++reg) {
    ops.push_back({reg, value_of_u32(1000 + reg)});
    regs.push_back(reg);
  }
  std::set<std::uint32_t> shards_touched;
  for (const auto& o : ops) shards_touched.insert(r.shard_of(o.reg));
  ASSERT_GT(shards_touched.size(), 1u);

  const auto wh = r.submit_write_batch(process_id{0}, ops, 0);
  ASSERT_TRUE(r.run_until_idle());
  const auto& wres = r.result(wh);
  ASSERT_TRUE(wres.completed);
  ASSERT_EQ(wres.entries.size(), ops.size());
  // Results come back in the caller's original key order regardless of how
  // the split grouped them by shard.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(wres.entries[i].reg, ops[i].reg);
    EXPECT_EQ(wres.entries[i].val, ops[i].val);
  }

  const auto rh = r.submit_read_batch(process_id{1}, regs, r.now());
  ASSERT_TRUE(r.run_until_idle());
  const auto& rres = r.result(rh);
  ASSERT_TRUE(rres.completed);
  ASSERT_EQ(rres.entries.size(), regs.size());
  for (std::size_t i = 0; i < regs.size(); ++i) {
    EXPECT_EQ(rres.entries[i].reg, regs[i]);
    EXPECT_EQ(rres.entries[i].val, ops[i].val) << "register " << regs[i];
  }

  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------- Mutation negatives ----------
//
// The scenario fuzzer trusts check_atomicity_per_key to reject bad merged
// multi-shard histories; these tests plant the two classic migration bugs by
// mutating a *real* clean history and assert the checker flags the right key.

TEST(ShardRouter, CheckerRejectsCrossShardValueSwap) {
  shard_router r(router_cfg(2));
  register_id reg_a = 0, reg_b = 0;
  for (register_id reg = 1; reg < 1000; ++reg) {
    if (r.shard_of(reg) != r.shard_of(reg_a)) {
      reg_b = reg;
      break;
    }
  }
  ASSERT_NE(r.shard_of(reg_a), r.shard_of(reg_b));
  r.write(process_id{0}, reg_a, value_of_u32(101));
  r.write(process_id{0}, reg_b, value_of_u32(202));
  EXPECT_EQ(value_as_u32(r.read(process_id{1}, reg_a)), 101u);
  EXPECT_EQ(value_as_u32(r.read(process_id{1}, reg_b)), 202u);
  history::history_log h = r.events();
  ASSERT_TRUE(history::check_persistent_atomicity_per_key(h).ok);

  // Swap the two reads' returned values across the shard boundary — as if a
  // handoff had imported the wrong register's state. Each read now returns
  // a value never written to its key.
  history::event* read_a = nullptr;
  history::event* read_b = nullptr;
  for (history::event& e : h) {
    if (e.kind != history::event_kind::reply_read) continue;
    if (e.reg == reg_a) read_a = &e;
    if (e.reg == reg_b) read_b = &e;
  }
  ASSERT_NE(read_a, nullptr);
  ASSERT_NE(read_b, nullptr);
  std::swap(read_a->v, read_b->v);

  const auto verdict = history::check_persistent_atomicity_per_key(h);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.failing_key == reg_a || verdict.failing_key == reg_b)
      << "failing key " << verdict.failing_key;
  EXPECT_FALSE(verdict.explanation.empty());
}

TEST(ShardRouter, CheckerRejectsDroppedWriteBack) {
  shard_router r(router_cfg(2));
  const register_id reg = 5;
  r.write(process_id{0}, reg, value_of_u32(7));
  r.write(process_id{1}, reg, value_of_u32(8));
  EXPECT_EQ(value_as_u32(r.read(process_id{2}, reg)), 8u);
  history::history_log h = r.events();
  ASSERT_TRUE(history::check_persistent_atomicity_per_key(h).ok);

  // Rewind the final read to the overwritten value — the footprint of a
  // migration window that lost a cross-shard write-back: the destination
  // shard still serves the pre-window state.
  history::event* final_read = nullptr;
  for (history::event& e : h) {
    if (e.kind == history::event_kind::reply_read && e.reg == reg) final_read = &e;
  }
  ASSERT_NE(final_read, nullptr);
  final_read->v = value_of_u32(7);

  const auto verdict = history::check_persistent_atomicity_per_key(h);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.failing_key, reg);
  EXPECT_FALSE(verdict.explanation.empty());
}

TEST(ShardRouter, MergedHistoryUsesDisjointGlobalProcessIds) {
  shard_router r(router_cfg(3));
  // Crash local process 0 in shards 0 and 1: the merged history must show
  // them as two different global processes, or one shard's crash would cut
  // short the other's pending operations in every projection.
  r.submit_crash(0, process_id{0}, 1_ms);
  r.submit_crash(1, process_id{0}, 1_ms);
  r.submit_recover(0, process_id{0}, 5_ms);
  r.submit_recover(1, process_id{0}, 5_ms);
  ASSERT_TRUE(r.run_until_idle());
  std::set<std::uint32_t> crashed;
  for (const auto& e : r.events()) {
    if (e.kind == history::event_kind::crash) crashed.insert(e.p.index);
  }
  EXPECT_EQ(crashed, (std::set<std::uint32_t>{
                         r.global_process(0, process_id{0}).index,
                         r.global_process(1, process_id{0}).index}));
}

TEST(ShardRouter, DroppedSubOpDoesNotFreezeAnInFlightSubBatch) {
  shard_router r(router_cfg(2));
  // Two registers on different shards.
  register_id reg_a = 0;
  register_id reg_b = 0;
  for (register_id reg = 1; reg < 1000; ++reg) {
    if (r.shard_of(reg) != r.shard_of(reg_a)) {
      reg_b = reg;
      break;
    }
  }
  ASSERT_NE(r.shard_of(reg_a), r.shard_of(reg_b));

  // Queue the batch's reg_a half behind a filler write on reg_a's shard,
  // then crash that client (no recovery): the queued half is dropped with
  // it, while reg_b's shard serves its half of the batch normally.
  r.submit_write(process_id{0}, reg_a, value_of_u32(9), 0);
  const auto h = r.submit_write_batch(
      process_id{0}, {{reg_a, value_of_u32(1)}, {reg_b, value_of_u32(2)}}, 0);
  r.submit_crash(r.shard_of(reg_a), process_id{0}, 10_us);

  // Observe the merged result while reg_b's sub-batch is still in flight:
  // the dropped half must not freeze the merge.
  r.run_for(50_us);
  {
    const auto& mid = r.result(h);
    EXPECT_TRUE(mid.dropped);
    EXPECT_FALSE(mid.completed);
  }
  ASSERT_TRUE(r.run_until_idle());
  const auto& res = r.result(h);
  EXPECT_TRUE(res.dropped);
  EXPECT_FALSE(res.completed);  // one half never ran
  ASSERT_EQ(res.entries.size(), 2u);
  // reg_b's completed half must be visible despite the earlier peek.
  EXPECT_EQ(res.entries[1].reg, reg_b);
  EXPECT_EQ(res.entries[1].val, value_of_u32(2));
  EXPECT_GT(res.completed_at, 0);
}

// ---------- Merged multi-shard histories under faults ----------

TEST(ShardRouter, AtomicPerKeyWithConcurrentCrashesInTwoShards) {
  shard_router r(router_cfg(3, /*n=*/3, /*seed=*/7));

  // A keyed workload spread over every shard.
  sim::kv_workload_config wc;
  wc.n = 3;
  wc.key_count = 48;
  wc.ops = 300;
  wc.read_fraction = 0.5;
  wc.seed = 7;
  const auto handles = sim::submit_workload(r, wc);

  // Concurrent faults in two shards at once (a majority stays up in each):
  // shard 0 loses process 1, shard 1 loses process 2, overlapping windows.
  r.submit_crash(0, process_id{1}, 2_ms);
  r.submit_recover(0, process_id{1}, 9_ms);
  r.submit_crash(1, process_id{2}, 3_ms);
  r.submit_recover(1, process_id{2}, 8_ms);

  ASSERT_TRUE(r.run_until_idle(200'000'000));

  std::uint64_t completed = 0;
  for (const auto h : handles) completed += r.result(h).completed ? 1 : 0;
  EXPECT_GT(completed, handles.size() / 2);

  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_GT(verdict.keys_checked, 1u);

  const auto tags = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(tags.ok) << tags.explanation;
}

TEST(ShardRouter, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    shard_router r(router_cfg(2, 3, seed));
    sim::kv_workload_config wc;
    wc.n = 3;
    wc.key_count = 16;
    wc.ops = 120;
    wc.seed = seed;
    sim::submit_workload(r, wc);
    EXPECT_TRUE(r.run_until_idle());
    return r.events();
  };
  const auto a = run(21);
  const auto b = run(21);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].p, b[i].p);
    EXPECT_EQ(a[i].reg, b[i].reg);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].v, b[i].v);
  }
}

// ---------- Capacity ----------

TEST(ShardRouter, CapacityRisesWithShardCountAndMergedHistoriesStayAtomic) {
  // 600 open-loop keyed ops over 256 keys on the paper's testbed, arriving
  // faster than one quorum group absorbs (100 us mean gap per client).
  // Capacity is completed keyed ops per virtual second of makespan, a pure
  // function of the config. Every merged history must stay atomic and
  // tag-ordered per key, and uniform capacity must rise strictly from 1 to
  // 2 to 4 shards (3,792 < 6,766 < 11,560 measured).
  struct shape {
    std::uint32_t shards;
    double theta;
    std::uint32_t batch;
    bool shard_local_batches;
  };
  const shape shapes[] = {
      {1, 0.0, 1, false},  {2, 0.0, 1, false},  {4, 0.0, 1, false},  {8, 0.0, 1, false},
      {1, 0.99, 1, false}, {2, 0.99, 1, false}, {4, 0.99, 1, false}, {8, 0.99, 1, false},
      {4, 0.0, 4, false},  // 4-key batches split across shards
      {4, 0.0, 4, true},   // and kept shard-local
  };
  std::map<std::uint32_t, double> uniform;  // shards -> keyed ops per virtual s
  for (const shape& s : shapes) {
    SCOPED_TRACE("s" + std::to_string(s.shards) + " theta " + std::to_string(s.theta) +
                 " b" + std::to_string(s.batch) + (s.shard_local_batches ? " local" : ""));
    shard_router_config cfg;
    cfg.shards = s.shards;
    cfg.base = bench::paper_testbed(proto::persistent_policy(), 3);
    shard_router r(cfg);
    sim::kv_workload_config wc;
    wc.key_count = 256;
    wc.zipf_theta = s.theta;
    wc.batch_size = s.batch;
    wc.ops = 600;
    wc.mean_gap = 100_us;
    if (s.shard_local_batches) {
      wc.shard_map = [&r](register_id reg) { return r.shard_of(reg); };
      wc.shard_local_batches = true;
    }
    std::uint64_t keyed_ops = 0;
    time_ns last_reply = 0;
    for (const auto h : sim::run_workload(r, wc)) {
      const auto& res = r.result(h);
      keyed_ops += res.entries.size();
      last_reply = std::max(last_reply, res.completed_at);
    }
    const auto verdict = history::check_persistent_atomicity_per_key(r.events());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    const auto tags = history::check_tag_order_per_key(r.tagged_operations());
    EXPECT_TRUE(tags.ok) << tags.explanation;
    if (s.theta == 0.0 && s.batch == 1) {
      uniform[s.shards] =
          1e9 * static_cast<double>(keyed_ops) / static_cast<double>(last_reply);
    }
  }
  EXPECT_LT(uniform[1], uniform[2]);
  EXPECT_LT(uniform[2], uniform[4]);
}

// ---------- Shard-aware workload generation ----------

TEST(KvWorkload, ShardLocalBatchesNeverSpanShards) {
  const hash_ring ring(4, 64);
  sim::kv_workload_config wc;
  wc.n = 3;
  wc.key_count = 256;
  wc.batch_size = 8;
  wc.ops = 200;
  wc.shard_map = [&ring](register_id reg) { return ring.shard_of(reg); };
  wc.shard_local_batches = true;
  const auto ops = sim::make_kv_workload(wc);
  ASSERT_EQ(ops.size(), 200u);
  for (const auto& op : ops) {
    ASSERT_FALSE(op.entries.empty());
    const std::uint32_t home = ring.shard_of(op.entries[0].reg);
    for (const auto& e : op.entries) {
      EXPECT_EQ(ring.shard_of(e.reg), home) << "batch spans shards";
    }
  }
}

// ---------- Live rebalancing (migration window) ----------

/// Registers of `r` that the epoch+1 grow would move (computed on rings
/// only, so callable before begin_add_shard()).
std::vector<register_id> moved_keys_on_grow(const shard_router& r,
                                            register_id key_count) {
  const hash_ring after = r.ring().grow(r.shard_count());
  const auto d = hash_ring::diff(r.ring(), after);
  std::vector<register_id> moved;
  for (register_id reg = 0; reg < key_count; ++reg) {
    if (d.moved(reg)) moved.push_back(reg);
  }
  return moved;
}

TEST(ShardRouterMigration, GrowPreservesEveryValueAcrossTheEpochChange) {
  shard_router r(router_cfg(2));
  const register_id keys = 32;
  for (register_id reg = 0; reg < keys; ++reg) {
    r.write(process_id{0}, reg, value_of_u32(1000 + reg));
  }
  const auto moved = moved_keys_on_grow(r, keys);
  ASSERT_FALSE(moved.empty());

  const std::uint32_t added = r.begin_add_shard();
  EXPECT_EQ(added, 2u);
  EXPECT_TRUE(r.migration_active());
  EXPECT_EQ(r.ring().epoch(), 1u);
  EXPECT_GE(r.moved_key_count(), moved.size());

  // Reads during the window still see everything (moved keys answer from
  // their old shard until handoff).
  for (register_id reg = 0; reg < keys; ++reg) {
    EXPECT_EQ(value_as_u32(r.read(process_id{1}, reg)), 1000 + reg) << "reg " << reg;
  }

  // Drain the worklist through the scheduling loop, then retire the ring.
  ASSERT_TRUE(r.run_until_idle());
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();
  EXPECT_FALSE(r.migration_active());
  EXPECT_EQ(r.migrated_key_count(), r.moved_key_count());

  // Post-finish: moved keys route to the new shard and still hold their
  // values; the source groups no longer carry their state.
  for (const register_id reg : moved) {
    EXPECT_EQ(r.shard_of(reg), added);
    EXPECT_EQ(value_as_u32(r.read(process_id{2}, reg)), 1000 + reg);
    for (std::uint32_t s = 0; s < added; ++s) {
      EXPECT_FALSE(r.shard(s).export_register(reg).has_state)
          << "stale state for reg " << reg << " on source shard " << s;
    }
  }
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  const auto tags = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(tags.ok) << tags.explanation;
}

TEST(ShardRouterMigration, WriteDuringWindowHandsTheKeyOffWithDominatingTag) {
  shard_router r(router_cfg(2));
  const auto moved = moved_keys_on_grow(r, 64);
  ASSERT_FALSE(moved.empty());
  const register_id hot = moved.front();
  for (int i = 0; i < 3; ++i) {
    r.write(process_id{0}, hot, value_of_u32(10 + i));  // old-shard tag grows
  }
  const std::uint32_t added = r.begin_add_shard();

  // First touched write migrates the key: export/import/evict, then the
  // write runs on the new shard with a strictly larger tag.
  r.write(process_id{1}, hot, value_of_u32(99));
  EXPECT_EQ(r.shard_of(hot), added);
  bool handed_off = false;
  for (const auto& ev : r.migration_log()) {
    if (ev.reg == hot &&
        ev.why == shard_router::migration_event::cause::write_handoff) {
      handed_off = true;
      EXPECT_EQ(ev.to_shard, added);
    }
  }
  EXPECT_TRUE(handed_off);
  EXPECT_EQ(value_as_u32(r.read(process_id{2}, hot)), 99u);

  ASSERT_TRUE(r.run_until_idle());
  r.finish_add_shard();
  const auto tags = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(tags.ok) << tags.explanation;
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(ShardRouterMigration, WindowReadAnchorsStateAtTheDestination) {
  using fault = shard_router_config::injected_fault;
  for (const fault f : {fault::none, fault::skip_read_writeback}) {
    SCOPED_TRACE(f == fault::none ? "write-back on" : "write-back skipped");
    shard_router_config cfg = router_cfg(2);
    cfg.test_fault = f;
    shard_router r(cfg);
    const auto moved = moved_keys_on_grow(r, 64);
    ASSERT_FALSE(moved.empty());
    const register_id reg = moved.front();
    r.write(process_id{0}, reg, value_of_u32(7));
    const std::uint32_t added = r.begin_add_shard();
    // A later read keeps the old shard busy with the key, so the drain
    // cannot hand it off while the synchronous read below runs: whatever
    // state the destination holds afterwards came from that read.
    r.submit_read(process_id{2}, reg, r.now() + 10_ms);

    // A window read serves from the old shard, then writes the result back
    // onto the new shard before returning (cross-shard two-phase read),
    // through the same write-back as an asynchronous read. The key itself
    // is NOT handed off by a read.
    EXPECT_EQ(value_as_u32(r.read(process_id{1}, reg)), 7u);
    std::size_t writebacks = 0;
    for (const auto& m : r.migration_log()) {
      if (m.reg == reg) {
        EXPECT_EQ(m.why, shard_router::migration_event::cause::read_writeback);
        writebacks += 1;
      }
    }
    const auto snap = r.shard(added).export_register(reg);
    if (f == fault::none) {
      EXPECT_EQ(writebacks, 1u);
      EXPECT_TRUE(snap.has_state);
      EXPECT_EQ(value_as_u32(snap.written_val), 7u);
    } else {
      EXPECT_EQ(writebacks, 0u);
      EXPECT_FALSE(snap.has_state);  // the planted bug reaches synchronous reads
    }

    ASSERT_TRUE(r.run_until_idle());
    r.finish_add_shard();
    EXPECT_EQ(value_as_u32(r.read(process_id{2}, reg)), 7u);
  }
}

TEST(ShardRouterMigration, RepeatedKeyBatchIsRefusedBeforeAnyKeyIsRouted) {
  // A cross-shard batch naming a register twice is refused whole: no sub-op
  // reaches any shard, and no key is routed — routing a window write's
  // moved key would hand it off.
  shard_router r(router_cfg(2));
  const auto moved = moved_keys_on_grow(r, 64);
  ASSERT_FALSE(moved.empty());
  const register_id hot = moved.front();
  register_id other = 0;
  while (r.shard_of(other) == r.shard_of(hot)) ++other;
  r.begin_add_shard();

  EXPECT_THROW(r.submit_write_batch(process_id{0},
                                    {{hot, value_of_u32(1)},
                                     {other, value_of_u32(2)},
                                     {hot, value_of_u32(3)}},
                                    r.now()),
               driver_error);
  EXPECT_THROW(r.submit_read_batch(process_id{1}, {other, hot, other}, r.now()),
               driver_error);
  EXPECT_TRUE(r.migration_log().empty());
  EXPECT_EQ(r.migrated_key_count(), 0u);
  EXPECT_EQ(r.events_pending(), 0u);
  EXPECT_THROW((void)r.result(0), driver_error);
  for (std::uint32_t s = 0; s < r.shard_count(); ++s) {
    EXPECT_THROW((void)r.shard(s).result(0), driver_error) << "shard " << s;
  }

  // The router keeps serving: the same keys, once each, hand `hot` off.
  const auto h = r.submit_write_batch(
      process_id{0}, {{hot, value_of_u32(4)}, {other, value_of_u32(5)}}, r.now());
  ASSERT_TRUE(r.run_until_idle());
  EXPECT_TRUE(r.result(h).completed);
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();
  EXPECT_EQ(value_as_u32(r.read(process_id{2}, hot)), 4u);
}

TEST(ShardRouterMigration, AsyncWindowReadCompletesOnlyAfterWriteback) {
  shard_router r(router_cfg(2));
  const auto moved = moved_keys_on_grow(r, 64);
  ASSERT_FALSE(moved.empty());
  const register_id reg = moved.front();
  r.write(process_id{0}, reg, value_of_u32(5));
  r.begin_add_shard();

  const auto h = r.submit_read(process_id{1}, reg, r.now());
  ASSERT_TRUE(r.run_until_idle());
  const auto& res = r.result(h);
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(value_as_u32(res.entries.at(0).val), 5u);
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();
}

TEST(ShardRouterMigration, OpenWorkloadAcrossWindowLosesNothing) {
  // Three phases of open-loop keyed ops: at 2 shards, riding the window
  // that grows the ring to 3, and at 3 shards. The window must drain, no op
  // may fail, and the merged two-epoch history must stay atomic and
  // tag-ordered per key. Two loads: a light one whose first phase is still
  // in flight when the window opens, and one on the paper's testbed that
  // arrives faster than the shards absorb (100 us mean gap per client),
  // each phase run to idle, where completed ops per virtual second after
  // the grow must be at least the figure before it (10,063 against 6,766
  // measured).
  struct load {
    const char* name;
    cluster_config base;
    std::uint32_t keys;
    std::uint32_t ops;
    time_ns mean_gap;
    bool window_opens_mid_phase;
  };
  const load loads[] = {
      {"light, window opens mid-phase", router_cfg(2, 3, /*seed=*/5).base, 96, 150, 200_us,
       true},
      {"saturating, paper testbed", bench::paper_testbed(proto::persistent_policy(), 3), 256,
       600, 100_us, false},
  };
  for (const load& l : loads) {
    SCOPED_TRACE(l.name);
    shard_router_config cfg;
    cfg.shards = 2;
    cfg.base = l.base;
    shard_router r(cfg);
    sim::kv_workload_config wc;
    wc.key_count = l.keys;
    wc.ops = l.ops;
    wc.mean_gap = l.mean_gap;
    wc.seed = cfg.base.seed;

    // Completed ops per virtual second, from a phase's first invocation to
    // its last reply.
    const auto capacity = [&r](const std::vector<shard_router::op_handle>& handles) {
      time_ns first_invoke = std::numeric_limits<time_ns>::max();
      time_ns last_reply = 0;
      for (const auto h : handles) {
        first_invoke = std::min(first_invoke, r.result(h).invoked_at);
        last_reply = std::max(last_reply, r.result(h).completed_at);
      }
      return 1e9 * static_cast<double>(handles.size()) /
             static_cast<double>(last_reply - first_invoke);
    };
    // The k-th later phase starts now, with a fresh seed and write values
    // past any earlier phase's (the checkers reject duplicates).
    const auto later_phase = [&r, &wc, &cfg](std::uint64_t k) {
      wc.start_at = r.now();
      wc.value_base = k * 1'000'000;
      wc.seed = cfg.base.seed + k;
    };

    const auto first = sim::submit_workload(r, wc);
    if (l.window_opens_mid_phase) {
      r.run_for(5_ms);  // the first phase partly executed, ops still in flight
    } else {
      EXPECT_TRUE(r.run_until_idle(200'000'000));
    }
    r.begin_add_shard();
    later_phase(1);
    sim::run_workload(r, wc);  // rides the window
    ASSERT_TRUE(r.migration_drained());
    r.finish_add_shard();
    later_phase(2);
    const auto last = sim::run_workload(r, wc);

    for (const auto h : first) {
      EXPECT_TRUE(r.result(h).completed && !r.result(h).dropped) << "first-phase op " << h;
    }
    const auto verdict = history::check_persistent_atomicity_per_key(r.events());
    EXPECT_TRUE(verdict.ok) << verdict.explanation;
    EXPECT_GT(verdict.keys_checked, 10u);
    const auto tags = history::check_tag_order_per_key(r.tagged_operations());
    EXPECT_TRUE(tags.ok) << tags.explanation;
    if (!l.window_opens_mid_phase) {
      EXPECT_GE(capacity(last), capacity(first));
    }
  }
}

TEST(ShardRouterMigration, SameSeedYieldsIdenticalScheduleAndHistory) {
  // Satellite determinism pin: the migration schedule (which key moved,
  // whence, whither, when, why) and the merged two-epoch history are pure
  // functions of (config, workload, reconfiguration calls).
  auto run = [](std::uint64_t seed) {
    shard_router r(router_cfg(2, 3, seed));
    sim::kv_workload_config wc;
    wc.n = 3;
    wc.key_count = 48;
    wc.ops = 120;
    wc.seed = seed;
    sim::submit_workload(r, wc);
    r.run_for(3_ms);
    r.begin_add_shard();
    EXPECT_TRUE(r.run_until_idle());
    r.finish_add_shard();
    return std::pair{r.migration_log(), r.events()};
  };
  const auto a = run(33);
  const auto b = run(33);
  ASSERT_EQ(a.first.size(), b.first.size());
  for (std::size_t i = 0; i < a.first.size(); ++i) {
    EXPECT_EQ(a.first[i].reg, b.first[i].reg);
    EXPECT_EQ(a.first[i].from_shard, b.first[i].from_shard);
    EXPECT_EQ(a.first[i].to_shard, b.first[i].to_shard);
    EXPECT_EQ(a.first[i].at, b.first[i].at);
    EXPECT_EQ(a.first[i].why, b.first[i].why);
  }
  ASSERT_EQ(a.second.size(), b.second.size());
  for (std::size_t i = 0; i < a.second.size(); ++i) {
    EXPECT_EQ(a.second[i].kind, b.second[i].kind);
    EXPECT_EQ(a.second[i].p, b.second[i].p);
    EXPECT_EQ(a.second[i].reg, b.second[i].reg);
    EXPECT_EQ(a.second[i].at, b.second[i].at);
    EXPECT_EQ(a.second[i].v, b.second[i].v);
  }
}

TEST(ShardRouterMigration, CrashStopPolicyCannotRebalance) {
  // Handoff moves state through stable storage; crash-stop has none, so a
  // completed write whose adopters all crash-stop would export as stale and
  // the new shard would serve a rollback. The router refuses up front.
  shard_router_config cfg = router_cfg(2);
  cfg.base.policy = proto::crash_stop_policy();
  shard_router r(cfg);
  EXPECT_THROW(r.begin_add_shard(), driver_error);
}

TEST(ShardRouterMigration, WindowLifecycleGuards) {
  shard_router r(router_cfg(2));
  r.write(process_id{0}, 3, value_of_u32(1));
  EXPECT_THROW(r.finish_add_shard(), driver_error);  // no window open
  r.begin_add_shard();
  EXPECT_THROW(r.begin_add_shard(), driver_error);  // window already open
  if (!r.migration_drained()) {
    EXPECT_THROW(r.finish_add_shard(), driver_error);  // not drained yet
  }
  ASSERT_TRUE(r.run_until_idle());
  r.finish_add_shard();
  // A second grow works from the new topology (2 epochs recorded).
  r.begin_add_shard();
  ASSERT_TRUE(r.run_until_idle());
  r.finish_add_shard();
  EXPECT_EQ(r.shard_count(), 4u);
  EXPECT_EQ(r.ring().epoch(), 2u);
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

}  // namespace
}  // namespace remus::core
