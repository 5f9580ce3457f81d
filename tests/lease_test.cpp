// Read-lease tests: the hot-key fast path (leased reads answer locally with
// zero wire traffic), write invalidation, clock expiry, crash-recovery
// revocation on both sides of a grant, lease drops at migration handoff,
// schedule determinism with leases on, and a negative history check — a
// stale leased read is exactly the bug the keyed checker must name.
#include <gtest/gtest.h>

#include <cstdint>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/scenario_runner.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "open_loop.h"
#include "proto/policy.h"
#include "sim/kv_workload.h"
#include "sim/scenario.h"

namespace remus::core {
namespace {

cluster_config leased_config(std::uint32_t threshold, time_ns duration,
                             std::uint32_t n = 3, std::uint64_t seed = 1) {
  cluster_config cfg;
  cfg.n = n;
  cfg.policy = proto::persistent_policy();
  cfg.policy.read_leases = true;
  cfg.policy.lease_hot_read_threshold = threshold;
  cfg.policy.lease_duration = duration;
  cfg.seed = seed;
  return cfg;
}

struct lease_counters {
  std::uint64_t hits = 0, misses = 0, grants = 0, invalidations = 0, expiries = 0;
};

lease_counters count_leases(cluster& c) {
  lease_counters t;
  for (std::uint32_t p = 0; p < c.size(); ++p) {
    const auto& b = c.core_of(process_id{p}).branches();
    t.hits += b.leased_read_hits;
    t.misses += b.leased_read_misses;
    t.grants += b.lease_grants;
    t.invalidations += b.lease_invalidations;
    t.expiries += b.lease_expiries;
  }
  return t;
}

// ---------- The fast path ----------

TEST(Lease, HotReadIsServedLocallyWithZeroWireBytes) {
  cluster c(leased_config(/*threshold=*/0, /*duration=*/2'000'000'000));
  c.write(process_id{0}, value_of_u32(7));
  // First read pays the grant round; once the holding is active, reads are
  // local: no messages, no wire bytes, same value.
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 7u);
  ASSERT_GE(count_leases(c).grants, 1u);
  const std::uint64_t wire_before = c.network().bytes_sent();
  const std::uint64_t hits_before = count_leases(c).hits;
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 7u);
  EXPECT_EQ(c.network().bytes_sent(), wire_before)
      << "a leased read must not touch the network";
  EXPECT_EQ(count_leases(c).hits, hits_before + 1);
}

TEST(Lease, HotKeyWorkloadSendsFewerReadBytesAndRunsFewerEventsPerOp) {
  // 4,000 open-loop ops, 99% reads, Zipf 0.99 over 1,024 keys, on the
  // paper's testbed with leases off and on. With leases, the first miss on
  // a key grants (threshold 0) and no lease expires mid-run (2 s), so the
  // hot keys' reads go local: the leased run must put under 0.6 of the
  // unleased run's read bytes on the wire (0.33 measured) and take at most
  // 1/1.5 of its simulator events per keyed op (0.56 of them measured).
  // Both histories must be atomic per key.
  struct cost {
    double read_bytes = 0;
    double events_per_op = 0;
  };
  const auto run = [](bool leases) {
    cluster_config cfg = bench::paper_testbed(proto::persistent_policy(), 3);
    if (leases) {
      cfg.policy.read_leases = true;
      cfg.policy.lease_hot_read_threshold = 0;
      cfg.policy.lease_duration = 2'000'000'000;
    }
    cluster c(cfg);
    sim::kv_workload_config wc;
    wc.key_count = 1024;
    wc.zipf_theta = 0.99;
    wc.read_fraction = 0.99;
    wc.ops = 4000;
    const auto handles = sim::run_workload(c, wc);
    const auto verdict = history::check_persistent_atomicity_per_key(c.events());
    EXPECT_TRUE(verdict.ok) << "leases " << leases << ": " << verdict.explanation;
    const double ops = static_cast<double>(handles.size());
    return cost{c.collect().read_net_bytes().total(),
                static_cast<double>(c.events_executed()) / ops};
  };
  const cost off = run(false);
  const cost on = run(true);
  ASSERT_GT(off.read_bytes, 0.0);
  EXPECT_LT(on.read_bytes / off.read_bytes, 0.6);
  EXPECT_LE(on.events_per_op * 1.5, off.events_per_op)
      << on.events_per_op << " events per op leased, " << off.events_per_op << " unleased";
}

TEST(Lease, ColdKeysStayBelowTheThreshold) {
  cluster c(leased_config(/*threshold=*/2, /*duration=*/2'000'000'000));
  c.write(process_id{0}, value_of_u32(1));
  // heat must exceed the threshold before a grant round is attempted: two
  // reads warm the key, the third runs the grant.
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  EXPECT_EQ(count_leases(c).grants, 0u);
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  EXPECT_GE(count_leases(c).grants, 1u);
}

// ---------- Revocation: writes, the clock, crashes ----------

TEST(Lease, WriteInvalidatesHoldingsAndReadersSeeTheNewValue) {
  cluster c(leased_config(0, 2'000'000'000));
  c.write(process_id{0}, value_of_u32(1));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);  // leased hit
  ASSERT_GE(count_leases(c).hits, 1u);

  c.write(process_id{2}, value_of_u32(2));
  EXPECT_GE(count_leases(c).invalidations, 1u)
      << "the update round must cancel the holding";
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 2u)
      << "post-write read served a stale leased value";
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Lease, ExpiryStopsLocalServingAndUnblocksNothing) {
  cluster c(leased_config(0, /*duration=*/10'000'000));  // 10ms virtual
  c.write(process_id{0}, value_of_u32(1));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);  // grant
  c.run_for(50'000'000);                               // clocks fire
  EXPECT_GE(count_leases(c).expiries, 1u);
  const std::uint64_t hits_before = count_leases(c).hits;
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  EXPECT_EQ(count_leases(c).hits, hits_before)
      << "an expired holding must not serve reads";
  // Writes proceed normally once every record aged out.
  c.write(process_id{2}, value_of_u32(2));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 2u);
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Lease, HolderCrashRecoveryDropsTheHolding) {
  cluster c(leased_config(0, /*duration=*/50'000'000));
  c.write(process_id{0}, value_of_u32(1));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);  // p1 holds a lease
  c.submit_crash(process_id{1}, c.now() + 1'000'000);
  c.submit_recover(process_id{1}, c.now() + 5'000'000);
  ASSERT_TRUE(c.run_until_idle());
  // The holding was volatile: the recovered holder pays the quorum round
  // (or a fresh grant) instead of answering from pre-crash state.
  const std::uint64_t hits_before = count_leases(c).hits;
  c.write(process_id{2}, value_of_u32(2));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 2u)
      << "recovered holder served a stale pre-crash value";
  EXPECT_GE(count_leases(c).hits, hits_before);
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(Lease, GrantorCrashRecoveryRestoresTheRecordDurably) {
  // The other direction: a *grantor* crashes after durably noting the grant.
  // Recovery restores the record from the lease area of stable storage, so
  // a post-recovery write still honors the outstanding lease (it completes —
  // possibly after the lease ages out — and the history stays atomic).
  cluster c(leased_config(0, /*duration=*/20'000'000));
  c.write(process_id{0}, value_of_u32(1));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 1u);
  c.submit_crash(process_id{2}, c.now() + 500'000);  // a grantor, not the holder
  c.submit_recover(process_id{2}, c.now() + 3'000'000);
  ASSERT_TRUE(c.run_until_idle());
  c.write(process_id{0}, value_of_u32(2));
  EXPECT_EQ(value_as_u32(c.read(process_id{1})), 2u);
  EXPECT_EQ(value_as_u32(c.read(process_id{2})), 2u);
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------- Determinism ----------

TEST(Lease, SameSeedSameScheduleWithLeasesOn) {
  auto drive = [](cluster& c) {
    for (std::uint32_t i = 0; i < 40; ++i) {
      const process_id p{i % 3};
      const register_id reg = i % 4;
      const time_ns at = static_cast<time_ns>(i) * 700'000;
      if (i % 5 == 0) {
        c.submit_write(p, reg, value_of_u32(100 + i), at);
      } else {
        c.submit_read(p, reg, at);
      }
    }
    ASSERT_TRUE(c.run_until_idle());
  };
  cluster a(leased_config(1, 10'000'000, 3, /*seed=*/9));
  cluster b(leased_config(1, 10'000'000, 3, /*seed=*/9));
  drive(a);
  drive(b);
  EXPECT_EQ(a.events_executed(), b.events_executed());
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.events().size(), b.events().size());
  const auto ca = count_leases(a);
  const auto cb = count_leases(b);
  EXPECT_EQ(ca.hits, cb.hits);
  EXPECT_EQ(ca.grants, cb.grants);
  EXPECT_EQ(ca.expiries, cb.expiries);
}

// ---------- The negative history ----------

TEST(Lease, StaleLeasedReadIsFlaggedAndNamesTheKey) {
  // The exact shape a broken lease would produce: the write to key 7
  // completes (invalidation supposedly done), then a holder answers an older
  // value from its stale holding. The keyed checker must reject the history
  // and say which register broke.
  history::history_log h;
  const register_id bad = 7;
  auto push = [&h](history::event_kind k, std::uint32_t p, value v, register_id reg) {
    h.push_back({k, process_id{p}, std::move(v),
                 static_cast<time_ns>(h.size()) * 1000, reg});
  };
  using ek = history::event_kind;
  push(ek::invoke_write, 0, value_of_u32(1), bad);
  push(ek::reply_write, 0, {}, bad);
  push(ek::invoke_write, 0, value_of_u32(2), bad);
  push(ek::reply_write, 0, {}, bad);
  push(ek::invoke_read, 1, {}, bad);  // "leased" read after the write acked
  push(ek::reply_read, 1, value_of_u32(1), bad);
  // A healthy neighbor key: the verdict must blame register 7, not key 3.
  push(ek::invoke_write, 2, value_of_u32(9), 3);
  push(ek::reply_write, 2, {}, 3);
  push(ek::invoke_read, 2, {}, 3);
  push(ek::reply_read, 2, value_of_u32(9), 3);

  const auto verdict = history::check_persistent_atomicity_per_key(h);
  ASSERT_FALSE(verdict.ok) << "a stale leased read linearized";
  EXPECT_NE(verdict.explanation.find("register 7"), std::string::npos)
      << "violation must name the key: " << verdict.explanation;
}

// ---------- Migration ----------

TEST(Lease, MigrationDropsLeasesAtHandoff) {
  shard_router_config cfg;
  cfg.shards = 2;
  cfg.base.n = 3;
  cfg.base.policy = proto::persistent_policy();
  cfg.base.policy.read_leases = true;
  cfg.base.policy.lease_hot_read_threshold = 0;
  cfg.base.policy.lease_duration = 2'000'000'000;
  cfg.base.seed = 11;
  shard_router r(cfg);

  const register_id keys = 48;
  for (register_id reg = 0; reg < keys; ++reg) {
    r.write(process_id{0}, reg, value_of_u32(500 + reg));
  }
  // Heat every key so leases are live across both source shards.
  for (register_id reg = 0; reg < keys; ++reg) {
    EXPECT_EQ(value_as_u32(r.read(process_id{1}, reg)), 500 + reg);
  }

  const std::uint32_t added = r.begin_add_shard();
  ASSERT_TRUE(r.run_until_idle());
  ASSERT_TRUE(r.migration_drained());
  r.finish_add_shard();

  // Some keys moved to the new shard; each moved key that carried lease
  // state must log a lease_drop companion to its handoff entry.
  std::size_t moved = 0, lease_drops = 0;
  for (const auto& e : r.migration_log()) {
    if (e.why == shard_router::migration_event::cause::lease_drop) {
      ++lease_drops;
      EXPECT_EQ(r.shard_of(e.reg), added)
          << "lease_drop logged for a key that did not move";
    } else {
      ++moved;
    }
  }
  ASSERT_GT(moved, 0u);
  EXPECT_GT(lease_drops, 0u) << "handoff left leases standing on the source";

  // Post-handoff reads route to the new shard and see the values; the old
  // shards hold no exportable state (so no stale leased serve is possible).
  for (const auto& e : r.migration_log()) {
    if (e.why != shard_router::migration_event::cause::lease_drop) continue;
    EXPECT_EQ(value_as_u32(r.read(process_id{2}, e.reg)), 500 + e.reg);
    for (std::uint32_t s = 0; s < added; ++s) {
      EXPECT_FALSE(r.shard(s).export_register(e.reg).has_state)
          << "source shard " << s << " still owns reg " << e.reg;
    }
  }
  const auto verdict = history::check_persistent_atomicity_per_key(r.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  const auto tags = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(tags.ok) << tags.explanation;
}

TEST(Lease, MigrationChaosWithLeaseFaultFamilyStaysAtomic) {
  // Scenario-engine composition: a lease-family fault unit (which turns
  // leases on for the run) overlapping an open migration window plus a
  // crash. The run must stay atomic and the coverage must show live lease
  // traffic meeting the handoff.
  scenario_spec spec;
  spec.plan.shards = 2;
  spec.plan.n = 3;
  auto ev = [](time_ns at, sim::scenario_kind kind, sim::fault_family family,
               std::uint32_t unit, std::uint32_t shard, process_id target) {
    sim::scenario_event e;
    e.at = at;
    e.kind = kind;
    e.family = family;
    e.unit = unit;
    e.shard = shard;
    e.target = target;
    return e;
  };
  sim::scenario_event mig = ev(400'000, sim::scenario_kind::begin_migration,
                               sim::fault_family::migration, 0, 0, no_process);
  spec.plan.events.push_back(mig);
  spec.plan.events.push_back(ev(900'000, sim::scenario_kind::crash,
                                sim::fault_family::lease, 1, 0, process_id{1}));
  spec.plan.events.push_back(ev(2'600'000, sim::scenario_kind::recover,
                                sim::fault_family::lease, 1, 0, process_id{1}));
  spec.plan.sort();
  ASSERT_TRUE(spec.plan.well_formed());
  spec.key_count = 8;
  spec.ops = 120;
  spec.read_fraction = 0.8;
  spec.zipf_theta = 0.99;
  spec.workload_seed = 5;
  spec.cluster_seed = 7;

  const scenario_outcome out = run_scenario(spec);
  ASSERT_TRUE(out.ok()) << out.failure << "\nREPRO " << spec.encode();
  EXPECT_GT(out.coverage.lease_grants, 0u);
  EXPECT_GT(out.coverage.leased_read_hits, 0u);
  // The spec round-trips with the leases flag intact (11th codec field).
  const scenario_spec back = scenario_spec::decode(spec.encode());
  EXPECT_EQ(back, spec);
}

TEST(Lease, OpenLoopHotReadExecutionKeepsTagOrder) {
  // One open-loop hot-read execution submitted up front: 4 shards of 3
  // replicas on the map store, leases at their default threshold and
  // duration, 20k ops (99% reads, Zipf 0.99 over 4096 keys) from three
  // clients at a 1 ms mean gap, so about 7 s of schedule sits in the event
  // queue's overflow band. When an overflow event ran after a later ring
  // event, the simulator's clock stepped back and a leased read ran "before"
  // a write that had already completed: register 1 broke Lemma 1(i).
  shard_router_config cfg;
  cfg.shards = 4;
  cfg.base.n = 3;
  cfg.base.policy = proto::persistent_policy();
  cfg.base.policy.read_leases = true;
  cfg.base.seed = 48;
  cfg.base.net.base_delay = 115'000;  // the paper's LAN testbed (bench_util.h)
  cfg.base.net.jitter = 8'000;
  cfg.base.net.bandwidth_bps = 100'000'000 / 8;
  cfg.base.net.loopback_delay = 12'000;
  cfg.base.disk.base_latency = 200'000;
  cfg.base.disk.bandwidth_bps = 20'000'000;
  cfg.base.process_step_cost = 6'000;
  shard_router r(cfg);

  sim::kv_workload_config wl;
  wl.n = 3;
  wl.key_count = 4096;
  wl.zipf_theta = 0.99;
  wl.read_fraction = 0.99;
  wl.ops = 20'000;
  wl.mean_gap = 1'000'000;
  wl.seed = 48;
  for (const sim::kv_op& op : sim::make_kv_workload(wl)) {
    const sim::kv_op::entry& e = op.entries.front();
    if (op.is_read) {
      r.submit_read(op.p, e.reg, op.at);
    } else {
      r.submit_write(op.p, e.reg, e.val, op.at);
    }
  }
  ASSERT_TRUE(r.run_until_idle());
  EXPECT_GT(count_leases(r.shard(0)).hits, 0u);

  const auto tags = history::check_tag_order_per_key(r.tagged_operations());
  EXPECT_TRUE(tags.ok) << tags.explanation;
  history::history_log sample;
  for (const history::event& e : r.events()) {
    if (e.reg % 64 == 0 || e.reg < 8) sample.push_back(e);
  }
  const auto verdict = history::check_persistent_atomicity_per_key(sample);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_GT(verdict.keys_checked, 40u);
}

}  // namespace
}  // namespace remus::core
