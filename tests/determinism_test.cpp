// Determinism regression: a run is a pure function of (configuration, seed).
// Two clusters driven identically must produce bit-identical histories,
// tagged operations, metrics, and event counts — across fault-free and
// crash-heavy schedules. This pins the typed-event/calendar-queue rewrite to
// the exact semantics of the original closure-based simulator.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.h"
#include "core/shard_router.h"
#include "history/tag_order.h"
#include "proto/policy.h"
#include "sim/fault_plan.h"
#include "sim/kv_workload.h"

namespace remus::core {
namespace {

cluster_config make_cfg(std::uint64_t seed) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::persistent_policy();
  cfg.policy.retransmit_delay = 5_ms;
  cfg.seed = seed;
  cfg.net.jitter = 8_us;
  cfg.net.drop_probability = 0.05;
  cfg.net.duplicate_probability = 0.02;
  return cfg;
}

/// Mixed workload: writes and reads from every process, plus (optionally) a
/// randomized crash/recovery plan derived from the same seed.
void drive(cluster& c, std::uint64_t seed, bool faults) {
  rng r(seed ^ 0xfeedULL);
  std::uint32_t v = 1;
  for (time_ns t = 0; t < 200_ms; t += 2_ms) {
    for (std::uint32_t p = 0; p < c.size(); ++p) {
      const time_ns at = t + static_cast<time_ns>(r.next_below(1'500'000));
      if (r.chance(0.5)) {
        c.submit_write(process_id{p}, value_of_u32(v++), at);
      } else {
        c.submit_read(process_id{p}, at);
      }
    }
  }
  if (faults) {
    sim::random_plan_config pc;
    pc.n = c.size();
    pc.crashes = 6;
    pc.horizon = 150_ms;
    pc.min_down = 5_ms;
    pc.max_down = 30_ms;
    rng fr(seed ^ 0xfa117ULL);
    c.apply(sim::make_random_plan(pc, fr));
  }
  ASSERT_TRUE(c.run_until_idle());
}

void expect_identical(const cluster& a, const cluster& b) {
  EXPECT_EQ(a.events_executed(), b.events_executed());
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.recovery_stores(), b.recovery_stores());
  for (std::uint32_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a.durable_stores(process_id{p}), b.durable_stores(process_id{p}));
  }

  const auto ta = a.tagged_operations();
  const auto tb = b.tagged_operations();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].is_read, tb[i].is_read) << "op " << i;
    EXPECT_EQ(ta[i].p, tb[i].p) << "op " << i;
    EXPECT_EQ(ta[i].applied, tb[i].applied) << "op " << i;
    EXPECT_EQ(ta[i].val, tb[i].val) << "op " << i;
    EXPECT_EQ(ta[i].invoked_at, tb[i].invoked_at) << "op " << i;
    EXPECT_EQ(ta[i].replied_at, tb[i].replied_at) << "op " << i;
  }

  const auto ea = a.events();
  const auto eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
}

TEST(Determinism, SameSeedSameHistoryFaultFree) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    cluster a(make_cfg(seed));
    cluster b(make_cfg(seed));
    drive(a, seed, false);
    drive(b, seed, false);
    expect_identical(a, b);
    // The identical histories must also be correct ones.
    EXPECT_TRUE(history::check_tag_order(a.tagged_operations()).ok);
  }
}

TEST(Determinism, SameSeedSameHistoryCrashHeavy) {
  for (const std::uint64_t seed : {3ULL, 1234ULL}) {
    cluster a(make_cfg(seed));
    cluster b(make_cfg(seed));
    drive(a, seed, true);
    drive(b, seed, true);
    expect_identical(a, b);
    EXPECT_TRUE(history::check_tag_order(a.tagged_operations()).ok);
  }
}

void fnv_mix(std::uint64_t& h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((x >> (8 * i)) & 0xff)) * 1099511628211ULL;
  }
}

/// FNV-1a over every field of the history and of the tagged operations of
/// a cluster or a shard router.
template <class Run>
std::uint64_t run_digest(const Run& c) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) { fnv_mix(h, x); };
  const auto mix_value = [&mix](const value& v) {
    mix(v.data.size());
    for (const std::uint8_t b : v.data) mix(b);
  };
  const auto mix_tag = [&mix](const tag& t) {
    mix(static_cast<std::uint64_t>(t.sn));
    mix(static_cast<std::uint64_t>(t.rec));
    mix(t.writer.index);
  };
  for (const history::event& e : c.events()) {
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.p.index);
    mix_value(e.v);
    mix(static_cast<std::uint64_t>(e.at));
    mix(e.reg);
  }
  for (const history::tagged_op& op : c.tagged_operations()) {
    mix(op.is_read ? 1 : 0);
    mix(op.p.index);
    mix(op.reg);
    mix_tag(op.applied);
    mix_value(op.val);
    mix(static_cast<std::uint64_t>(op.invoked_at));
    mix(static_cast<std::uint64_t>(op.replied_at));
  }
  return h;
}

TEST(Determinism, SingleKeyRunsKeepTheirPinnedDigest) {
  // Pins the whole single-key execution, not only its reproducibility: any
  // change to a single-key message's bytes or to the order in which the
  // protocol reacts moves an event time and so this digest.
  struct pin {
    std::uint64_t seed;
    bool faults;
    std::uint64_t digest;
  };
  for (const pin& p : {pin{1, false, 0xaf8073c57f430e13ULL}, pin{3, true, 0xe102292f9b10239aULL}}) {
    cluster c(make_cfg(p.seed));
    drive(c, p.seed, p.faults);
    EXPECT_EQ(run_digest(c), p.digest) << "seed " << p.seed << " digest 0x" << std::hex
                                       << run_digest(c);
  }
}

/// Read leases with a short duration over a WAL-backed cluster: hot
/// single-key reads take grants and hits, the clock expires them, and
/// single-key and batched writes over several registers revoke them, while
/// corrupt-tail crashes tear in-flight WAL frames.
cluster_config make_leased_cfg(std::uint64_t seed) {
  cluster_config cfg = make_cfg(seed);
  cfg.wal_storage = true;
  cfg.policy.read_leases = true;
  cfg.policy.lease_duration = 3_ms;
  return cfg;
}

void drive_leased(cluster& c, std::uint64_t seed) {
  rng r(seed ^ 0x1ea5edULL);
  std::uint32_t v = 1;
  for (time_ns t = 0; t < 150_ms; t += 2_ms) {
    for (std::uint32_t p = 0; p < c.size(); ++p) {
      const time_ns at = t + static_cast<time_ns>(r.next_below(1'500'000));
      const auto reg = static_cast<register_id>(r.next_below(4));
      switch (r.next_below(8)) {
        case 0:
          c.submit_write(process_id{p}, reg, value_of_u32(v++), at);
          break;
        case 1: {
          std::vector<proto::write_op> ops;
          for (std::uint32_t k = 0; k < 3; ++k) {
            ops.push_back({reg + 4 * k, value_of_u32(v++)});
          }
          c.submit_write_batch(process_id{p}, ops, at);
          break;
        }
        case 2:
          c.submit_read_batch(process_id{p}, {reg, reg + 4, reg + 8}, at);
          break;
        default:
          c.submit_read(process_id{p}, reg, at);
          break;
      }
    }
  }
  sim::random_plan_config pc;
  pc.n = c.size();
  pc.crashes = 6;
  pc.horizon = 130_ms;
  pc.min_down = 5_ms;
  pc.max_down = 20_ms;
  rng fr(seed ^ 0xfa117ULL);
  for (const auto& e : sim::make_random_plan(pc, fr).events) {
    if (e.kind == sim::fault_kind::crash) {
      c.submit_crash(e.target, e.at, crash_style::corrupt_tail);
    } else {
      c.submit_recover(e.target, e.at);
    }
  }
  ASSERT_TRUE(c.run_until_idle());
}

TEST(Determinism, LeasedWalRunsKeepTheirPinnedDigest) {
  // Pins leases, batches and WAL crash recovery together: any change to
  // the order in which a driver executes a core's effects (stores, sends,
  // retransmission and lease deadlines) moves an event time and so this
  // digest.
  struct pin {
    std::uint64_t seed;
    std::uint64_t digest;
  };
  for (const pin& p : {pin{5, 0x3bf012e19f85ec42ULL}, pin{8, 0x0d4d0496e1bcbb82ULL}}) {
    cluster c(make_leased_cfg(p.seed));
    drive_leased(c, p.seed);
    std::uint64_t grants = 0, hits = 0, expiries = 0, recoveries = 0;
    for (std::uint32_t i = 0; i < c.size(); ++i) {
      const auto& b = c.core_of(process_id{i}).branches();
      grants += b.lease_grants;
      hits += b.leased_read_hits;
      expiries += b.lease_expiries;
      recoveries += b.recovery_finish_writes;
    }
    EXPECT_GT(grants, 0u) << "seed " << p.seed;
    EXPECT_GT(hits, 0u) << "seed " << p.seed;
    EXPECT_GT(expiries, 0u) << "seed " << p.seed;
    EXPECT_GT(recoveries, 0u) << "seed " << p.seed;
    EXPECT_EQ(run_digest(c), p.digest) << "seed " << p.seed << " digest 0x" << std::hex
                                       << run_digest(c);
  }
}

/// The pinned digest of growing_router_digest's run.
constexpr std::uint64_t growing_router_pin = 0xbd8499b824e03501ULL;

/// How a router run's workload reaches the router: the mix of entry points
/// a client would use, every single-key op as a one-key batch, or every op
/// through shard_router::submit. All three are one operation to the router.
enum class entry_points { mixed, batches_only, submit_only };

/// A 2-shard router grows to 3 mid-workload; the digest covers the merged
/// history, the tagged operations and the migration schedule.
std::uint64_t growing_router_digest(entry_points via) {
  shard_router_config cfg;
  cfg.shards = 2;
  cfg.base = make_cfg(17);
  cfg.base.n = 3;
  cfg.base.wal_storage = true;
  shard_router r(cfg);
  const auto submit = [&](const sim::kv_op& op) {
    if (via == entry_points::submit_only) {
      r.submit(op.p, op.is_read, sim::entries_of(op), op.at);
      return;
    }
    if (op.entries.size() == 1 && via == entry_points::mixed) {
      if (op.is_read) {
        r.submit_read(op.p, op.entries[0].reg, op.at);
      } else {
        r.submit_write(op.p, op.entries[0].reg, op.entries[0].val, op.at);
      }
      return;
    }
    std::vector<register_id> regs;
    std::vector<proto::write_op> ops;
    for (const auto& e : op.entries) {
      regs.push_back(e.reg);
      ops.push_back({e.reg, e.val});
    }
    if (op.is_read) {
      r.submit_read_batch(op.p, regs, op.at);
    } else {
      r.submit_write_batch(op.p, ops, op.at);
    }
  };
  sim::kv_workload_config wc;
  wc.n = 3;
  wc.key_count = 64;
  wc.ops = 300;
  wc.batch_size = 1;
  wc.seed = 17;
  for (const auto& op : sim::make_kv_workload(wc)) submit(op);
  wc.batch_size = 4;
  wc.ops = 60;
  wc.seed = 18;
  wc.value_base = 1'000'000;
  for (const auto& op : sim::make_kv_workload(wc)) submit(op);
  r.run_for(8_ms);
  r.begin_add_shard();
  EXPECT_TRUE(r.run_until_idle());
  EXPECT_TRUE(r.migration_drained());
  r.finish_add_shard();
  EXPECT_GT(r.migration_log().size(), 0u);

  std::uint64_t h = run_digest(r);
  for (const shard_router::migration_event& m : r.migration_log()) {
    fnv_mix(h, m.reg);
    fnv_mix(h, m.from_shard);
    fnv_mix(h, m.to_shard);
    fnv_mix(h, static_cast<std::uint64_t>(m.at));
    fnv_mix(h, static_cast<std::uint64_t>(m.why));
  }
  return h;
}

TEST(Determinism, GrowingRouterRunKeepsItsPinnedDigest) {
  const std::uint64_t h = growing_router_digest(entry_points::mixed);
  EXPECT_EQ(h, growing_router_pin) << "digest 0x" << std::hex << h;
}

TEST(Determinism, RouterEntryPointsRunOneOperation) {
  // The single-key calls, one-key batches and submit() itself take one path
  // through the router: the same workload gives the same pinned run.
  for (const entry_points via : {entry_points::batches_only, entry_points::submit_only}) {
    const std::uint64_t h = growing_router_digest(via);
    EXPECT_EQ(h, growing_router_pin) << "digest 0x" << std::hex << h;
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity that the equality above is meaningful: different seeds produce
  // different schedules (timings differ even when values happen to match).
  cluster a(make_cfg(1));
  cluster b(make_cfg(2));
  drive(a, 1, false);
  drive(b, 2, false);
  EXPECT_NE(a.now(), b.now());
}

/// Keyed workload (single-key keyed ops + multi-key batches) derived from
/// one seed: the namespace machinery must be as deterministic as the
/// single-register path.
void drive_keyed(cluster& c, std::uint64_t seed, bool faults) {
  rng r(seed ^ 0x6b657965ULL);
  std::uint32_t v = 1;
  for (time_ns t = 0; t < 120_ms; t += 3_ms) {
    for (std::uint32_t p = 0; p < c.size(); ++p) {
      const time_ns at = t + static_cast<time_ns>(r.next_below(1'500'000));
      const auto reg = static_cast<register_id>(r.next_below(5));
      switch (r.next_below(4)) {
        case 0:
          c.submit_write(process_id{p}, reg, value_of_u32(v++), at);
          break;
        case 1:
          c.submit_read(process_id{p}, reg, at);
          break;
        case 2: {
          std::vector<proto::write_op> ops;
          for (std::uint32_t k = 0; k < 3; ++k) {
            ops.push_back({reg + 10 * (k + 1), value_of_u32(v++)});
          }
          c.submit_write_batch(process_id{p}, ops, at);
          break;
        }
        default:
          c.submit_read_batch(process_id{p}, {reg + 10, reg + 20, reg + 30}, at);
          break;
      }
    }
  }
  if (faults) {
    sim::random_plan_config pc;
    pc.n = c.size();
    pc.crashes = 5;
    pc.horizon = 100_ms;
    pc.min_down = 5_ms;
    pc.max_down = 25_ms;
    rng fr(seed ^ 0xfa117ULL);
    c.apply(sim::make_random_plan(pc, fr));
  }
  ASSERT_TRUE(c.run_until_idle());
}

TEST(Determinism, KeyedWorkloadSameSeedSameHistory) {
  for (const std::uint64_t seed : {11ULL, 23ULL}) {
    for (const bool faults : {false, true}) {
      cluster a(make_cfg(seed));
      cluster b(make_cfg(seed));
      drive_keyed(a, seed, faults);
      drive_keyed(b, seed, faults);
      expect_identical(a, b);
      EXPECT_TRUE(history::check_tag_order_per_key(a.tagged_operations()).ok);
    }
  }
}

TEST(Determinism, KeyedApiOnDefaultRegisterMatchesLegacyApi) {
  // Acceptance pin: a key-count-1 namespace reproduces the single-register
  // behavior bit for bit — submitting through the keyed API with
  // default_register must be indistinguishable from the legacy unkeyed API.
  const std::uint64_t seed = 42;
  cluster legacy(make_cfg(seed));
  cluster keyed(make_cfg(seed));

  rng rl(seed ^ 0xabcULL);
  rng rk(seed ^ 0xabcULL);
  std::uint32_t vl = 1;
  std::uint32_t vk = 1;
  for (time_ns t = 0; t < 100_ms; t += 2_ms) {
    for (std::uint32_t p = 0; p < legacy.size(); ++p) {
      const time_ns al = t + static_cast<time_ns>(rl.next_below(1'500'000));
      const time_ns ak = t + static_cast<time_ns>(rk.next_below(1'500'000));
      ASSERT_EQ(al, ak);
      if (rl.chance(0.5)) {
        legacy.submit_write(process_id{p}, value_of_u32(vl++), al);
      } else {
        legacy.submit_read(process_id{p}, al);
      }
      if (rk.chance(0.5)) {
        keyed.submit_write(process_id{p}, default_register, value_of_u32(vk++), ak);
      } else {
        keyed.submit_read(process_id{p}, default_register, ak);
      }
    }
  }
  ASSERT_TRUE(legacy.run_until_idle());
  ASSERT_TRUE(keyed.run_until_idle());
  expect_identical(legacy, keyed);

  const auto he = legacy.events();
  const auto hk = keyed.events();
  ASSERT_EQ(he.size(), hk.size());
  for (std::size_t i = 0; i < he.size(); ++i) {
    EXPECT_EQ(he[i].kind, hk[i].kind) << i;
    EXPECT_EQ(he[i].p, hk[i].p) << i;
    EXPECT_EQ(he[i].v, hk[i].v) << i;
    EXPECT_EQ(he[i].at, hk[i].at) << i;
    EXPECT_EQ(he[i].reg, hk[i].reg) << i;
  }
}

TEST(Determinism, MetricsAreReproducible) {
  cluster a(make_cfg(9));
  cluster b(make_cfg(9));
  drive(a, 9, true);
  drive(b, 9, true);
  const auto ca = a.collect();
  const auto cb = b.collect();
  EXPECT_EQ(ca.write_latency_us().mean(), cb.write_latency_us().mean());
  EXPECT_EQ(ca.read_latency_us().mean(), cb.read_latency_us().mean());
  EXPECT_EQ(ca.write_messages().mean(), cb.write_messages().mean());
  EXPECT_EQ(ca.read_messages().mean(), cb.read_messages().mean());
  EXPECT_EQ(ca.write_total_logs().mean(), cb.write_total_logs().mean());
  EXPECT_EQ(ca.read_total_logs().mean(), cb.read_total_logs().mean());
}

}  // namespace
}  // namespace remus::core
