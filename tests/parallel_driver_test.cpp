// Parallel simulator driver tests: the worker_pool contract (inline and in
// order at one worker; every index exactly once, full barrier, exception
// capture with threads) and the determinism pin the whole parallelization
// rests on — same seed => bit-identical merged
// history, tagged operations, and migration schedule at workers = 1, 2, and
// hardware_concurrency, across fault-free, crash-heavy, migration-under-load,
// and lease+corrupt-tail adversarial runs. Worker count must buy wall-clock
// time only, never observable behavior (shard_router.h, "Parallel
// execution"); where a spinner probe finds two usable cores, the pool must
// buy some. CMakeLists.txt runs this suite alone (RUN_SERIAL) so that no
// other suite takes cores while the pool is timed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/scenario_runner.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "open_loop.h"
#include "proto/policy.h"
#include "sim/driver.h"
#include "sim/kv_workload.h"
#include "sim/scenario.h"

namespace remus::sim {
namespace {

// ---------- worker_pool contract ----------

TEST(WorkerPool, OneWorkerOrFewerStartsNoThread) {
  EXPECT_EQ(worker_pool(0).workers(), 1u);
  EXPECT_EQ(worker_pool(1).workers(), 1u);
  EXPECT_EQ(worker_pool(4).workers(), 4u);
}

TEST(WorkerPool, OneWorkerRunsEveryIndexInOrderInline) {
  worker_pool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::uint32_t> seen;
  pool.run_indexed(5, [&](std::uint32_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  pool.run_indexed(0, [&](std::uint32_t) { FAIL() << "count 0 must not call fn"; });
  // Inline, an exception propagates at once: later indices never run.
  seen.clear();
  EXPECT_THROW(pool.run_indexed(5,
                                [&](std::uint32_t i) {
                                  seen.push_back(i);
                                  if (i == 2) throw std::runtime_error("index 2 failed");
                                }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(WorkerPool, RunsEveryIndexExactlyOncePerRound) {
  worker_pool pool(4);
  constexpr std::uint32_t count = 64;
  // Many rounds on one pool: stale-worker and missed-wakeup bugs show up as
  // an index running twice (hits > 1) or never (hits == 0).
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<std::uint32_t>> hits(count);
    pool.run_indexed(count, [&](std::uint32_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint32_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " index " << i;
    }
  }
}

TEST(WorkerPool, RunIndexedIsAFullBarrier) {
  worker_pool pool(4);
  // After run_indexed returns, every fn call must have finished and its
  // writes must be visible to the caller (plain reads below, no atomics on
  // the payload: the barrier provides the happens-before edge).
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint64_t> out(32, 0);
    std::atomic<std::uint32_t> done{0};
    pool.run_indexed(32, [&](std::uint32_t i) {
      out[i] = static_cast<std::uint64_t>(i) * 3 + 1;
      done.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(done.load(), 32u);
    for (std::uint32_t i = 0; i < 32; ++i) {
      ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * 3 + 1);
    }
  }
}

TEST(WorkerPool, RethrowsFirstExceptionAndStaysUsable) {
  worker_pool pool(3);
  EXPECT_THROW(
      pool.run_indexed(16,
                       [&](std::uint32_t i) {
                         if (i == 7) throw std::runtime_error("index 7 failed");
                       }),
      std::runtime_error);
  // The pool must be back in a defined state: the next round runs normally.
  std::atomic<std::uint32_t> ran{0};
  pool.run_indexed(16, [&](std::uint32_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16u);
}

TEST(WorkerPool, SingleIndexRunsInlineOnCaller) {
  worker_pool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on{};
  pool.run_indexed(1, [&](std::uint32_t) { ran_on = std::this_thread::get_id(); });
  // One index has no parallelism to exploit; running it on the caller skips
  // a pointless wakeup round-trip.
  EXPECT_EQ(ran_on, caller);
}

}  // namespace
}  // namespace remus::sim

namespace remus::core {
namespace {

/// Worker counts the pins compare: sequential, minimal pool, full machine.
std::vector<std::uint32_t> pinned_worker_counts() {
  std::vector<std::uint32_t> w{1, 2,
                               std::max(2u, std::thread::hardware_concurrency())};
  w.erase(std::unique(w.begin(), w.end()), w.end());
  return w;
}

/// Everything observable about a finished router run.
struct run_capture {
  history::history_log events;
  std::vector<history::tagged_op> tagged;
  std::vector<shard_router::migration_event> migration;
  std::uint64_t events_executed = 0;
  time_ns now = 0;
};

void expect_identical(const run_capture& a, const run_capture& b,
                      std::uint32_t workers_b) {
  EXPECT_EQ(a.events_executed, b.events_executed) << "workers=" << workers_b;
  EXPECT_EQ(a.now, b.now) << "workers=" << workers_b;

  ASSERT_EQ(a.events.size(), b.events.size()) << "workers=" << workers_b;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const history::event& x = a.events[i];
    const history::event& y = b.events[i];
    ASSERT_EQ(x.kind, y.kind) << "workers=" << workers_b << " event " << i;
    ASSERT_EQ(x.p, y.p) << "workers=" << workers_b << " event " << i;
    ASSERT_EQ(x.at, y.at) << "workers=" << workers_b << " event " << i;
    ASSERT_EQ(x.reg, y.reg) << "workers=" << workers_b << " event " << i;
    ASSERT_EQ(x.v.data, y.v.data) << "workers=" << workers_b << " event " << i;
  }

  ASSERT_EQ(a.tagged.size(), b.tagged.size()) << "workers=" << workers_b;
  for (std::size_t i = 0; i < a.tagged.size(); ++i) {
    const history::tagged_op& x = a.tagged[i];
    const history::tagged_op& y = b.tagged[i];
    ASSERT_EQ(x.is_read, y.is_read) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.p, y.p) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.reg, y.reg) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.applied, y.applied) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.val.data, y.val.data) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.invoked_at, y.invoked_at) << "workers=" << workers_b << " op " << i;
    ASSERT_EQ(x.replied_at, y.replied_at) << "workers=" << workers_b << " op " << i;
  }

  ASSERT_EQ(a.migration.size(), b.migration.size()) << "workers=" << workers_b;
  for (std::size_t i = 0; i < a.migration.size(); ++i) {
    ASSERT_EQ(a.migration[i].reg, b.migration[i].reg)
        << "workers=" << workers_b << " entry " << i;
    ASSERT_EQ(a.migration[i].from_shard, b.migration[i].from_shard)
        << "workers=" << workers_b << " entry " << i;
    ASSERT_EQ(a.migration[i].to_shard, b.migration[i].to_shard)
        << "workers=" << workers_b << " entry " << i;
    ASSERT_EQ(a.migration[i].at, b.migration[i].at)
        << "workers=" << workers_b << " entry " << i;
    ASSERT_EQ(a.migration[i].why, b.migration[i].why)
        << "workers=" << workers_b << " entry " << i;
  }
}

shard_router_config parallel_cfg(std::uint32_t workers) {
  shard_router_config cfg;
  cfg.shards = 8;
  cfg.base.n = 3;
  cfg.base.policy = proto::persistent_policy();
  cfg.base.policy.retransmit_delay = 5_ms;
  cfg.base.seed = 77;
  cfg.base.net.jitter = 8_us;
  cfg.base.net.drop_probability = 0.03;
  cfg.workers = workers;
  return cfg;
}

/// Mixed keyed workload over every shard, submitted at deterministic virtual
/// times from a seeded rng; `faults` adds crash/recover pairs in several
/// shards; `migrate` opens a live S -> S+1 window in the middle of the run.
run_capture run_router(std::uint32_t workers, bool faults, bool migrate) {
  shard_router r(parallel_cfg(workers));

  rng wr(0xabc123);
  std::uint32_t v = 1;
  time_ns t = 0;
  const auto submit_some = [&](std::uint32_t rounds) {
    for (std::uint32_t round = 0; round < rounds; ++round) {
      for (std::uint32_t p = 0; p < r.procs_per_shard(); ++p) {
        const register_id reg = wr.next_below(64);
        if (wr.chance(0.5)) {
          r.submit_write(process_id{p}, reg, value_of_u32(v++), t);
        } else {
          r.submit_read(process_id{p}, reg, t);
        }
        t += 120'000;
      }
    }
  };

  submit_some(20);
  if (faults) {
    r.submit_crash(0, process_id{1}, 1_ms);
    r.submit_recover(0, process_id{1}, 5_ms);
    r.submit_crash(3, process_id{2}, 2_ms, crash_style::corrupt_tail);
    r.submit_recover(3, process_id{2}, 6_ms);
    r.submit_crash(5, process_id{0}, 3_ms);
    r.submit_recover(5, process_id{0}, 7_ms);
  }
  if (migrate) {
    // Open the window mid-workload: part of the submitted schedule executes
    // against 8 shards, the rest against the dual-ring discipline, and the
    // drain pump hands the remaining moved keys off under traffic.
    r.run_for(2_ms);
    r.begin_add_shard();
    t = std::max(t, r.now());
    submit_some(10);
  }
  EXPECT_TRUE(r.run_until_idle());
  if (migrate) {
    EXPECT_TRUE(r.migration_drained());
    r.finish_add_shard();
    EXPECT_TRUE(r.run_until_idle());
  }

  run_capture cap;
  cap.events = r.events();
  cap.tagged = r.tagged_operations();
  cap.migration = r.migration_log();
  cap.events_executed = r.events_executed();
  cap.now = r.now();
  return cap;
}

// ---------- The determinism pins ----------

TEST(ParallelDeterminism, WorkerCountInvisibleFaultFree) {
  const run_capture base = run_router(1, false, false);
  EXPECT_TRUE(history::check_persistent_atomicity_per_key(base.events).ok)
      << "sequential baseline must itself be atomic";
  EXPECT_TRUE(history::check_tag_order_per_key(base.tagged).ok);
  for (std::uint32_t w : pinned_worker_counts()) {
    if (w == 1) continue;
    expect_identical(base, run_router(w, false, false), w);
  }
}

TEST(ParallelDeterminism, WorkerCountInvisibleUnderCrashes) {
  const run_capture base = run_router(1, true, false);
  EXPECT_TRUE(history::check_persistent_atomicity_per_key(base.events).ok);
  for (std::uint32_t w : pinned_worker_counts()) {
    if (w == 1) continue;
    expect_identical(base, run_router(w, true, false), w);
  }
}

TEST(ParallelDeterminism, WorkerCountInvisibleDuringLiveMigration) {
  // The hard case: a migration window means the run leaves the no-coupling
  // fast path and the lockstep windows, barrier pump order, and handoff
  // timestamps all become observable through migration_log and the merged
  // history. They must still be bit-identical at every worker count.
  const run_capture base = run_router(1, true, true);
  EXPECT_TRUE(history::check_persistent_atomicity_per_key(base.events).ok);
  EXPECT_FALSE(base.migration.empty()) << "the window must actually move keys";
  for (std::uint32_t w : pinned_worker_counts()) {
    if (w == 1) continue;
    expect_identical(base, run_router(w, true, true), w);
  }
}

// ---------- Adversarial scenario pin (lease + corrupt tail) ----------

/// An adversarial plan weighted onto the two nastiest families — lease
/// crash/recover pairs (incarnation revocation, grantor-registry restore)
/// and WAL-tail-corrupting crashes — plus one live migration window, so the
/// parallel lockstep path runs under leases and storage corruption at once.
scenario_spec lease_corrupt_tail_spec() {
  sim::adversarial_config cfg;
  cfg.shards = 2;
  cfg.n = 3;
  cfg.units = 6;
  cfg.horizon = 6'000'000;
  cfg.min_down = 200'000;
  cfg.max_down = 2'000'000;
  for (double& w : cfg.weights) w = 0.0;
  cfg.weights[static_cast<std::size_t>(sim::fault_family::lease)] = 1.0;
  cfg.weights[static_cast<std::size_t>(sim::fault_family::corrupt_tail)] = 1.0;
  cfg.weights[static_cast<std::size_t>(sim::fault_family::migration)] = 0.5;
  rng r(0x1ea5ec0de);
  scenario_spec spec;
  spec.plan = sim::make_adversarial_plan(cfg, r);
  spec.key_count = 8;
  spec.ops = 60;
  spec.zipf_theta = 0.99;  // hot keys, so leases actually activate
  spec.mean_gap = 100'000;
  spec.workload_seed = 21;
  spec.cluster_seed = 22;
  spec.leases = true;
  return spec;
}

TEST(ParallelDeterminism, LeaseCorruptTailScenarioIdenticalAtEveryWorkerCount) {
  const scenario_spec spec = lease_corrupt_tail_spec();
  ASSERT_TRUE(spec.plan.well_formed());
  bool saw_lease = false;
  bool saw_corrupt = false;
  for (const sim::scenario_event& e : spec.plan.events) {
    saw_lease |= e.family == sim::fault_family::lease;
    saw_corrupt |= e.family == sim::fault_family::corrupt_tail;
  }
  ASSERT_TRUE(saw_lease) << "plan must include a lease-family unit";
  ASSERT_TRUE(saw_corrupt) << "plan must include a corrupt-tail unit";

  const scenario_outcome base = run_scenario(spec, /*workers=*/1);
  ASSERT_TRUE(base.ok()) << base.failure << "\nREPRO " << spec.encode();
  for (std::uint32_t w : pinned_worker_counts()) {
    if (w == 1) continue;
    const scenario_outcome out = run_scenario(spec, w);
    ASSERT_TRUE(out.ok()) << "workers=" << w << ": " << out.failure;
    run_capture a;
    a.events = base.history;
    a.migration = base.migration_log;
    run_capture b;
    b.events = out.history;
    b.migration = out.migration_log;
    expect_identical(a, b, w);
  }
}

// ---------- What the pool buys in wall-clock time ----------

using wall_clock = std::chrono::steady_clock;

double seconds_since(wall_clock::time_point t0) {
  return std::chrono::duration<double>(wall_clock::now() - t0).count();
}

/// Usable cores as perfbench's parallelism_probe reads them: `n` spinners
/// at once against one alone, n * t1 / tn, with the lone spinner timed
/// before and after and the faster of the two counted.
double effective_cores(unsigned n) {
  constexpr std::uint64_t kIters = 20'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto spin = [&sink] {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the loop
    }
    sink += x;
  };
  const auto alone = [&spin] {
    const auto t0 = wall_clock::now();
    spin();
    return seconds_since(t0);
  };
  const double before = alone();
  const auto t0 = wall_clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back(spin);
  for (auto& t : threads) t.join();
  const double tn = seconds_since(t0);
  return n * std::min(before, alone()) / tn;
}

/// Wall-clock seconds that 8 shards of 3 replicas on the paper's testbed
/// take to run 2,000 uniform open-loop keyed ops over 256 keys.
double s8_uniform_seconds(std::uint32_t workers) {
  shard_router_config cfg;
  cfg.shards = 8;
  cfg.base = bench::paper_testbed(proto::persistent_policy(), 3);
  cfg.workers = workers;
  shard_router r(cfg);
  sim::kv_workload_config wc;
  wc.key_count = 256;
  wc.ops = 2000;
  wc.mean_gap = 100_us;
  sim::submit_workload(r, wc);
  const auto t0 = wall_clock::now();
  EXPECT_TRUE(r.run_until_idle(2'000'000'000));
  return seconds_since(t0);
}

TEST(WorkerPoolSpeedup, EightShardsRunFasterOnAPoolWhereTwoCoresAreUsable) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "a sanitizer's own cost swamps the wall-clock ratio";
#endif
  // nproc says what the scheduler may offer, not what a shared host gives:
  // the gate holds only where the probe reads two usable cores before and
  // after the measured pair.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double before = effective_cores(nproc);
  if (before < 2.0) {
    GTEST_SKIP() << "the spinner probe read " << before << " effective cores of " << nproc;
  }
  const std::uint32_t workers = std::min(4u, static_cast<std::uint32_t>(before));
  double one = std::numeric_limits<double>::max();
  double pool = std::numeric_limits<double>::max();
  for (int i = 0; i < 3; ++i) {  // best of 3, the two sides interleaved
    one = std::min(one, s8_uniform_seconds(1));
    pool = std::min(pool, s8_uniform_seconds(workers));
  }
  const double after = effective_cores(nproc);
  if (after < 2.0) {
    GTEST_SKIP() << "the spinner probe read " << before << " then " << after
                 << " effective cores of " << nproc;
  }
  EXPECT_GT(one / pool, 1.0) << workers << " workers: " << pool * 1e3 << " ms, 1 worker: "
                             << one * 1e3 << " ms; the probe read " << before << " then "
                             << after << " effective cores";
}

}  // namespace
}  // namespace remus::core
