// Shard-scaling capacity: keyed operations per *virtual* second vs shard
// count, swept across key-popularity skew.
//
// Capacity is a property of the emulated system, so the headline metric is
// virtual-time throughput: a fixed open-loop arrival stream (faster than one
// quorum group can absorb) is submitted through the shard router, everything
// runs to completion, and keyed ops/s = completed per-key operations divided
// by the virtual makespan. One cluster serializes each client process's
// operations behind ~1 ms quorum round-trips, so a saturated shard stretches
// the makespan; S shards serve disjoint key slices concurrently and divide
// it. (Wall-clock simulator speed is bench_sim_throughput's business; it is
// reported here only as Mevents/s context.) The virtual metric is
// deterministic — a pure function of the config — which lets the full run
// *assert* that capacity grows monotonically from 1 to 4 shards, and lets
// the committed BENCH_shard_scaling.json stay stable across machines.
//
// The batch pair at 4 shards compares cross-shard batches (the router splits
// each one into a quorum round per shard touched) against shard-local
// batches (sim::kv_workload's shard_map keeps every batch inside one shard):
// the split costs real capacity, which is why sharded clients batch
// shard-locally.
//
// Every sized-down run (always in --smoke) verifies per-key atomicity of the
// *merged* multi-shard history — scale numbers from histories that stopped
// linearizing are worthless. --json[=PATH] emits machine-readable results
// (BENCH_shard_scaling.json).
//
// `--threads N` sets the simulator worker pool (shard_router_config::workers,
// 0 = one per hardware thread; see shard_router.h "Parallel execution"). The
// worker-pool section runs the 8-shard uniform case at 1 worker and at the
// pool size and reports the wall-clock aggregate speedup — the virtual-time
// numbers must be bit-identical at both (hard gate: worker count may never
// change results), so only the wall columns move.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "sim/kv_workload.h"

namespace {

using namespace remus;
using namespace remus::bench;

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

struct scaling_case {
  const char* name;     // short label ("s4_zipf")
  std::uint32_t shards;
  double theta;
  std::uint32_t batch;
  bool shard_local_batches;
};

struct scaling_result {
  double keyed_ops_per_vsec = 0;  // completed per-key ops / virtual makespan
  double makespan_ms = 0;         // virtual time until the last reply
  std::uint64_t completed_keyed_ops = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;       // wall-clock aggregate simulator speed
  double keyed_ops_per_wall_sec = 0;  // wall-clock aggregate op completion rate
  bool verified = false;
  bool atomic = true;
  std::size_t keys_checked = 0;
};

scaling_result run_case(const scaling_case& sc, std::uint32_t ops, std::uint64_t seed,
                        std::uint32_t workers = 1) {
  core::shard_router_config cfg;
  cfg.shards = sc.shards;
  cfg.base = paper_testbed(proto::persistent_policy(), 3, seed);
  cfg.workers = workers;
  core::shard_router router(cfg);

  sim::kv_workload_config wc;
  wc.n = cfg.base.n;
  wc.key_count = 256;
  wc.zipf_theta = sc.theta;
  wc.read_fraction = 0.5;
  wc.batch_size = sc.batch;
  wc.ops = ops;
  // Open-loop arrivals fast enough to saturate a single quorum group (one
  // shard absorbs ~3 * 1/latency ≈ 3k keyed ops per virtual second here).
  wc.mean_gap = 100_us;
  wc.seed = seed;
  if (sc.shard_local_batches) {
    wc.shard_map = [&router](register_id reg) { return router.shard_of(reg); };
    wc.shard_local_batches = true;
  }
  const auto workload = sim::make_kv_workload(wc);

  std::vector<core::shard_router::op_handle> handles;
  handles.reserve(workload.size());
  for (const sim::kv_op& op : workload) {
    handles.push_back(router.submit(op.p, op.is_read, sim::entries_of(op), op.at));
  }

  scaling_result r;
  const auto t0 = clock_type::now();
  router.run_until_idle(2'000'000'000);
  r.wall_ms = ms_since(t0);
  r.events = router.events_executed();

  time_ns last_reply = 0;
  for (const auto h : handles) {
    const auto& res = router.result(h);
    if (!res.completed) continue;
    r.completed_keyed_ops += res.entries.size();
    last_reply = std::max(last_reply, res.completed_at);
  }
  r.makespan_ms = to_ms(last_reply);
  r.keyed_ops_per_vsec =
      last_reply > 0
          ? 1e9 * static_cast<double>(r.completed_keyed_ops) / static_cast<double>(last_reply)
          : 0;
  r.events_per_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.keyed_ops_per_wall_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.completed_keyed_ops) / r.wall_ms
                    : 0;

  // Verify unconditionally: the per-key checker costs milliseconds at these
  // sizes, and capacity numbers from a history that stopped linearizing
  // must never be published.
  const auto verdict = history::check_persistent_atomicity_per_key(router.events());
  r.verified = true;
  r.atomic = verdict.ok;
  r.keys_checked = verdict.keys_checked;
  if (!verdict.ok) {
    std::fprintf(stderr, "ATOMICITY VIOLATION (%s): %s\n", sc.name,
                 verdict.explanation.c_str());
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const std::uint32_t ops = smoke ? 600 : 4000;
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  // --threads N: worker pool for the scaling pair (0 or absent = min(8, hw)).
  const std::uint32_t threads_flag = flag_u32(argc, argv, "--threads", 0);
  const std::uint32_t pool = threads_flag != 0 ? threads_flag : std::min(8u, hw);

  const std::vector<scaling_case> cases = {
      {"s1_uniform", 1, 0.0, 1, false},
      {"s2_uniform", 2, 0.0, 1, false},
      {"s4_uniform", 4, 0.0, 1, false},
      {"s8_uniform", 8, 0.0, 1, false},
      {"s1_zipf", 1, 0.99, 1, false},
      {"s2_zipf", 2, 0.99, 1, false},
      {"s4_zipf", 4, 0.99, 1, false},
      {"s8_zipf", 8, 0.99, 1, false},
      {"s4_b4_split", 4, 0.0, 4, false},  // batches split across shards
      {"s4_b4_local", 4, 0.0, 4, true},   // shard-local batches, no split
  };

  std::printf(
      "== Shard scaling (%s, %u logical ops, 256 keys, n=3 persistent/shard) ==\n",
      smoke ? "smoke" : "full", ops);
  metrics::table t({"case", "keyed ops/vsec", "makespan ms", "ops", "Mevents/s",
                    "ops/s wall", "atomic"});

  json_report rep("shard_scaling");
  rep.set("mode", smoke ? "smoke" : "full");
  rep.set("logical_ops_submitted", static_cast<double>(ops));
  rep.set("hardware_concurrency", static_cast<double>(hw));

  bool all_atomic = true;
  double uniform_by_shards[4] = {0, 0, 0, 0};  // s1, s2, s4, s8
  for (const scaling_case& sc : cases) {
    const auto r = run_case(sc, ops, 1);
    if (r.verified && !r.atomic) all_atomic = false;
    if (sc.theta == 0.0 && sc.batch == 1) {
      const int slot = sc.shards == 1 ? 0 : sc.shards == 2 ? 1 : sc.shards == 4 ? 2 : 3;
      uniform_by_shards[slot] = r.keyed_ops_per_vsec;
    }
    t.add_row({sc.name, metrics::table::num(r.keyed_ops_per_vsec, 0),
               metrics::table::num(r.makespan_ms, 1),
               metrics::table::num(static_cast<double>(r.completed_keyed_ops), 0),
               metrics::table::num(r.events_per_sec / 1e6, 2),
               metrics::table::num(r.keyed_ops_per_wall_sec, 0),
               r.verified ? (r.atomic ? "yes" : "NO") : "-"});
    const std::string prefix = sc.name;
    rep.set(prefix + "_keyed_ops_per_vsec", r.keyed_ops_per_vsec);
    rep.set(prefix + "_makespan_ms", r.makespan_ms);
    rep.set(prefix + "_completed_keyed_ops",
            static_cast<double>(r.completed_keyed_ops));
    rep.set(prefix + "_events_per_sec", r.events_per_sec);
    rep.set(prefix + "_keyed_ops_per_wall_sec", r.keyed_ops_per_wall_sec);
    if (r.verified) {
      rep.set(prefix + "_atomic_per_key", r.atomic ? 1.0 : 0.0);
      rep.set(prefix + "_keys_checked", static_cast<double>(r.keys_checked));
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "(keyed ops/vsec = completed per-key ops per *virtual* second — the\n"
      " emulated system's capacity, deterministic per config; per-key\n"
      " atomicity of the merged multi-shard history verified where marked)\n\n");

  // The capacity claim this bench exists to check: adding quorum groups
  // raises keyed throughput monotonically from 1 to 4 shards. Virtual-time
  // numbers are deterministic, so this is a hard gate, not a flaky one.
  const bool monotonic = uniform_by_shards[0] < uniform_by_shards[1] &&
                         uniform_by_shards[1] < uniform_by_shards[2];
  rep.set("uniform_monotonic_1_2_4", monotonic ? 1.0 : 0.0);
  rep.set("uniform_scaling_4_over_1",
          uniform_by_shards[0] > 0 ? uniform_by_shards[2] / uniform_by_shards[0] : 0);

  // ---- Worker-pool wall-clock scaling (the parallel simulator driver) ----
  //
  // Same 8-shard uniform workload, sequential driver vs a pool of `pool`
  // workers. Virtual-time results must be bit-identical (worker count is
  // invisible to the emulation — hard gate); the wall columns measure how
  // much real time the shard independence buys.
  const std::uint32_t pair_ops = smoke ? 2000 : ops;
  const scaling_case pair_case{"s8_uniform", 8, 0.0, 1, false};
  std::printf("== Worker-pool scaling (s8 uniform, %u logical ops, %u hw threads) ==\n",
              pair_ops, hw);
  // Wall-clock noise dominates single runs on shared machines: best of 3.
  scaling_result seq, par;
  for (int i = 0; i < 3; ++i) {
    const auto s = run_case(pair_case, pair_ops, 1, 1);
    if (s.events_per_sec > seq.events_per_sec) seq = s;
    const auto p = run_case(pair_case, pair_ops, 1, pool);
    if (p.events_per_sec > par.events_per_sec) par = p;
  }
  metrics::table wt({"workers", "wall ms", "Mevents/s", "ops/s wall",
                     "keyed ops/vsec", "atomic"});
  wt.add_row({"1", metrics::table::num(seq.wall_ms, 1),
              metrics::table::num(seq.events_per_sec / 1e6, 2),
              metrics::table::num(seq.keyed_ops_per_wall_sec, 0),
              metrics::table::num(seq.keyed_ops_per_vsec, 0),
              seq.atomic ? "yes" : "NO"});
  wt.add_row({std::to_string(pool), metrics::table::num(par.wall_ms, 1),
              metrics::table::num(par.events_per_sec / 1e6, 2),
              metrics::table::num(par.keyed_ops_per_wall_sec, 0),
              metrics::table::num(par.keyed_ops_per_vsec, 0),
              par.atomic ? "yes" : "NO"});
  std::printf("%s", wt.render().c_str());
  const double speedup =
      seq.events_per_sec > 0 ? par.events_per_sec / seq.events_per_sec : 0;
  const bool deterministic_across_workers =
      seq.completed_keyed_ops == par.completed_keyed_ops &&
      seq.makespan_ms == par.makespan_ms && seq.events == par.events;
  std::printf("aggregate wall-clock speedup at %u workers: %.2fx%s\n\n", pool,
              speedup,
              deterministic_across_workers ? "" : "  (RESULTS DIVERGED!)");
  if (!par.atomic) all_atomic = false;
  rep.set("threads_pool", static_cast<double>(pool));
  rep.set("threads_pair_logical_ops", static_cast<double>(pair_ops));
  rep.set("threads_s8_events_per_sec_w1", seq.events_per_sec);
  rep.set("threads_s8_events_per_sec_wN", par.events_per_sec);
  rep.set("threads_s8_ops_per_wall_sec_w1", seq.keyed_ops_per_wall_sec);
  rep.set("threads_s8_ops_per_wall_sec_wN", par.keyed_ops_per_wall_sec);
  rep.set("threads_speedup_8shards", speedup);
  rep.set("threads_deterministic", deterministic_across_workers ? 1.0 : 0.0);

  rep.write_if_requested(argc, argv);

  if (!all_atomic) {
    std::fprintf(stderr, "FAIL: a run violated per-key atomicity\n");
    return 1;
  }
  if (!deterministic_across_workers) {
    std::fprintf(stderr,
                 "FAIL: worker count changed virtual-time results (determinism "
                 "broke)\n");
    return 1;
  }
  if (!smoke && !monotonic) {
    std::fprintf(stderr,
                 "FAIL: keyed ops/vsec not monotonic over 1 -> 2 -> 4 shards\n");
    return 1;
  }
  // Wall-clock gate: a multi-worker pool on a multi-core machine must beat
  // the sequential driver. Meaningless (and skipped) on one hardware thread.
  if (smoke && pool > 1 && hw > 1 && speedup <= 1.0) {
    std::fprintf(stderr, "FAIL: %u workers gave %.2fx <= 1.0x on %u cores\n",
                 pool, speedup, hw);
    return 1;
  }
  return 0;
}
