// KV-namespace throughput: completed operations/sec over the multi-register
// emulation, swept across key count, key-popularity skew, and batch size.
//
// The paper's emulation serves one register; the namespace multiplexes many
// over the same cluster and batches multi-key operations into single quorum
// rounds. This bench measures what that buys end to end:
//
//   * key count  — 1 (the paper's setting) vs larger namespaces: per-key
//     state must not slow the hot path,
//   * skew       — uniform vs YCSB-default Zipf(0.99) hot keys,
//   * batch size — multi-key ops amortize round-trips; ops/sec counts
//     *logical* per-key operations, so batching shows up as gain.
//
// Each run verifies per-key atomicity (smoke sizes always; full sizes when
// affordable) — scale numbers from histories that stopped linearizing are
// worthless. Run with --smoke for a CI-sized run, --json[=PATH] for
// machine-readable output (BENCH_kv_throughput.json).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "history/keyed.h"
#include "sim/kv_workload.h"

namespace {

using namespace remus;
using namespace remus::bench;

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point t0) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - t0).count();
}

struct kv_case {
  const char* name;       // short label ("k64_zipf_b8")
  std::uint32_t keys;
  double theta;
  std::uint32_t batch;
  /// Lossy-link case (batch-aware retransmission measurement): drop
  /// probability.
  double drop = 0.0;
  std::uint32_t value_bytes = 8;
  std::uint32_t n = 3;
  double read_fraction = 0.5;
  /// Read-lease pair: hot keys served locally once a freshness lease holds.
  bool leases = false;
  /// Per-case multiplier on the op count — lease amortization needs a run
  /// long enough that steady-state hits dominate the warm-up grants.
  std::uint32_t op_factor = 1;
};

struct kv_result {
  double wall_ms = 0;
  std::uint64_t completed_keyed_ops = 0;  // per-key operations (batch = m ops)
  std::uint64_t events = 0;
  double keyed_ops_per_sec = 0;
  double events_per_sec = 0;
  std::uint64_t net_bytes = 0;            // total message bytes on the wire
  /// Wire bytes attributed to read operations (leased local reads add 0).
  std::uint64_t read_net_bytes = 0;
  // Virtual-time latency percentiles (us), from the per-op collector.
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
  std::uint64_t leased_hits = 0;
  std::uint64_t lease_grants = 0;
  // Retransmission byte accounting (what repeats cost vs what full repeats
  // would have cost) — the honest denominator for the trim fraction.
  std::uint64_t retransmit_bytes_sent = 0;
  std::uint64_t retransmit_bytes_full = 0;
  bool verified = false;
  bool atomic = true;
  std::size_t keys_checked = 0;
};

kv_result run_case(const kv_case& kc, std::uint32_t ops, std::uint64_t seed) {
  auto cfg = paper_testbed(proto::persistent_policy(), kc.n, seed);
  cfg.net.drop_probability = kc.drop;
  if (kc.drop > 0.0) cfg.policy.retransmit_delay = 3_ms;  // repeats matter
  if (kc.leases) {
    cfg.policy.read_leases = true;
    cfg.policy.lease_hot_read_threshold = 0;  // first miss on a key grants
    // Long enough that no lease expires mid-run: the pair isolates the
    // write-invalidation cost, expiry churn is the fuzzer's business.
    cfg.policy.lease_duration = 2'000'000'000;
  }
  core::cluster c(cfg);

  sim::kv_workload_config wc;
  wc.n = cfg.n;
  wc.key_count = kc.keys;
  wc.zipf_theta = kc.theta;
  wc.read_fraction = kc.read_fraction;
  wc.batch_size = kc.batch;
  wc.ops = ops * kc.op_factor;
  wc.value_bytes = kc.value_bytes;
  wc.seed = seed;
  const auto workload = sim::make_kv_workload(wc);

  std::vector<core::cluster::op_handle> handles;
  handles.reserve(workload.size());
  for (const sim::kv_op& op : workload) {
    handles.push_back(c.submit(op.p, op.is_read, sim::entries_of(op), op.at));
  }

  kv_result r;
  const std::uint64_t e0 = c.events_executed();
  const auto t0 = clock_type::now();
  c.run_until_idle(500'000'000);
  r.wall_ms = ms_since(t0);
  r.events = c.events_executed() - e0;
  for (const auto h : handles) {
    const auto& res = c.result(h);
    if (!res.completed) continue;
    r.completed_keyed_ops += res.entries.size();
  }
  r.keyed_ops_per_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.completed_keyed_ops) / r.wall_ms : 0;
  r.events_per_sec =
      r.wall_ms > 0 ? 1000.0 * static_cast<double>(r.events) / r.wall_ms : 0;
  r.net_bytes = c.network().bytes_sent();
  const metrics::op_collector col = c.collect();
  r.read_net_bytes = static_cast<std::uint64_t>(col.read_net_bytes().total());
  if (col.read_latency_us().count() > 0) {
    r.read_p50_us = col.read_latency_us().percentile(0.5);
    r.read_p99_us = col.read_latency_us().percentile(0.99);
  }
  if (col.write_latency_us().count() > 0) {
    r.write_p50_us = col.write_latency_us().percentile(0.5);
    r.write_p99_us = col.write_latency_us().percentile(0.99);
  }
  for (std::uint32_t p = 0; p < kc.n; ++p) {
    const auto& b = c.core_of(process_id{p}).branches();
    r.leased_hits += b.leased_read_hits;
    r.lease_grants += b.lease_grants;
    r.retransmit_bytes_sent += b.retransmit_bytes_sent;
    r.retransmit_bytes_full += b.retransmit_bytes_full;
  }

  // Verify per-key atomicity when the history is small enough for the
  // polynomial checker to be cheap (always true in smoke mode).
  if (ops * kc.op_factor <= 4000) {
    const auto verdict = history::check_persistent_atomicity_per_key(c.events());
    r.verified = true;
    r.atomic = verdict.ok;
    r.keys_checked = verdict.keys_checked;
    if (!verdict.ok) {
      std::fprintf(stderr, "ATOMICITY VIOLATION (%s): %s\n", kc.name,
                   verdict.explanation.c_str());
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = flag_present(argc, argv, "--smoke");
  const std::uint32_t ops = smoke ? 800 : 20000;
  const int reps = smoke ? 1 : 3;

  const std::vector<kv_case> cases = {
      {"k1_uniform_b1", 1, 0.0, 1},        // the paper's single register
      {"k64_uniform_b1", 64, 0.0, 1},
      {"k64_zipf_b1", 64, 0.99, 1},
      {"k1024_zipf_b1", 1024, 0.99, 1},
      {"k64_uniform_b8", 64, 0.0, 8},      // batched multi-key traffic
      {"k1024_zipf_b8", 1024, 0.99, 8},
      // Batch-aware retransmission: a contended batched workload (256-byte
      // values, 10% loss, n=5) whose repeats drop settled registers. The
      // JSON reports the share of retransmitted bytes the trim saved.
      {"k64_b8_lossy_trim", 64, 0.0, 8, /*drop=*/0.10, 256, 5},
      // Read-lease pair: identical read-heavy Zipf workload with leases off
      // vs on. Hot keys go local after the grant round, so the leased side
      // must win on both ops/sec and read wire bytes (gated below).
      {.name = "k1024_zipf_rh_b1", .keys = 1024, .theta = 0.99, .batch = 1,
       .read_fraction = 0.99, .op_factor = 5},
      {.name = "k1024_zipf_rh_b1_leased", .keys = 1024, .theta = 0.99, .batch = 1,
       .read_fraction = 0.99, .leases = true, .op_factor = 5},
  };

  std::printf("== KV namespace throughput (%s, best of %d, n=3 persistent) ==\n",
              smoke ? "smoke" : "full", reps);
  metrics::table t({"case", "keyed ops/s", "Mevents/s", "ops", "wall ms", "net MB",
                    "atomic"});

  json_report rep("kv_throughput");
  rep.set("mode", smoke ? "smoke" : "full");
  rep.set("logical_ops_submitted", static_cast<double>(ops));

  bool all_atomic = true;
  // Per-retransmission accounting of the lossy case: the core tracks both
  // what the trimmed repeats cost and what full repeats would have cost on
  // the same run.
  std::uint64_t trim_retrans_sent = 0;
  std::uint64_t trim_retrans_full = 0;
  // The read-lease pair, for the gates. Wall-clock figures (ops/s,
  // events/s, the leased speedup) come from each case's fastest repetition;
  // everything else, the byte and trim gates included, from its seed-1
  // repetition, so two runs of one binary agree on every other key.
  kv_result unleased_fastest, leased_fastest, unleased_seed1, leased_seed1;
  for (const kv_case& kc : cases) {
    kv_result fastest, seed1;
    for (int i = 0; i < reps; ++i) {
      const auto r = run_case(kc, ops, 1 + static_cast<std::uint64_t>(i));
      if (r.keyed_ops_per_sec > fastest.keyed_ops_per_sec || i == 0) fastest = r;
      if (i == 0) seed1 = r;
      if (r.verified && !r.atomic) all_atomic = false;
    }
    const std::string prefix = kc.name;
    if (prefix == "k64_b8_lossy_trim") {
      trim_retrans_sent = seed1.retransmit_bytes_sent;
      trim_retrans_full = seed1.retransmit_bytes_full;
    }
    if (prefix == "k1024_zipf_rh_b1") {
      unleased_fastest = fastest;
      unleased_seed1 = seed1;
    }
    if (prefix == "k1024_zipf_rh_b1_leased") {
      leased_fastest = fastest;
      leased_seed1 = seed1;
    }
    t.add_row({kc.name, metrics::table::num(fastest.keyed_ops_per_sec, 0),
               metrics::table::num(fastest.events_per_sec / 1e6, 2),
               metrics::table::num(static_cast<double>(seed1.completed_keyed_ops), 0),
               metrics::table::num(fastest.wall_ms, 1),
               metrics::table::num(static_cast<double>(seed1.net_bytes) / 1e6, 2),
               seed1.verified ? (seed1.atomic ? "yes" : "NO") : "-"});
    rep.set(prefix + "_keyed_ops_per_sec", fastest.keyed_ops_per_sec);
    rep.set(prefix + "_events_per_sec", fastest.events_per_sec);
    rep.set(prefix + "_completed_keyed_ops",
            static_cast<double>(seed1.completed_keyed_ops));
    rep.set(prefix + "_net_bytes", static_cast<double>(seed1.net_bytes));
    rep.set(prefix + "_read_net_bytes", static_cast<double>(seed1.read_net_bytes));
    rep.set(prefix + "_read_p50_us", seed1.read_p50_us);
    rep.set(prefix + "_read_p99_us", seed1.read_p99_us);
    rep.set(prefix + "_write_p50_us", seed1.write_p50_us);
    rep.set(prefix + "_write_p99_us", seed1.write_p99_us);
    if (kc.leases) {
      rep.set(prefix + "_leased_read_hits", static_cast<double>(seed1.leased_hits));
      rep.set(prefix + "_lease_grants", static_cast<double>(seed1.lease_grants));
    }
    if (seed1.verified) {
      rep.set(prefix + "_atomic_per_key", seed1.atomic ? 1.0 : 0.0);
      rep.set(prefix + "_keys_checked", static_cast<double>(seed1.keys_checked));
    }
  }
  double retrans_saved_frac = 0.0;
  if (trim_retrans_full > 0) {
    // Of the bytes retransmissions would have cost as full-batch repeats,
    // the fraction trimming saved. Retransmissions are a small slice of
    // total traffic, so only retransmitted bytes make an honest denominator.
    retrans_saved_frac = 1.0 - static_cast<double>(trim_retrans_sent) /
                                   static_cast<double>(trim_retrans_full);
    rep.set("lossy_trim_retransmit_saved_frac", retrans_saved_frac);
  }
  double leased_speedup = 0.0;
  double leased_read_bytes_ratio = 1.0;
  if (unleased_seed1.completed_keyed_ops > 0 && leased_seed1.completed_keyed_ops > 0) {
    leased_speedup =
        leased_fastest.keyed_ops_per_sec / unleased_fastest.keyed_ops_per_sec;
    leased_read_bytes_ratio =
        unleased_seed1.read_net_bytes > 0
            ? static_cast<double>(leased_seed1.read_net_bytes) /
                  static_cast<double>(unleased_seed1.read_net_bytes)
            : 1.0;
    rep.set("leased_speedup", leased_speedup);
    rep.set("leased_read_bytes_ratio", leased_read_bytes_ratio);
    std::printf("read leases: %.2fx keyed ops/s, %.0f%% fewer read wire bytes "
                "(%llu leased hits, %llu grants)\n",
                leased_speedup, 100.0 * (1.0 - leased_read_bytes_ratio),
                static_cast<unsigned long long>(leased_seed1.leased_hits),
                static_cast<unsigned long long>(leased_seed1.lease_grants));
  }
  std::printf("%s", t.render().c_str());
  std::printf("(keyed ops count per-register operations, so batch cases credit "
              "each key an op; per-key atomicity verified where marked)\n\n");

  rep.write_if_requested(argc, argv);

  if (!all_atomic) {
    std::fprintf(stderr, "FAIL: a run violated per-key atomicity\n");
    return 1;
  }
  // CI gates. Read wire bytes are deterministic per seed, so the leased
  // pair's byte ordering is gated in every mode (~0.33 ratio in smoke, ~0.11
  // in full vs the 0.6 bound). The throughput ratio is wall-clock and the
  // smoke pair is a best-of-1 short run, so the 1.5x speedup gate applies
  // only to full mode, where grant amortization and best-of-3 make it
  // stable (~2.4x measured vs the 1.5x bound).
  if (leased_speedup > 0 && leased_read_bytes_ratio >= 0.6) {
    std::fprintf(stderr, "FAIL: leased read bytes ratio %.2f >= 0.6\n",
                 leased_read_bytes_ratio);
    return 1;
  }
  if (!smoke && leased_speedup > 0 && leased_speedup < 1.5) {
    std::fprintf(stderr, "FAIL: leased speedup %.2fx < 1.5x\n", leased_speedup);
    return 1;
  }
  // Batch-repeat trimming must keep saving a share of retransmitted bytes
  // (~0.05 measured).
  if (trim_retrans_full > 0 && retrans_saved_frac < 0.03) {
    std::fprintf(stderr, "FAIL: retransmit trim saved only %.3f < 0.03\n",
                 retrans_saved_frac);
    return 1;
  }
  return 0;
}
