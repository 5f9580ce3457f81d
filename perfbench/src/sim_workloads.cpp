#include "sim_workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>

#include "bench_util.h"
#include "core/shard_router.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "sim/kv_workload.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace remus;

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kReplicas = 3;
constexpr std::uint32_t kClients = 3;  // client replicas per shard
constexpr std::uint32_t kKeys = 4096;
constexpr double kTheta = 0.99;
constexpr double kReadFraction = 0.5;
constexpr std::uint32_t kValueBytes = 64;
constexpr std::uint32_t kBatchKeys = 8;
constexpr std::uint32_t kKeyedOps = 20'000;  // per execution
// Distinct seeded executions per run, derived from the run's seed. Their
// virtual-time samples are pooled, so the p99s rest on more samples while
// each execution stays short.
constexpr std::uint32_t kExecutions = 4;
// Per client, on the single-key stream; below saturation (see the
// load-sizing guard).
constexpr time_ns kMeanGap = 1_ms;
constexpr time_ns kCrashPeriod = 250_ms;  // per shard
constexpr time_ns kDownTime = 30_ms;      // crash to recover
// Clients stay off a replica from this long before its crash until this
// long after its recovery starts, so no op is dropped or cut short: under
// the load-sizing guard an op completes in a few virtual ms, the slowest
// (queued behind its client's earlier ops around a crash) in under 90 ms
// over 48 seeded executions.
constexpr time_ns kGuardBefore = 150_ms;
constexpr time_ns kGuardAfter = 10_ms;
// Full atomicity is checked on keys k with k % 64 == 0: key 0 is the
// hottest Zipf rank. The all-key check costs ~100x more.
constexpr register_id kAtomicitySampleEvery = 64;
// Load-sizing guard: the last quarter's read p50 may not exceed the first
// quarter's by more than this factor (a growing backlog means the open
// loop runs past saturation and latency measures the queue).
constexpr double kMaxLatencyGrowth = 2.0;
// Post-run recovery probe resolution (virtual time).
constexpr time_ns kProbeStep = 100;
// The run is timed in slices of this many events of one shard, about 1 ms of
// wall time each.
constexpr std::uint64_t kSliceEvents = 4096;
// Events one shard may run before the run counts as cut short (as in
// shard_router::run_until_idle).
constexpr std::uint64_t kMaxShardEvents = 50'000'000;

// msg_kind values 1..7, in enum order (the lease kinds, 8 and 9, are never
// sent: read leases are off).
constexpr std::array<const char*, 8> kKindNames = {
    "", "sn_query", "sn_ack", "write", "write_ack", "read_query", "read_ack", "writeback"};

struct fault {
  std::uint32_t shard = 0;
  std::uint32_t replica = 0;
  time_ns crash_at = 0;
  time_ns recover_at = 0;
};

core::shard_router_config router_config(std::uint64_t seed) {
  core::shard_router_config rc;
  rc.shards = kShards;
  rc.base = bench::paper_testbed(proto::persistent_policy(), kReplicas, seed);
  rc.base.wal_storage = true;
  rc.workers = 1;
  return rc;
}

std::vector<sim::kv_op> make_ops(std::uint64_t seed, const core::shard_router& router) {
  // A quarter of the keyed ops ride in batches.
  constexpr std::uint32_t batches = kKeyedOps / 4 / kBatchKeys;
  constexpr std::uint32_t singles = kKeyedOps - batches * kBatchKeys;
  sim::kv_workload_config sc;
  sc.n = kClients;
  sc.key_count = kKeys;
  sc.zipf_theta = kTheta;
  sc.read_fraction = kReadFraction;
  sc.ops = singles;
  sc.mean_gap = kMeanGap;
  sc.seed = seed;
  sc.value_bytes = kValueBytes;
  std::vector<sim::kv_op> ops = sim::make_kv_workload(sc);

  sim::kv_workload_config bc = sc;
  bc.batch_size = kBatchKeys;
  bc.ops = batches;
  bc.mean_gap = kMeanGap * singles / batches;  // same arrival span
  bc.seed = seed ^ 0x6261746368ULL;
  bc.value_base = sc.value_base + singles;  // write values stay unique
  bc.shard_map = [&router](register_id r) { return router.shard_of(r); };
  bc.shard_local_batches = true;
  std::vector<sim::kv_op> b = sim::make_kv_workload(bc);
  ops.insert(ops.end(), std::make_move_iterator(b.begin()),
             std::make_move_iterator(b.end()));
  std::stable_sort(ops.begin(), ops.end(),
                   [](const sim::kv_op& x, const sim::kv_op& y) { return x.at < y.at; });
  return ops;
}

/// Shard s crashes replica (k + s) % 3 at P/2 + k*P + s*P/4 and recovers it
/// kDownTime later; the per-shard offsets spread recoveries over time.
std::vector<std::vector<fault>> make_faults(time_ns horizon) {
  std::vector<std::vector<fault>> per_shard(kShards);
  constexpr time_ns period = kCrashPeriod;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::uint64_t k = 0;; ++k) {
      const time_ns at = period / 2 + static_cast<time_ns>(k) * period +
                         static_cast<time_ns>(s) * (period / kShards);
      if (at >= horizon) break;
      per_shard[s].push_back(fault{s, static_cast<std::uint32_t>((k + s) % kReplicas), at,
                                   at + kDownTime});
    }
  }
  return per_shard;
}

/// Moves each op whose client replica is (about to be) down to the next
/// replica of the same shard.
void steer_clients(std::vector<sim::kv_op>& ops,
                   const std::vector<std::vector<fault>>& faults,
                   const core::shard_router& router) {
  for (sim::kv_op& op : ops) {
    const std::uint32_t s = router.shard_of(op.entries.front().reg);
    const std::vector<fault>& fs = faults[s];
    if (fs.empty()) continue;  // an execution shorter than half a period
    const time_ns rel = op.at - fs.front().crash_at;
    const std::int64_t k = rel < 0 ? -1 : rel / kCrashPeriod;
    for (std::int64_t i = std::max<std::int64_t>(k, 0); i <= k + 1; ++i) {
      if (i >= static_cast<std::int64_t>(fs.size())) break;
      const fault& f = fs[static_cast<std::size_t>(i)];
      if (op.p.index == f.replica && op.at >= f.crash_at - kGuardBefore &&
          op.at <= f.recover_at + kGuardAfter) {
        op.p = process_id{(op.p.index + 1) % kReplicas};
      }
    }
  }
}

core::shard_router::op_handle submit(core::shard_router& router, const sim::kv_op& op) {
  trace::span_scope sp("core.submit");
  if (op.entries.size() == 1) {
    const sim::kv_op::entry& e = op.entries.front();
    return op.is_read ? router.submit_read(op.p, e.reg, op.at)
                      : router.submit_write(op.p, e.reg, e.val, op.at);
  }
  if (op.is_read) {
    std::vector<register_id> regs;
    regs.reserve(op.entries.size());
    for (const auto& e : op.entries) regs.push_back(e.reg);
    return router.submit_read_batch(op.p, std::move(regs), op.at);
  }
  std::vector<proto::write_op> writes;
  writes.reserve(op.entries.size());
  for (const auto& e : op.entries) writes.push_back(proto::write_op{e.reg, e.val});
  return router.submit_write_batch(op.p, std::move(writes), op.at);
}

/// Crashes each replica of every shard in turn after the run and measures,
/// in virtual time, how long each takes from recovery start until it is
/// ready again.
void recovery_probe(core::shard_router& router, sim_round& out) {
  trace::span_scope sp("proto.recover_probe");
  double writing = 0;
  for (std::uint32_t p = 0; p < kReplicas; ++p) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      router.shard(s).store_of(process_id{p}).for_each(
          storage::record_area::writing, [&writing](register_id, const bytes&) { ++writing; });
    }
    const time_ns t0 = router.now();
    const time_ns recover_at = t0 + 2_ms;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      router.submit_crash(s, process_id{p}, t0 + 1_ms);
      router.submit_recover(s, process_id{p}, recover_at);
    }
    router.run_for(recover_at - t0);
    std::vector<double> ready(kShards, -1.0);
    std::uint32_t pending = kShards;
    while (pending > 0 && router.now() < recover_at + 1_s) {
      router.run_for(kProbeStep);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        if (ready[s] < 0 && router.shard(s).is_ready(process_id{p})) {
          ready[s] = static_cast<double>(router.now() - recover_at) / 1e6;
          --pending;
        }
      }
    }
    if (pending > 0) {
      out.problems.push_back("recovery probe: a replica did not recover within 1 s");
    }
    router.run_until_idle();
    for (const double ms : ready) out.recover_ms.add(ms);
  }
  // A recovery takes one of two virtual times about 10% apart, in similar
  // shares, so a median would flip between them from seed to seed.
  const double read_ms =
      static_cast<double>(router.config().base.recovery_read_latency) / 1e6;
  out.virt["recover_ms"] = out.recover_ms.mean();
  out.counts["proto.recover_round_ms"] = out.recover_ms.mean() - read_ms;
  out.counts["proto.writing_records_at_restart"] =
      per(writing, static_cast<double>(out.recover_ms.count()));
}

/// Post-run reopen() of every simulated replica's WAL (wall clock).
void reopen_probe(core::shard_router& router, sim_round& out) {
  summary us;
  double frames = 0, bytes_read = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::uint32_t p = 0; p < kReplicas; ++p) {
      storage::wal_store* wal = router.shard(s).wal_of(process_id{p});
      if (wal == nullptr) return;
      trace::span_scope sp("storage.reopen");
      const auto t0 = clock_type::now();
      wal->reopen();
      us.add(seconds_since(t0) * 1e6);
      frames += static_cast<double>(wal->last_recovery().frames_replayed);
      bytes_read += static_cast<double>(wal->last_recovery().bytes_read);
    }
  }
  const auto reopens = static_cast<double>(us.count());
  out.wall["storage.reopen_us"] = us.median();
  out.counts["storage.replay_frames_per_recovery"] = per(frames, reopens);
  out.counts["storage.replay_bytes_per_recovery"] = per(bytes_read, reopens);
}

/// Seed of execution `i` of a run with seed `seed` (splitmix64).
std::uint64_t execution_seed(std::uint64_t seed, std::uint32_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

sim_round run_sim_round(std::uint64_t seed, bool detailed, bool checked, bool traced) {
  sim_round out;
  std::array<std::uint64_t, kKindNames.size()> kinds{};

  const std::uint64_t rss_before = detailed ? rss_bytes() : 0;
  const auto t_setup = clock_type::now();
  core::shard_router router(router_config(seed));
  std::vector<sim::kv_op> ops = make_ops(seed, router);
  const time_ns horizon = ops.empty() ? 0 : ops.back().at;
  const std::vector<std::vector<fault>> faults = make_faults(horizon);
  std::uint64_t recoveries = 0;
  steer_clients(ops, faults, router);
  std::vector<core::shard_router::op_handle> handles;
  handles.reserve(ops.size());
  const auto t_submit = clock_type::now();
  for (const sim::kv_op& op : ops) handles.push_back(submit(router, op));
  out.submit_s = seconds_since(t_submit);
  for (const auto& fs : faults) {
    for (const fault& f : fs) {
      router.submit_crash(f.shard, process_id{f.replica}, f.crash_at,
                          core::crash_style::corrupt_tail);
      router.submit_recover(f.shard, process_id{f.replica}, f.recover_at);
      ++recoveries;
    }
  }
  if (traced) {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      router.shard(s).network().set_filter([&kinds](const sim::packet_info& pi) {
        if (pi.kind < kinds.size()) ++kinds[pi.kind];
        return sim::filter_verdict{};
      });
    }
  }
  out.setup_s = seconds_since(t_setup);

  const std::uint64_t allocs_before = allocs_so_far();
  if (traced) set_alloc_counting(true);
  // Shards share nothing while no migration is open, and shard_router drains
  // them one after another too; draining each in slices of kSliceEvents
  // executes exactly what one run_until_idle() would.
  bool idle = true;
  {
    trace::span_scope sp("sim.run_until_idle");
    for (std::uint32_t s = 0; s < kShards; ++s) {
      core::cluster& c = router.shard(s);
      const std::uint64_t start = c.events_executed();
      for (bool shard_idle = false; !shard_idle;) {
        if (c.events_executed() - start > kMaxShardEvents) {
          idle = false;
          break;
        }
        const auto t0 = clock_type::now();
        shard_idle = c.run_until_idle(kSliceEvents);
        out.slice_s.push_back(seconds_since(t0));
      }
    }
    const auto t0 = clock_type::now();
    idle = router.run_until_idle() && idle;  // nothing left: aligns the clocks
    out.slice_s.push_back(seconds_since(t0));
  }
  for (const double s : out.slice_s) out.run_s += s;
  set_alloc_counting(false);
  const std::uint64_t allocs = allocs_so_far() - allocs_before;
  out.events = router.events_executed();

  std::uint64_t digest = 1469598103934665603ULL;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& r = router.result(handles[i]);
    out.keyed_ops += ops[i].entries.size();
    if (r.completed) out.completed_keyed_ops += ops[i].entries.size();
    digest = (digest ^ static_cast<std::uint64_t>(r.completed ? r.completed_at : -1)) *
             1099511628211ULL;
  }
  out.digest = digest ^ out.events;
  if (!detailed) return out;

  // ---- Everything below is outside the timed phases. ----
  out.peak_rss_mb = peak_rss_mb();
  out.retained_bytes_per_op =
      per(static_cast<double>(rss_bytes()) - static_cast<double>(rss_before),
          static_cast<double>(out.keyed_ops));
  const double keyed = static_cast<double>(out.keyed_ops);

  summary first_q, last_q;
  for (const char* cause : {"dropped", "cut_short", "never_completed", "wrong_value"}) {
    out.failed_by_cause[cause] = 0;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& r = router.result(handles[i]);
    if (!r.completed) {
      const char* cause = r.dropped ? "dropped" : idle ? "cut_short" : "never_completed";
      out.failed_by_cause[cause] += ops[i].entries.size();
      continue;
    }
    const double us = static_cast<double>(r.completed_at - ops[i].at) / 1e3;
    (ops[i].is_read ? out.read_us : out.write_us).add(us);
    if (ops[i].is_read && i < ops.size() / 4) first_q.add(us);
    if (ops[i].is_read && i >= ops.size() - ops.size() / 4) last_q.add(us);
  }
  out.virt["read_p50_us"] = out.read_us.median();
  out.virt["read_p99_us"] = out.read_us.percentile(0.99);
  out.virt["write_p50_us"] = out.write_us.median();
  out.virt["write_p99_us"] = out.write_us.percentile(0.99);
  const double q1 = first_q.median(), q4 = last_q.median();
  if (q4 > kMaxLatencyGrowth * q1 + 50.0) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "load-sizing guard: read p50 grew from %.1f us (first quarter) to %.1f us "
                  "(last quarter); the open loop is past saturation",
                  q1, q4);
    out.problems.push_back(buf);
  }

  // Per-layer counts.
  std::uint64_t msgs = 0, net_bytes = 0, stores = 0, compactions = 0;
  proto::quorum_core::branch_stats br;
  summary rt_read, rt_write, clogs_write;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    core::cluster& c = router.shard(s);
    msgs += c.network().messages_routed();
    net_bytes += c.network().bytes_sent();
    const metrics::op_collector col = c.collect();
    rt_read.merge(col.read_round_trips());
    rt_write.merge(col.write_round_trips());
    clogs_write.merge(col.write_causal_logs());
    for (std::uint32_t p = 0; p < kReplicas; ++p) {
      stores += c.durable_stores(process_id{p});
      if (storage::wal_store* wal = c.wal_of(process_id{p})) compactions += wal->compactions();
    }
  }
  out.counts["sim.events_per_op"] = per(static_cast<double>(out.events), keyed);
  out.counts["sim.msgs_per_op"] = per(static_cast<double>(msgs), keyed);
  out.counts["sim.net_bytes_per_op"] = per(static_cast<double>(net_bytes), keyed);
  out.counts["proto.round_trips_per_read"] = rt_read.mean();
  out.counts["proto.round_trips_per_write"] = rt_write.mean();
  out.counts["proto.causal_logs_per_write"] = clogs_write.mean();
  out.counts["storage.stores_per_op"] = per(static_cast<double>(stores), keyed);
  out.counts["storage.compactions_per_kop"] = per(1e3 * static_cast<double>(compactions), keyed);
  if (traced) {
    for (std::size_t k = 1; k < kKindNames.size(); ++k) {
      out.counts[std::string("sim.msgs_by_kind.") + kKindNames[k]] =
          per(static_cast<double>(kinds[k]), keyed);
    }
    out.counts["sim.allocs_per_event"] =
        per(static_cast<double>(allocs), static_cast<double>(out.events));
  }

  const history::history_log h = router.events();
  out.counts["history.events_per_op"] = per(static_cast<double>(h.size()), keyed);
  // Correctness: Lemma-1 tag order on every key, full persistent atomicity
  // on a fixed 1/64 key sample.
  if (checked) {
    trace::span_scope sp("history.check_tag_order");
    const auto tr = history::check_tag_order_per_key(router.tagged_operations());
    if (!tr.ok) {
      out.problems.push_back("tag order: " + tr.explanation);
      out.wrong_values += 1;
    }
  }
  if (checked) {
    trace::span_scope sp("history.check_atomicity_sample");
    history::history_log sample;
    for (const history::event& e : h) {
      if (e.kind == history::event_kind::crash || e.kind == history::event_kind::recover ||
          e.reg % kAtomicitySampleEvery == 0) {
        sample.push_back(e);
      }
    }
    const auto ar = history::check_persistent_atomicity_per_key(sample);
    if (!ar.ok) {
      out.problems.push_back("persistent atomicity: " + ar.explanation);
      out.wrong_values += 1;
    }
    out.atomicity_keys = ar.keys_checked;
  }
  out.failed_by_cause["wrong_value"] += out.wrong_values;

  // Post-run probes: WAL reopen, then a crash-recover of every replica.
  reopen_probe(router, out);
  recovery_probe(router, out);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::uint32_t p = 0; p < kReplicas; ++p) {
      const auto& b = router.shard(s).core_of(process_id{p}).branches();
      br.retransmits += b.retransmits;
      br.recovery_finish_writes += b.recovery_finish_writes;
    }
  }
  out.counts["proto.retransmits_per_kop"] = per(1e3 * static_cast<double>(br.retransmits), keyed);
  out.counts["proto.recovery_finish_writes_per_recovery"] =
      per(static_cast<double>(br.recovery_finish_writes),
          static_cast<double>(recoveries + out.recover_ms.count()));
  out.crashes = recoveries;
  return out;
}

pass_result run_sim_pass(const run_options& opt, bool traced,
                         const std::vector<std::uint64_t>* expect) {
  constexpr std::uint32_t kMaxRounds = 5000;
  pass_result out;
  summary setups, submit_us, reads, writes, recovers;
  // Keyed ops and run_until_idle seconds of the timed rounds, and in a
  // traced pass of its rounds with tracing on.
  double timed_ops = 0, timed_s = 0, spanned_ops = 0, spanned_s = 0;
  // Per execution: keyed ops, and each slice's fastest time over the timed
  // repetitions.
  std::vector<double> exec_ops(kExecutions, 0);
  std::vector<std::vector<double>> best(kExecutions);
  std::map<std::string, double> counts, wall;
  std::uint64_t wrong_values = 0, crashes = 0, keys_checked = 0;
  double peak_mb = 0;
  out.digests.resize(kExecutions);
  // The detailed rounds, one per execution, warm the heap and caches; the
  // wall-clock metrics come from the rounds after them.
  for (std::uint32_t round = 0;
       round < kMaxRounds && (round <= kExecutions || timed_s + spanned_s < opt.seconds);
       ++round) {
    const std::uint32_t e = round % kExecutions;
    const bool detailed = round < kExecutions;
    // After the detailed rounds a traced pass alternates traced and plain
    // rounds, so the tracing overhead compares rounds run side by side.
    const bool traced_round = traced && (detailed || round % 2 == 0);
    if (traced_round) trace::reset();
    trace::enable(traced_round);
    move_to_cpu(opt.cpus, round);
    // A traced pass proves its histories equal the untraced pass's by digest
    // instead of re-running the checks.
    sim_round r = run_sim_round(execution_seed(opt.seed, e), detailed,
                                detailed && expect == nullptr, traced_round);
    trace::enable(false);
    submit_us.add(per(1e6 * r.submit_s, static_cast<double>(r.keyed_ops)));
    out.attempted += r.keyed_ops;
    out.failed += r.keyed_ops - r.completed_keyed_ops;
    if (!detailed) {
      (traced_round ? spanned_ops : timed_ops) += static_cast<double>(r.completed_keyed_ops);
      (traced_round ? spanned_s : timed_s) += r.run_s;
      if (!traced_round) {
        setups.add(r.setup_s);
        exec_ops[e] = static_cast<double>(r.completed_keyed_ops);
        if (best[e].empty()) best[e] = r.slice_s;
        for (std::size_t i = 0; i < best[e].size() && i < r.slice_s.size(); ++i) {
          best[e][i] = std::min(best[e][i], r.slice_s[i]);
        }
      }
      if (r.digest != out.digests[e]) {
        out.fail("round " + std::to_string(round) + " diverged from its first execution");
      }
      continue;
    }
    out.digests[e] = r.digest;
    if (expect != nullptr && (*expect)[e] != r.digest) {
      out.fail("traced execution " + std::to_string(e) + " diverged from the untraced one");
    }
    if (round == 0) {
      // Later executions reuse the heap the first one freed.
      peak_mb = r.peak_rss_mb;
      out.layer["sim.retained_bytes_per_op"] = r.retained_bytes_per_op;
    }
    reads.merge(r.read_us);
    writes.merge(r.write_us);
    recovers.merge(r.recover_ms);
    for (const auto& [k, v] : r.counts) counts[k] += v / kExecutions;
    for (const auto& [k, v] : r.wall) wall[k] += v / kExecutions;
    for (const auto& [k, v] : r.failed_by_cause) out.failed_by_cause[k] += v;
    for (const auto& p : r.problems) out.fail(p);
    wrong_values += r.wrong_values;
    crashes = r.crashes;
    keys_checked += r.atomicity_keys;
  }
  // Wrong values are only detectable in the checked executions; the later
  // repetitions are identical, so each counts once.
  out.failed += wrong_values;

  // On a shared host the same work takes up to ~1.5x longer while other
  // tenants load the core, in stretches from milliseconds to minutes, so
  // any average over a run follows how busy the host was. The neighbours
  // only ever add time: the fastest of many repetitions of a slice is the
  // cost of its work, and the sum over slices is the cost of the execution.
  double best_s = 0, ops = 0;
  for (std::uint32_t e = 0; e < kExecutions; ++e) {
    if (best[e].empty()) continue;
    for (const double s : best[e]) best_s += s;
    ops += exec_ops[e];
  }
  out.e2e["ops_per_s"] = per(ops, best_s);
  out.e2e["setup_s"] = setups.median();
  out.e2e["read_p50_us"] = reads.median();
  out.e2e["write_p50_us"] = writes.median();
  out.e2e["recover_ms"] = recovers.mean();
  out.e2e["peak_rss_mb"] = peak_mb;
  // Exact per seed, but not end-to-end metrics: every workload must report
  // every end-to-end metric, and rt_tcp_kv's wall-clock p99 is not steady.
  out.layer["sim.read_p99_us"] = reads.percentile(0.99);
  out.layer["sim.write_p99_us"] = writes.percentile(0.99);

  for (const auto& [k, v] : counts) out.layer[k] = v;
  for (const auto& [k, v] : wall) out.layer[k] = v;
  out.layer["core.submit_us_per_op"] = submit_us.median();
  if (traced) {
    out.layer["trace.traced_ops_per_s"] = per(spanned_ops, spanned_s);
    out.layer["trace.untraced_ops_per_s"] = per(timed_ops, timed_s);
  }
  char rates[96];
  std::snprintf(rates, sizeof rates, "%.0f keyed ops/s over their whole run_until_idle time",
                per(timed_ops, timed_s));
  out.notes.push_back(std::to_string(setups.count()) + " timed rounds after " +
                      std::to_string(kExecutions) + " detailed ones, cycling " +
                      std::to_string(kExecutions) + " seeded executions of " +
                      std::to_string(kKeyedOps) + " keyed ops (" + std::to_string(crashes) +
                      " crash-recoveries each), " + rates + "; ops_per_s sums each " +
                      "execution's slices at their fastest repetition, setup_s is the " +
                      "median set-up time");
  char p99s[96];
  std::snprintf(p99s, sizeof p99s, "read p99 %.1f us, write p99 %.1f us",
                reads.percentile(0.99), writes.percentile(0.99));
  out.notes.push_back("virtual latency samples: " + std::to_string(reads.count()) + " reads, " +
                      std::to_string(writes.count()) +
                      " writes (one per op, a batch is one op); " + p99s +
                      "; recover_ms is the mean of " + std::to_string(recovers.count()) +
                      " post-run recoveries");
  if (expect == nullptr) {
    out.notes.push_back("checked: tag order on every key, persistent atomicity on " +
                        std::to_string(keys_checked) + " sampled key projections");
  }
  return out;
}

}  // namespace perfbench
