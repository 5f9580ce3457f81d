#include "core/scenario_runner.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "history/keyed.h"
#include "history/tag_order.h"
#include "sim/kv_workload.h"

namespace remus::core {

namespace {

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double double_from_bits(std::uint64_t bits) {
  double d = 0.0;
  std::memcpy(&d, &bits, sizeof(bits));
  return d;
}

std::uint64_t parse_u64(const std::string& tok) {
  std::size_t used = 0;
  const std::uint64_t v = std::stoull(tok, &used);
  if (used != tok.size()) throw std::invalid_argument("spec: bad number " + tok);
  return v;
}

}  // namespace

std::string scenario_spec::encode() const {
  std::ostringstream os;
  os << "s1|" << key_count << ',' << ops << ',' << double_bits(read_fraction) << ','
     << double_bits(zipf_theta) << ',' << batch_size << ',' << mean_gap << ','
     << workload_seed << ',' << cluster_seed << ',' << policy << ','
     << static_cast<int>(fault) << ',' << (leases ? 1 : 0) << '|'
     << sim::encode(plan);
  return os.str();
}

scenario_spec scenario_spec::decode(const std::string& line) {
  const std::size_t bar1 = line.find('|');
  const std::size_t bar2 = bar1 == std::string::npos ? bar1 : line.find('|', bar1 + 1);
  if (line.substr(0, bar1) != "s1" || bar2 == std::string::npos) {
    throw std::invalid_argument("spec: bad repro header");
  }
  const std::string fields = line.substr(bar1 + 1, bar2 - bar1 - 1);
  std::vector<std::string> f;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= fields.size(); ++i) {
    if (i == fields.size() || fields[i] == ',') {
      f.push_back(fields.substr(start, i - start));
      start = i + 1;
    }
  }
  // 10 fields is the pre-lease line format; the 11th (leases) is optional so
  // old corpus repro lines stay valid.
  if ((f.size() != 10 && f.size() != 11) || f[8].size() != 1) {
    throw std::invalid_argument("spec: bad field count");
  }
  scenario_spec spec;
  spec.key_count = static_cast<std::uint32_t>(parse_u64(f[0]));
  spec.ops = static_cast<std::uint32_t>(parse_u64(f[1]));
  spec.read_fraction = double_from_bits(parse_u64(f[2]));
  spec.zipf_theta = double_from_bits(parse_u64(f[3]));
  spec.batch_size = static_cast<std::uint32_t>(parse_u64(f[4]));
  spec.mean_gap = static_cast<time_ns>(parse_u64(f[5]));
  spec.workload_seed = parse_u64(f[6]);
  spec.cluster_seed = parse_u64(f[7]);
  spec.policy = f[8][0];
  if (spec.policy != 'p' && spec.policy != 't') {
    throw std::invalid_argument("spec: bad policy");
  }
  const std::uint64_t fault = parse_u64(f[9]);
  if (fault > static_cast<std::uint64_t>(
                  shard_router_config::injected_fault::skip_read_writeback)) {
    throw std::invalid_argument("spec: bad fault");
  }
  spec.fault = static_cast<shard_router_config::injected_fault>(fault);
  if (f.size() == 11) {
    const std::uint64_t leases = parse_u64(f[10]);
    if (leases > 1) throw std::invalid_argument("spec: bad leases flag");
    spec.leases = leases == 1;
  }
  spec.plan = sim::decode_plan(line.substr(bar2 + 1));
  return spec;
}

scenario_outcome run_scenario(const scenario_spec& spec, std::uint32_t workers) {
  scenario_outcome out;
  const sim::scenario_plan& plan = spec.plan;

  shard_router_config cfg;
  cfg.shards = plan.shards;
  cfg.workers = workers;
  cfg.base.n = plan.n;
  cfg.base.policy =
      spec.policy == 't' ? proto::transient_policy() : proto::persistent_policy();
  // Lease runs (explicit flag or a lease-family unit in the plan) turn the
  // read-lease fast path on with an aggressive tuning — every read a grant
  // candidate, lease windows short enough that expiry races the fault plan.
  bool leases = spec.leases;
  for (const sim::scenario_event& e : plan.events) {
    if (e.family == sim::fault_family::lease) leases = true;
  }
  if (leases) {
    cfg.base.policy.read_leases = true;
    cfg.base.policy.lease_hot_read_threshold = 1;
    cfg.base.policy.lease_duration = 5 * 1000 * 1000;  // 5 ms virtual
  }
  cfg.base.seed = spec.cluster_seed;
  // Scenario runs exercise the WAL engine so corrupt_crash has a medium to
  // damage; throughput benchmarks keep the map store (zero-allocation path).
  cfg.base.wal_storage = true;
  cfg.test_fault = spec.fault;
  shard_router router(cfg);

  // Gray links ride each shard's packet filter: the filter consults this
  // table (one slot per original shard; a migration-born shard is never
  // grayed). Cuts are checked before the filter, so partitions compose.
  struct gray_entry {
    process_id from;
    process_id to;
    time_ns extra_delay = 0;
    double loss = 0.0;
  };
  std::vector<std::vector<gray_entry>> grays(plan.shards);
  rng gray_master(spec.cluster_seed ^ 0xadead5cedull);
  for (std::uint32_t s = 0; s < plan.shards; ++s) {
    const std::vector<gray_entry>* table = &grays[s];
    const time_ns base_delay = cfg.base.net.base_delay;
    rng coin = gray_master.fork();
    router.shard(s).network().set_filter(
        [table, base_delay, coin](const sim::packet_info& p) mutable {
          sim::filter_verdict v;
          for (const gray_entry& g : *table) {
            if (p.from != g.from || p.to != g.to) continue;
            if (g.loss > 0 && coin.chance(g.loss)) {
              v.drop = true;
              return v;
            }
            if (g.extra_delay > 0) v.deliver_at = p.now + base_delay + g.extra_delay;
            return v;
          }
          return v;
        });
  }

  // Crash/recover events schedule ahead of time; the rest are imperative and
  // applied in segments below.
  std::vector<const sim::scenario_event*> imperative;
  for (const sim::scenario_event& e : plan.events) {
    switch (e.kind) {
      case sim::scenario_kind::crash:
        router.submit_crash(e.shard, e.target, e.at);
        break;
      case sim::scenario_kind::corrupt_crash:
        router.submit_crash(e.shard, e.target, e.at, crash_style::corrupt_tail);
        break;
      case sim::scenario_kind::recover:
        router.submit_recover(e.shard, e.target, e.at);
        break;
      default:
        imperative.push_back(&e);
        break;
    }
  }

  sim::kv_workload_config wcfg;
  wcfg.n = plan.n;
  wcfg.key_count = spec.key_count;
  wcfg.zipf_theta = spec.zipf_theta;
  wcfg.read_fraction = spec.read_fraction;
  wcfg.batch_size = spec.batch_size;
  wcfg.ops = spec.ops;
  wcfg.mean_gap = spec.mean_gap;
  wcfg.seed = spec.workload_seed;
  std::vector<sim::kv_op> work = sim::make_kv_workload(wcfg);
  // The generator emits per-process arrival streams interleaved in sampling
  // order; the merge below needs one globally time-sorted stream (stable, so
  // each process's own ops keep their order on ties).
  std::stable_sort(work.begin(), work.end(),
                   [](const sim::kv_op& a, const sim::kv_op& b) { return a.at < b.at; });

  // Segmented execution over the merged timeline of workload arrivals and
  // imperative fault events. Each operation is submitted at its own arrival
  // instant — routing decisions (shard_of, the migration-window discipline)
  // happen at submission, so ops invoked inside the window must not be
  // submitted before it opens. Ties apply the fault first (a cut at t
  // affects an op arriving at t).
  std::vector<shard_router::op_handle> handles;
  handles.reserve(work.size());
  const auto apply_event = [&](const sim::scenario_event& e) {
    switch (e.kind) {
      case sim::scenario_kind::cut: {
        std::vector<process_id> in, rest;
        for (std::uint32_t p = 0; p < plan.n; ++p) {
          ((e.group_mask >> p) & 1u ? in : rest).push_back(process_id{p});
        }
        router.shard(e.shard).network().partition({in, rest});
        break;
      }
      case sim::scenario_kind::heal:
        router.shard(e.shard).network().restore_all_links();
        grays[e.shard].clear();
        break;
      case sim::scenario_kind::gray:
        grays[e.shard].push_back({e.target, e.peer, e.extra_delay, e.loss});
        break;
      case sim::scenario_kind::begin_migration:
        if (!router.migration_active() && router.shard_count() == plan.shards) {
          router.begin_add_shard();
        }
        break;
      default:
        break;  // crash/recover were scheduled above
    }
  };
  const auto submit_op = [&](const sim::kv_op& op) {
    handles.push_back(router.submit(op.p, op.is_read, sim::entries_of(op),
                                    std::max(op.at, router.now())));
  };
  std::size_t wi = 0;
  std::size_t ei = 0;
  while (wi < work.size() || ei < imperative.size()) {
    const bool event_next =
        ei < imperative.size() &&
        (wi >= work.size() || imperative[ei]->at <= work[wi].at);
    const time_ns at = event_next ? imperative[ei]->at : work[wi].at;
    if (at > router.now()) router.run_for(at - router.now());
    if (event_next) {
      apply_event(*imperative[ei++]);
    } else {
      submit_op(work[wi++]);
    }
  }

  out.ran_to_idle = router.run_until_idle();
  if (router.migration_active()) {
    if (router.migration_drained()) {
      router.finish_add_shard();
    } else {
      out.migration_closed = false;
      out.failure = "migration window failed to drain";
    }
  }

  // Audit pass: with the system quiesced (every process up, links clean, any
  // migration window retired), read every key once. A completed write whose
  // state some fault path lost — a dropped handoff, a rolled-back register —
  // surfaces as a stale read here instead of going unobserved because the
  // workload happened to end first.
  if (out.migration_closed) {
    for (register_id k = 0; k < spec.key_count; ++k) {
      handles.push_back(router.submit_read(process_id{0}, k, router.now()));
    }
    if (!router.run_until_idle()) out.ran_to_idle = false;
  }

  for (const shard_router::op_handle h : handles) {
    if (router.result(h).completed) out.completed_ops += 1;
  }

  out.history = router.events();
  // One execution, one set of times: the checkers below judge the history,
  // so it must carry exactly the times the shards' op results report.
  out.times_consistent = true;
  for (std::uint32_t s = 0; s < router.shard_count() && out.times_consistent; ++s) {
    const std::string err = router.shard(s).check_history_times();
    if (!err.empty()) {
      out.times_consistent = false;
      if (out.failure.empty()) out.failure = "shard " + std::to_string(s) + ": " + err;
    }
  }
  const history::criterion crit = cfg.base.policy.recovery_counter
                                      ? history::criterion::transient
                                      : history::criterion::persistent;
  const history::keyed_check_result atom =
      history::check_atomicity_per_key(out.history, crit);
  out.atomic = atom.ok;
  out.keys_checked = atom.keys_checked;
  if (!atom.ok && out.failure.empty()) out.failure = atom.explanation;
  const history::tag_order_result order =
      history::check_tag_order_per_key(router.tagged_operations());
  out.tag_ordered = order.ok;
  if (!order.ok && out.failure.empty()) out.failure = order.explanation;
  if (!out.ran_to_idle && out.failure.empty()) {
    out.failure = "run did not reach idle within the event budget";
  }

  // Coverage: plan families/overlaps, protocol branches, migration paths.
  sim::accumulate_plan_coverage(plan, out.coverage);
  for (std::uint32_t s = 0; s < router.shard_count(); ++s) {
    for (std::uint32_t p = 0; p < plan.n; ++p) {
      const proto::quorum_core::branch_stats& b =
          router.shard(s).core_of(process_id{p}).branches();
      out.coverage.adoptions += b.adoptions;
      out.coverage.stale_updates += b.stale_updates;
      out.coverage.adopt_splits += b.adopt_splits;
      out.coverage.retransmits += b.retransmits;
      out.coverage.retransmit_trims += b.retransmit_trims;
      out.coverage.recovery_finish_writes += b.recovery_finish_writes;
      out.coverage.leased_read_hits += b.leased_read_hits;
      out.coverage.lease_grants += b.lease_grants;
      out.coverage.lease_invalidations += b.lease_invalidations;
      out.coverage.lease_expiries += b.lease_expiries;
    }
  }
  out.migration_log = router.migration_log();
  for (const shard_router::migration_event& me : out.migration_log) {
    switch (me.why) {
      case shard_router::migration_event::cause::write_handoff:
        out.coverage.handoff_writes += 1;
        break;
      case shard_router::migration_event::cause::drain:
        out.coverage.handoff_drains += 1;
        break;
      case shard_router::migration_event::cause::read_writeback:
        out.coverage.handoff_writebacks += 1;
        break;
      case shard_router::migration_event::cause::lease_drop:
        out.coverage.handoff_lease_drops += 1;
        break;
    }
  }
  return out;
}

scenario_spec minimize_scenario(const scenario_spec& failing) {
  scenario_spec cur = failing;
  const auto fails = [](const scenario_spec& s) { return !run_scenario(s).ok(); };
  const auto minimize_cur_plan = [&] {
    cur.plan = sim::minimize_plan(cur.plan, [&](const sim::scenario_plan& p) {
      scenario_spec cand = cur;
      cand.plan = p;
      return fails(cand);
    });
  };

  minimize_cur_plan();
  // Workload shrink: halve the key set and the op count while the failure
  // reproduces (regenerated workload — the failure must survive re-keying).
  bool changed = true;
  while (changed) {
    changed = false;
    if (cur.key_count > 1) {
      scenario_spec cand = cur;
      cand.key_count = cur.key_count / 2;
      if (fails(cand)) {
        cur = cand;
        changed = true;
      }
    }
    if (cur.ops > 4) {
      scenario_spec cand = cur;
      cand.ops = cur.ops / 2;
      if (fails(cand)) {
        cur = cand;
        changed = true;
      }
    }
    if (cur.batch_size > 1) {
      scenario_spec cand = cur;
      cand.batch_size = 1;
      if (fails(cand)) {
        cur = cand;
        changed = true;
      }
    }
  }
  // A smaller workload may strand fault units that only mattered for the
  // dropped operations: one more plan pass.
  minimize_cur_plan();
  return cur;
}

}  // namespace remus::core
