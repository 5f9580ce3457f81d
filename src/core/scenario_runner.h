// Executes a sim::scenario_plan against a shard_router under a kv_workload
// and checks the result with the history checkers — the driver half of the
// adversarial scenario engine (sim/scenario.h is the pure plan half; this
// layer owns the core/ dependencies).
//
// A scenario_spec is everything one fuzzed run needs: the fault plan, the
// workload shape, the policy, the seeds, and (for the fuzzer's
// catch-the-planted-bug check) an injected migration fault. Specs round-trip
// through a one-line codec so a failing run prints a self-contained repro
// line that decode() turns back into the identical run — the fuzzer and the
// regression tests share it.
//
// Timed semantics: crash/recover events are scheduled ahead of time through
// the router; cut/heal/gray/begin_migration are imperative, so run_scenario
// advances the simulation in segments (run_for up to each event's instant,
// apply, continue), then runs to idle and closes any open migration window.
// Because every plan is well_formed, the tail of the run has all processes
// up and all links clean, so termination is the paper's
// eventually-correct-majority guarantee in action.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/shard_router.h"
#include "history/event.h"
#include "sim/scenario.h"

namespace remus::core {

struct scenario_spec {
  sim::scenario_plan plan;
  // Workload shape (sim::kv_workload over plan.n processes per shard).
  std::uint32_t key_count = 8;
  std::uint32_t ops = 40;
  double read_fraction = 0.5;
  double zipf_theta = 0.0;
  std::uint32_t batch_size = 1;
  time_ns mean_gap = 200 * 1000;
  std::uint64_t workload_seed = 1;
  std::uint64_t cluster_seed = 1;
  /// 'p' = persistent emulation, 't' = transient (picks the matching
  /// atomicity criterion too).
  char policy = 'p';
  /// Deliberate bug to plant (fuzzer acceptance check); none for real runs.
  shard_router_config::injected_fault fault = shard_router_config::injected_fault::none;
  /// Run with read leases on (short duration, hot-key threshold 1) so the
  /// fault plan lands on live leases. Also turned on automatically when the
  /// plan contains a lease-family unit. Encoded as an optional 11th field —
  /// pre-lease repro lines (10 fields) decode with leases off.
  bool leases = false;

  [[nodiscard]] bool operator==(const scenario_spec&) const = default;

  /// One-line self-contained repro: "s1|<workload fields>|<plan line>".
  /// decode throws std::invalid_argument on malformed input.
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static scenario_spec decode(const std::string& line);
};

struct scenario_outcome {
  bool ran_to_idle = false;
  /// The migration window (if the plan opened one) drained and was retired.
  bool migration_closed = true;
  bool atomic = false;
  bool tag_ordered = false;
  /// Every shard's history carries exactly its op results' times
  /// (cluster::check_history_times).
  bool times_consistent = false;
  /// First violation's explanation (empty when ok()).
  std::string failure;
  std::size_t completed_ops = 0;
  std::size_t keys_checked = 0;
  /// Plan families/overlaps plus the run's protocol-branch counters.
  sim::scenario_coverage coverage;
  history::history_log history;
  std::vector<shard_router::migration_event> migration_log;

  [[nodiscard]] bool ok() const {
    return ran_to_idle && migration_closed && atomic && tag_ordered && times_consistent;
  }
};

/// Runs the spec to completion (deterministic: outcome is a pure function of
/// the spec — `workers` changes wall-clock time only, never the outcome; the
/// parallel determinism pin leans on exactly that) and checks per-key
/// atomicity and per-key tag order. `workers` maps to
/// shard_router_config::workers (1 = sequential, 0 = hardware concurrency).
[[nodiscard]] scenario_outcome run_scenario(const scenario_spec& spec,
                                            std::uint32_t workers = 1);

/// Delta-debugging minimization of a failing spec: sim::minimize_plan over
/// the fault plan interleaved with workload shrinking (halve the key set and
/// the op count while the failure reproduces). The input spec must fail
/// (!run_scenario(spec).ok()); the result still fails.
[[nodiscard]] scenario_spec minimize_scenario(const scenario_spec& failing);

}  // namespace remus::core
