// The simulator workload, sim_kv_faults: a sharded namespace (4 shards x 3
// replicas, persistent emulation, paper_testbed costs, WAL storage) driven
// by an open-loop, virtual-time Zipf workload with 50% reads, a quarter of
// the keyed ops in 8-key shard-local batches, and on a fixed virtual period
// one replica per shard crashing with a corrupt tail and recovering. Storage
// and recovery do most of their work here.
//
// A run cycles through a fixed set of seeded executions ("rounds") until the
// wall-clock budget is spent. Repeating an execution repeats it exactly in
// virtual time, so virtual metrics and counts pool the first round of each
// execution and repeat exactly per seed, while the wall-clock rate comes
// from the fastest repetition of each slice of each execution.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One execution of the seeded workload.
struct sim_round {
  double setup_s = 0;   // router + workload generation + submission
  double submit_s = 0;  // the submit_* calls alone
  double run_s = 0;     // run_until_idle
  /// run_s in slices of kSliceEvents events (sim_workloads.cpp); every
  /// repetition of an execution does the same work in each slice.
  std::vector<double> slice_s;
  std::uint64_t keyed_ops = 0;
  std::uint64_t completed_keyed_ops = 0;
  std::uint64_t events = 0;
  std::uint64_t crashes = 0;  // crash-recover pairs in the schedule
  /// Hash of every op's completion time: equal digests mean equal rounds.
  std::uint64_t digest = 0;

  // Filled only for a detailed round.
  std::map<std::string, double> virt;    // virtual-time metrics (exact per seed)
  std::map<std::string, double> counts;  // per-layer counts (exact per seed)
  std::map<std::string, double> wall;    // per-layer wall-clock numbers
  cause_counts failed_by_cause;
  std::uint64_t wrong_values = 0;
  std::vector<std::string> problems;
  summary read_us, write_us;         // virtual latency per op
  summary recover_ms;                // recovery probe, one per replica
  std::size_t atomicity_keys = 0;    // key projections checked
  double peak_rss_mb = 0;            // after run_until_idle
  double retained_bytes_per_op = 0;  // RSS growth over set-up and run
};

/// Runs one execution. `detailed` adds latencies, per-layer counts and the
/// post-run probes, `checked` the correctness checks (all outside the timed
/// phases); `traced` adds the packet-filter counts, spans and allocation
/// counting.
[[nodiscard]] sim_round run_sim_round(std::uint64_t seed, bool detailed, bool checked,
                                      bool traced);

/// Rounds, cycling through the run's seeded executions, until `opt.seconds`
/// of run_until_idle time is spent. The first round of each execution is
/// detailed and checked; later ones must repeat its digest. A traced pass
/// passes the untraced pass's digests as `expect` and skips the checks.
[[nodiscard]] pass_result run_sim_pass(const run_options& opt, bool traced,
                                       const std::vector<std::uint64_t>* expect = nullptr);

}  // namespace perfbench
