// Shared result types and measurement helpers for the perfbench program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/stats.h"

namespace perfbench {

using clock_type = std::chrono::steady_clock;
using remus::metrics::summary;

[[nodiscard]] inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// num / den; 0 when den is 0.
[[nodiscard]] inline double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Resident set size right now, in bytes (/proc/self/statm).
[[nodiscard]] std::uint64_t rss_bytes();
/// Peak resident set size of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Allocation counting (alloc_count.cpp replaces the global operator new).
/// Off unless enabled; the counter is process-wide.
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t allocs_so_far();

/// Failure causes, counted per keyed op.
using cause_counts = std::map<std::string, std::uint64_t>;

/// Everything one measured pass of a workload produces. End-to-end metrics
/// are named as in BENCHMARK.json; per-layer metrics carry their layer
/// prefix (sim., proto., storage., core., runtime., history.). A pass fills
/// in only the metrics its workload exercises.
struct pass_result {
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  std::uint64_t attempted = 0;        // keyed ops attempted
  std::uint64_t failed = 0;           // keyed ops failed (any cause)
  cause_counts failed_by_cause;       // every cause the workload can produce
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;  // human-readable context lines
  std::vector<std::uint64_t> digests;  // simulator: one per seeded execution

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory inside the working tree for WAL files and probes.
  std::string scratch_dir = ".bench_build/perfbench-run";
  /// CPUs the measurement rotates over (see move_to_cpu); empty: no pinning.
  std::vector<int> cpus;
};

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Confines every thread of this process, and every thread started later,
/// to cpus[step % cpus.size()]. Called between measurement windows, it keeps
/// a multi-threaded workload's hand-offs on one CPU while one run still
/// samples every CPU it was given: on a shared host each virtual CPU's
/// speed follows its own neighbours.
void move_to_cpu(const std::vector<int>& cpus, std::size_t step);

}  // namespace perfbench
