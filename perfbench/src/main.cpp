// perfbench: the remus end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch-dir DIR]
//
// Workloads: sim_kv_faults (sim_workloads.h) and rt_tcp_kv (rt_workload.h).
// An untraced run prints the end-to-end metrics; a traced run repeats the
// workload with the decorators, the packet filter, the spans and allocation
// counting on, and prints the per-layer metrics the workload exercises plus
// the tracing overhead, from windows alternating tracing on and off. Either
// way the last line of standard output is one JSON object, metric names
// mapped to values (run.py checks the names and adds the units):
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {"name": value, ...}}
// Exit status: 0 correct, 1 a correctness check failed (result printed),
// 2 bad arguments, 3 the run could not complete (no result printed).
#include <sys/statfs.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.h"
#include "rt_workload.h"
#include "sim_workloads.h"
#include "trace.h"

namespace perfbench {
namespace {

struct environment {
  unsigned nproc = 0;
  double effective_cores = 0;
  std::string fs_type;
  double fsync_p50_us = 0;
};

/// N spinners at once against one alone: N * t1 / tN usable cores. The lone
/// spinner runs before and after, and the faster of the two counts.
double parallelism_probe(unsigned n) {
  constexpr std::uint64_t kIters = 20'000'000;
  auto spin = [] {
    std::uint64_t x = 1;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the loop
    }
    return x;
  };
  std::atomic<std::uint64_t> sink{0};
  auto alone = [&] {
    const auto t0 = clock_type::now();
    sink += spin();
    return seconds_since(t0);
  };
  const double before = alone();
  const auto tn_start = clock_type::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) threads.emplace_back([&] { sink += spin(); });
  for (auto& t : threads) t.join();
  const double tn = seconds_since(tn_start);
  const double t1 = std::min(before, alone());
  return tn > 0 ? n * t1 / tn : 0.0;
}

std::string fs_type_of(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// p50 of a 48-byte append + fsync in `dir`, the WAL's unit of work.
double fsync_probe(const std::string& dir) {
  const std::string path = dir + "/fsync-probe-" + std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_TRUNC, 0644);
  if (fd < 0) return 0;
  char buf[48] = {};
  summary us;
  for (int i = 0; i < 100; ++i) {
    const auto t0 = clock_type::now();
    if (::write(fd, buf, sizeof buf) != static_cast<ssize_t>(sizeof buf)) break;
    ::fsync(fd);
    us.add(seconds_since(t0) * 1e6);
  }
  ::close(fd);
  ::unlink(path.c_str());
  return us.median();
}

environment probe_environment(const std::string& dir) {
  environment env;
  env.nproc = std::max(1u, std::thread::hardware_concurrency());
  env.effective_cores = parallelism_probe(env.nproc);
  env.fs_type = fs_type_of(dir);
  env.fsync_p50_us = fsync_probe(dir);
  return env;
}

void print_number(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim_kv_faults|rt_tcp_kv --seed N "
               "--seconds S --trace 0|1 [--scratch-dir DIR]\n");
}

bool parse(int argc, char** argv, std::string& workload, run_options& opt) {
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (flag == "--scratch-dir") {
      opt.scratch_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds &&
         (workload == "sim_kv_faults" || workload == "rt_tcp_kv");
}

pass_result run_pass(const std::string& workload, const run_options& opt,
                     const pass_result* untraced) {
  const bool traced = untraced != nullptr;
  if (workload == "rt_tcp_kv") return run_rt_pass(opt, traced);
  return run_sim_pass(opt, traced, traced ? &untraced->digests : nullptr);
}

int run(int argc, char** argv) {
  std::string workload;
  run_options opt;
  if (!parse(argc, argv, workload, opt)) {
    usage();
    return 2;
  }
  std::filesystem::create_directories(opt.scratch_dir);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  const environment env = probe_environment(opt.scratch_dir);
  // Read before anything is pinned: a workload runs on one of these CPUs at
  // a time, moving to the next after every round or segment.
  opt.cpus = allowed_cpus();
  std::string cpus;
  for (const int c : opt.cpus) cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  std::printf("env {\"nproc\": %u, \"effective_cores\": %.2f, \"wal_dir_fs\": \"%s\", "
              "\"fsync_p50_us\": %.1f, \"cpus\": [%s]}\n",
              env.nproc, env.effective_cores, env.fs_type.c_str(), env.fsync_p50_us, cpus.c_str());
  std::fflush(stdout);

  const pass_result base = run_pass(workload, opt, nullptr);
  pass_result traced;
  if (opt.trace) traced = run_pass(workload, opt, &base);

  const pass_result* passes[] = {&base, &traced};
  const bool correct = base.correct && (!opt.trace || traced.correct);
  const std::uint64_t attempted = base.attempted + (opt.trace ? traced.attempted : 0);
  const std::uint64_t failed = base.failed + (opt.trace ? traced.failed : 0);

  for (const auto& [k, v] : base.e2e) std::printf("%-14s %14.3f\n", k.c_str(), v);
  std::printf("%-14s %14.6f frac (%llu of %llu keyed ops failed)\n", "failed_frac",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const pass_result* p : passes) {
    for (const auto& [cause, n] : p->failed_by_cause) {
      std::printf("failed_by_cause %s %llu\n", cause.c_str(), static_cast<unsigned long long>(n));
    }
  }
  for (const std::string& note : base.notes) std::printf("note: %s\n", note.c_str());
  for (const pass_result* p : passes) {
    for (const std::string& why : p->problems) std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  std::map<std::string, double> layer;
  if (opt.trace) {
    layer = traced.layer;
    for (const pass_result* p : passes) {
      for (const auto& [cause, n] : p->failed_by_cause) {
        layer["core.failed_by_cause." + cause] += static_cast<double>(n);
      }
    }
    // Wall-clock tails come from the untraced pass (spans would inflate
    // them), and so does heap growth (the traced pass reuses its heap).
    for (const char* k :
         {"runtime.read_p99_us", "runtime.write_p99_us", "sim.retained_bytes_per_op"}) {
      if (base.layer.count(k) > 0) layer[k] = base.layer.at(k);
    }
    // Both rates come from the traced pass, whose measurement windows
    // alternate between tracing on and off.
    const double untraced = layer["trace.untraced_ops_per_s"];
    const double with_trace = layer["trace.traced_ops_per_s"];
    layer["trace.overhead_frac"] = untraced > 0 ? 1.0 - with_trace / untraced : 0.0;
    layer["env.nproc"] = env.nproc;
    layer["env.effective_cores"] = env.effective_cores;
    layer["env.fsync_p50_us"] = env.fsync_p50_us;
    std::printf("tracing overhead: %.1f%% (%.1f -> %.1f ops/s)\n",
                100.0 * layer["trace.overhead_frac"], untraced, with_trace);
    const std::string spans_path =
        opt.scratch_dir + "/spans-" + workload + ".tsv";
    const std::size_t n = trace::write_tsv(spans_path);
    std::printf("spans: %zu written to %s\n", n, spans_path.c_str());
    for (const auto& [k, v] : layer) std::printf("layer %-44s %.6g\n", k.c_str(), v);
  }

  // Only the metrics the passes filled in, without units: run.py checks the
  // names against BENCHMARK.json and adds the units.
  const std::map<std::string, double>& metrics = opt.trace ? layer : base.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\": ", sep, k.c_str());
    print_number(v);
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
