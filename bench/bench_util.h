// Shared helpers for the benchmark harness.
//
// Every paper-figure bench binary prints a table shaped like the
// corresponding paper figure, in virtual time, and exits 0.
//
// The cost model is calibrated to the paper's constants (sections I-A, V-A):
// one-way LAN transit ~0.1 ms, one small synchronous log ~0.2 ms, 100 Mbps
// wire, IDE-class disk bandwidth, negligible CPU cost.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster.h"
#include "metrics/op_metrics.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "proto/policy.h"

namespace remus::bench {

// ---- Machine-readable results ------------------------------------------------
//
// Every bench binary can emit its headline numbers as a flat JSON object so
// the perf trajectory is trackable across PRs (`BENCH_<name>.json`). Pass
// `--json` to write the default file or `--json=PATH` to choose the location.

class json_report {
 public:
  explicit json_report(std::string name) : name_(std::move(name)) {}

  void set(std::string key, double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v))) {
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    entries_.emplace_back(std::move(key), buf);
  }

  void set(std::string key, std::string_view v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    entries_.emplace_back(std::move(key), std::move(quoted));
  }

  [[nodiscard]] std::string render() const {
    std::string out = "{\n  \"bench\": \"" + name_ + "\"";
    for (const auto& [k, v] : entries_) out += ",\n  \"" + k + "\": " + v;
    out += "\n}\n";
    return out;
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << render();
    return static_cast<bool>(f);
  }

  /// Honors `--json` / `--json=PATH` on the command line; returns true if a
  /// file was written (default path: BENCH_<name>.json in the working dir).
  /// An unwritable path is reported on stderr rather than ignored.
  bool write_if_requested(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      std::string path;
      if (arg == "--json") {
        path = "BENCH_" + name_ + ".json";
      } else if (arg.rfind("--json=", 0) == 0) {
        path = std::string(arg.substr(7));
      } else {
        continue;
      }
      if (write(path)) return true;
      std::fprintf(stderr, "warning: could not write bench results to %s\n",
                   path.c_str());
      return false;
    }
    return false;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key -> literal
};

[[nodiscard]] inline bool flag_present(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Parses `--flag N` / `--flag=N`; returns `fallback` when absent.
[[nodiscard]] inline std::uint32_t flag_u32(int argc, char** argv, std::string_view flag,
                                            std::uint32_t fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag && i + 1 < argc) {
      return static_cast<std::uint32_t>(std::strtoul(argv[i + 1], nullptr, 10));
    }
    if (arg.size() > flag.size() + 1 && arg.substr(0, flag.size()) == flag &&
        arg[flag.size()] == '=') {
      return static_cast<std::uint32_t>(
          std::strtoul(arg.data() + flag.size() + 1, nullptr, 10));
    }
  }
  return fallback;
}

/// Configuration mirroring the paper's testbed (section V-A).
inline core::cluster_config paper_testbed(proto::protocol_policy pol, std::uint32_t n,
                                          std::uint64_t seed = 1) {
  core::cluster_config cfg;
  cfg.n = n;
  cfg.policy = std::move(pol);
  cfg.seed = seed;
  cfg.net.base_delay = 115_us;   // "0.1ms transit" + NIC/UDP stack overhead
  cfg.net.jitter = 8_us;
  cfg.net.bandwidth_bps = 100'000'000 / 8;  // 100 Mbps LAN
  cfg.net.loopback_delay = 12_us;
  cfg.disk.base_latency = 200_us;  // "logging a single byte might take twice as long"
  cfg.disk.bandwidth_bps = 20'000'000;  // IDE-era sustained writes
  cfg.process_step_cost = 6_us;
  return cfg;
}

struct latency_result {
  metrics::summary latency_us;
  metrics::summary causal_logs;
  metrics::summary total_logs;
  metrics::summary messages;
  metrics::summary round_trips;
};

/// The paper's first experiment (section V-B): repeat a write of `payload`
/// bytes from p0 `reps` times and collect per-op samples.
inline latency_result measure_writes(const core::cluster_config& cfg, std::size_t payload,
                                     int reps) {
  core::cluster c(cfg);
  latency_result out;
  for (int i = 0; i < reps; ++i) {
    const auto h = c.submit_write(process_id{0},
                                  value_of_size(payload == 0 ? 4 : payload,
                                                static_cast<std::uint8_t>(i + 1)),
                                  c.now());
    if (!c.run_until_idle()) break;
    const auto& r = c.result(h);
    if (!r.completed) continue;
    out.latency_us.add(to_us(r.sample.latency));
    out.causal_logs.add(r.sample.causal_logs);
    out.total_logs.add(r.sample.total_logs);
    out.messages.add(r.sample.messages);
    out.round_trips.add(r.sample.round_trips);
  }
  return out;
}

enum class read_mode {
  quiet,        // no concurrent writer: the paper's "read does not log" case
  racing,       // a write races the read; the read sometimes logs
  propagating,  // the read observes a value not yet at a majority: it must
                // write it back durably — the 1-causal-log case (Theorem 2)
};

/// Reads from p1 under the given concurrency mode.
inline latency_result measure_reads(const core::cluster_config& cfg, int reps,
                                    read_mode mode) {
  latency_result out;
  auto record = [&out](const core::cluster::op_result& r) {
    if (!r.completed) return;
    out.latency_us.add(to_us(r.sample.latency));
    out.causal_logs.add(r.sample.causal_logs);
    out.total_logs.add(r.sample.total_logs);
    out.messages.add(r.sample.messages);
    out.round_trips.add(r.sample.round_trips);
  };

  if (mode == read_mode::propagating) {
    // One fresh world per repetition: a write stalls after reaching a single
    // replica, then the read must propagate it to a majority.
    for (int i = 0; i < reps; ++i) {
      auto cfg_i = cfg;
      cfg_i.seed = cfg.seed + static_cast<std::uint64_t>(i);
      core::cluster c(cfg_i);
      c.write(process_id{0}, value_of_u32(1));
      c.network().set_filter([](const sim::packet_info& pi) {
        sim::filter_verdict v;
        if (pi.kind == 3 /* msg_kind::write */ && pi.from == process_id{0} &&
            pi.to != process_id{3}) {
          v.drop = true;
        }
        return v;
      });
      c.submit_write(process_id{0}, value_of_u32(2), c.now());
      c.run_for(3_ms);
      // Make the read's majority include the lone adopter p3 by silencing
      // two of the stale replicas' round-1 answers.
      c.network().set_filter([](const sim::packet_info& pi) {
        sim::filter_verdict v;
        if (pi.kind == 6 /* msg_kind::read_ack */ &&
            (pi.from == process_id{2} || pi.from == process_id{4})) {
          v.drop = true;
        }
        return v;
      });
      const auto h = c.submit_read(process_id{1}, c.now());
      c.run_for(50_ms);
      record(c.result(h));
    }
    return out;
  }

  core::cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));  // ground state
  std::uint32_t v = 2;
  for (int i = 0; i < reps; ++i) {
    if (mode == read_mode::racing) {
      // The read's query round lands inside the write's update round.
      c.submit_write(process_id{0}, value_of_u32(v++), c.now());
      const auto h = c.submit_read(process_id{1}, c.now() + 250_us);
      if (!c.run_until_idle()) break;
      record(c.result(h));
    } else {
      const auto h = c.submit_read(process_id{1}, c.now());
      if (!c.run_until_idle()) break;
      record(c.result(h));
    }
  }
  return out;
}

/// Back-compat shim for boolean call sites.
inline latency_result measure_reads(const core::cluster_config& cfg, int reps,
                                    bool concurrent_writer) {
  return measure_reads(cfg, reps,
                       concurrent_writer ? read_mode::racing : read_mode::quiet);
}

inline std::string fmt_us(double us) { return metrics::table::num(us, 0); }

}  // namespace remus::bench
