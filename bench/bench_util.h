// Shared helpers for the paper-figure benches.
//
// Every paper-figure bench binary prints a table shaped like the
// corresponding paper figure, in virtual time, and exits 0.
//
// The cost model is calibrated to the paper's constants (sections I-A, V-A):
// one-way LAN transit ~0.1 ms, one small synchronous log ~0.2 ms, 100 Mbps
// wire, IDE-class disk bandwidth, negligible CPU cost. paper_testbed is also
// the cost model of perfbench's simulator workloads and of the tests that
// gate capacity and traffic figures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/cluster.h"
#include "metrics/op_metrics.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "proto/policy.h"

namespace remus::bench {

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

inline std::string fmt_us(double us) { return metrics::table::num(us, 0); }

}  // namespace remus::bench
