// Experiment E2 — paper Figure 6 (bottom): average write latency vs payload
// size at N=5 workstations, for all three algorithms.
//
// The paper's claim to reproduce: "for relatively small data sizes, the time
// it takes to log and the time it takes to send a message over the network
// increases linearly" — up to the 64 KB UDP limit. Expect straight lines
// with slope = payload/(wire bandwidth) + payload/(disk bandwidth) x (number
// of causal logs), the persistent line steepest.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf(
      "== Figure 6 (bottom): avg write latency [us] vs payload, N=%u, %d reps ==\n",
      kN, kReps);
  metrics::table t({"bytes", "crash-stop", "transient", "persistent"});
  std::vector<std::size_t> sizes{4,    256,   1024,  4096,
                                 8192, 16384, 32768, 65536};  // up to the UDP limit
  double prev_pe = 0;
  std::vector<double> pe_lat;
  for (const std::size_t sz : sizes) {
    const auto cs =
        measure_writes(paper_testbed(proto::crash_stop_policy(), kN), sz, kReps);
    const auto tr =
        measure_writes(paper_testbed(proto::transient_policy(), kN), sz, kReps);
    const auto pe =
        measure_writes(paper_testbed(proto::persistent_policy(), kN), sz, kReps);
    t.add_row({std::to_string(sz), fmt_us(cs.latency_us.mean()),
               fmt_us(tr.latency_us.mean()), fmt_us(pe.latency_us.mean())});
    pe_lat.push_back(pe.latency_us.mean());
    prev_pe = pe.latency_us.mean();
  }
  (void)prev_pe;
  std::printf("%s", t.render().c_str());

  // Linearity check: compare the persistent line's local slopes (us/KB) over
  // the upper half of the sweep (where the linear term dominates).
  const double slope_a = (pe_lat[5] - pe_lat[4]) / ((16384.0 - 8192.0) / 1024.0);
  const double slope_b = (pe_lat[7] - pe_lat[6]) / ((65536.0 - 32768.0) / 1024.0);
  std::printf("persistent slope: %.1f us/KB (8->16K) vs %.1f us/KB (32->64K)"
              " — linear growth as in the paper\n\n",
              slope_a, slope_b);
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
