// Experiment E1 — paper Figure 6 (top): average time of a 4-byte write vs
// number of workstations, for the crash-stop baseline, the transient-atomic
// emulation, and the persistent-atomic emulation.
//
// Paper reference points (section V-B, N=5): crash-stop ~500 us, transient
// ~700 us, persistent ~900 us — i.e. gaps of one and two causal logs
// (~200 us each). The shape to reproduce: persistent > transient >
// crash-stop, constant gaps ~lambda and ~2*lambda, mild growth with N.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;  // the paper repeats each write fifty times

void print_paper_table() {
  std::printf("== Figure 6 (top): avg write latency [us], 4-byte values, %d reps ==\n",
              kReps);
  metrics::table t({"N", "crash-stop", "transient", "persistent",
                    "gap T-CS", "gap P-CS"});
  for (const std::uint32_t n : {3u, 5u, 7u, 9u}) {
    const auto cs =
        measure_writes(paper_testbed(proto::crash_stop_policy(), n), 4, kReps);
    const auto tr =
        measure_writes(paper_testbed(proto::transient_policy(), n), 4, kReps);
    const auto pe =
        measure_writes(paper_testbed(proto::persistent_policy(), n), 4, kReps);
    t.add_row({std::to_string(n), fmt_us(cs.latency_us.mean()),
               fmt_us(tr.latency_us.mean()), fmt_us(pe.latency_us.mean()),
               fmt_us(tr.latency_us.mean() - cs.latency_us.mean()),
               fmt_us(pe.latency_us.mean() - cs.latency_us.mean())});
  }
  std::printf("%s", t.render().c_str());
  std::printf("(paper @ N=5: 500 / 700 / 900 us; gaps ~200 and ~400 us)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
