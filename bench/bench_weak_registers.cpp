// Experiment E8 — weaker registers (section VI concluding remarks): safe and
// regular registers save the read's write-back round-trip, but the paper's
// point is that in a system where logging dominates, they save *nothing* on
// logs: any meaningful crash-recovery memory still needs one causal log per
// write, while an atomic read already logs nothing without concurrency.
// "Therefore ... it does not make sense to emulate safe or even regular
// memory."
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf("== Weaker registers: read/write cost (crash-stop SWMR, N=%u) ==\n", kN);
  metrics::table t(
      {"register", "write [us]", "write RTs", "read [us]", "read RTs"});
  for (const auto& pol :
       {proto::abd_swmr_policy(), proto::regular_swmr_policy(), proto::safe_swmr_policy()}) {
    const auto w = measure_writes(paper_testbed(pol, kN), 4, kReps);
    const auto r = measure_reads(paper_testbed(pol, kN), kReps, read_mode::quiet);
    t.add_row({pol.name, fmt_us(w.latency_us.mean()),
               metrics::table::num(w.round_trips.mean(), 0), fmt_us(r.latency_us.mean()),
               metrics::table::num(r.round_trips.mean(), 0)});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\n== The section-VI argument, in numbers (crash-recovery, N=%u) ==\n", kN);
  metrics::table t2({"memory", "write causal logs", "quiet-read causal logs",
                     "quiet read [us]", "guarantee"});
  for (const auto& pol : {proto::transient_policy(), proto::regular_cr_policy(),
                          proto::safe_cr_policy()}) {
    const auto w = measure_writes(paper_testbed(pol, kN), 4, kReps);
    const auto rd = measure_reads(paper_testbed(pol, kN), kReps, read_mode::quiet);
    const char* guarantee = pol.recovery_counter && pol.read_writeback
                                ? "transient atomic"
                                : (pol.read_return_first ? "safe only" : "regular only");
    t2.add_row({pol.name, metrics::table::num(w.causal_logs.mean(), 1),
                metrics::table::num(rd.causal_logs.mean(), 2),
                fmt_us(rd.latency_us.mean()), guarantee});
  }
  std::printf("%s", t2.render().c_str());
  std::printf("(weakening the register cannot reduce the dominant cost — the write's\n"
              " causal log — so transient atomicity is the sweet spot)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
