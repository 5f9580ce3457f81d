// Experiment E5 — read cost with and without concurrency (sections IV-B,
// VI): "in the absence of concurrency, a read will not log, since all
// processes will have already logged the latest value during the previous
// write". A read only pays lambda when its write-back actually propagates a
// value some replica had not logged yet.
//
// The paper's explanation of Figure 6 showing only writes — "in a run
// without any crashes a read does not log, meaning that the execution times
// would be the same for each algorithm" — is verified by the 'quiet' column
// being flat across algorithms.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf("== Read latency & logging vs concurrency (N=%u, %d reps) ==\n", kN, kReps);
  metrics::table t({"algorithm", "quiet [us]", "quiet logs", "racing [us]", "racing logs",
                    "propagating [us]", "propagating logs"});
  for (const auto& pol : {proto::crash_stop_policy(), proto::transient_policy(),
                          proto::persistent_policy()}) {
    const auto quiet = measure_reads(paper_testbed(pol, kN), kReps, read_mode::quiet);
    const auto racing = measure_reads(paper_testbed(pol, kN), kReps, read_mode::racing);
    std::string prop_lat = "n/a";
    std::string prop_logs = "n/a";
    if (!pol.crash_stop) {
      const auto prop =
          measure_reads(paper_testbed(pol, kN), kReps, read_mode::propagating);
      prop_lat = fmt_us(prop.latency_us.mean());
      prop_logs = metrics::table::num(prop.causal_logs.mean(), 2);
    }
    t.add_row({pol.name, fmt_us(quiet.latency_us.mean()),
               metrics::table::num(quiet.causal_logs.mean(), 2),
               fmt_us(racing.latency_us.mean()),
               metrics::table::num(racing.causal_logs.mean(), 2), prop_lat, prop_logs});
  }
  std::printf("%s", t.render().c_str());
  std::printf("(quiet reads cost the same in all three algorithms — exactly why the\n"
              " paper's Figure 6 plots only writes)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
