// Experiment E4 — the paper's section I-B illustration: algorithms A and A'.
//
// Both broadcast a value and wait for all acks; in A the writer logs before
// broadcasting (its log causally precedes everyone else's: 2 causal logs,
// 2*delta + 2*lambda), in A' every process logs in parallel after receiving
// the broadcast (1 causal log, 2*delta + lambda). The measured gap should be
// ~lambda (~200 us), demonstrating why counting *causal* logs — not logs —
// predicts latency.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf("== Section I-B: log placement (algorithms A vs A'), N=%u ==\n", kN);
  metrics::table t({"algorithm", "write [us]", "causal logs", "total logs", "model"});
  const auto a = measure_writes(paper_testbed(proto::ablation_a_policy(), kN), 4, kReps);
  const auto ap =
      measure_writes(paper_testbed(proto::ablation_a_prime_policy(), kN), 4, kReps);
  t.add_row({"A  (log, then send)", fmt_us(a.latency_us.mean()),
             metrics::table::num(a.causal_logs.mean(), 1),
             metrics::table::num(a.total_logs.mean(), 1), "2d + 2l"});
  t.add_row({"A' (send, all log)", fmt_us(ap.latency_us.mean()),
             metrics::table::num(ap.causal_logs.mean(), 1),
             metrics::table::num(ap.total_logs.mean(), 1), "2d + l"});
  t.add_row({"difference", fmt_us(a.latency_us.mean() - ap.latency_us.mean()), "", "",
             "~lambda (200us)"});
  std::printf("%s", t.render().c_str());
  std::printf("(same number of logs in total, different causal structure)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
