// Experiment E3 — the paper's log-complexity table (sections I-D, IV):
// causal logs per operation for each algorithm, measured by the tracer, and
// total stable-storage writes per operation for context.
//
//   persistent: write = 2 causal logs, read = 1 (0 without concurrency)
//   transient:  write = 1 causal log,  read = 1 (0 without concurrency)
//   crash-stop: never logs
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 50;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf("== Log complexity per operation (N=%u, %d reps) ==\n", kN, kReps);
  metrics::table t({"algorithm", "op", "causal logs", "total logs", "paper bound"});
  struct row {
    proto::protocol_policy pol;
    const char* bound_w;
    const char* bound_r;
  };
  const row rows[] = {
      {proto::crash_stop_policy(), "0", "0"},
      {proto::transient_policy(), "1", "<=1"},
      {proto::persistent_policy(), "2", "<=1"},
  };
  for (const auto& r : rows) {
    const auto w = measure_writes(paper_testbed(r.pol, kN), 4, kReps);
    t.add_row({r.pol.name, "write", metrics::table::num(w.causal_logs.mean(), 2),
               metrics::table::num(w.total_logs.mean(), 1), r.bound_w});
    const auto rd = measure_reads(paper_testbed(r.pol, kN), kReps, read_mode::quiet);
    t.add_row({r.pol.name, "read (quiet)", metrics::table::num(rd.causal_logs.mean(), 2),
               metrics::table::num(rd.total_logs.mean(), 1), "0"});
    if (r.pol.crash_stop) continue;  // propagation never logs in crash-stop
    const auto rc = measure_reads(paper_testbed(r.pol, kN), kReps, read_mode::propagating);
    t.add_row({r.pol.name, "read (propagating)",
               metrics::table::num(rc.causal_logs.mean(), 2),
               metrics::table::num(rc.total_logs.mean(), 1), r.bound_r});
  }
  std::printf("%s", t.render().c_str());
  std::printf("(Theorem 1: persistent writes need 2 causal logs; Theorem 2: reads\n"
              " need 1; 'in the absence of concurrency an atomic read does not log')\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
