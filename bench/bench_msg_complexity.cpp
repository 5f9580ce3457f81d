// Experiment E6 — message/step parity with the crash-stop baseline
// (sections I-D, IV): "our algorithms use the same number of communication
// steps as [2], namely 4 for any operation", i.e. minimizing logs costs no
// extra messages or rounds.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr int kReps = 30;
constexpr std::uint32_t kN = 5;

void print_paper_table() {
  std::printf("== Communication complexity per operation (N=%u) ==\n", kN);
  metrics::table t({"algorithm", "op", "round-trips", "comm. steps", "messages"});
  for (const auto& pol : {proto::crash_stop_policy(), proto::transient_policy(),
                          proto::persistent_policy()}) {
    const auto w = measure_writes(paper_testbed(pol, kN), 4, kReps);
    t.add_row({pol.name, "write", metrics::table::num(w.round_trips.mean(), 1),
               metrics::table::num(2 * w.round_trips.mean(), 1),
               metrics::table::num(w.messages.mean(), 1)});
    const auto r = measure_reads(paper_testbed(pol, kN), kReps, read_mode::quiet);
    t.add_row({pol.name, "read", metrics::table::num(r.round_trips.mean(), 1),
               metrics::table::num(2 * r.round_trips.mean(), 1),
               metrics::table::num(r.messages.mean(), 1)});
  }
  std::printf("%s", t.render().c_str());
  std::printf("(4 communication steps everywhere: log-optimality is free in messages;\n"
              " messages/op = 2 rounds x (n broadcast + n acks) = 4n = %u)\n\n", 4 * kN);
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
