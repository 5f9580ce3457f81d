// Experiment E7 — recovery cost (sections IV-B, IV-C): the persistent
// emulation's recovery re-runs the write's second round ("adds one log each
// time a process recovers" at the adopters, plus a quorum round-trip); the
// transient emulation only logs its incremented recovery counter locally.
//
// Measured: wall-clock from the recover event until the process accepts
// invocations again, with and without an interrupted write to finish.
#include <cstdio>

#include "bench_util.h"
#include "history/event.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr std::uint32_t kN = 5;
constexpr int kReps = 30;

/// Crash p0 (optionally mid-write), recover it, and measure recover -> ready.
metrics::summary measure_recovery(const proto::protocol_policy& pol, bool mid_write,
                                  std::uint64_t seed) {
  metrics::summary out;
  for (int i = 0; i < kReps; ++i) {
    auto cfg = paper_testbed(pol, kN, seed + i);
    core::cluster c(cfg);
    c.write(process_id{0}, value_of_u32(1));
    if (mid_write) {
      // Block round-2 W so the write is pending when the crash lands.
      c.network().set_filter([](const sim::packet_info& pi) {
        sim::filter_verdict v;
        if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
            pi.from == process_id{0}) {
          v.drop = true;
        }
        return v;
      });
      c.submit_write(process_id{0}, value_of_u32(2 + i), c.now());
      c.run_for(2_ms);
      c.network().clear_filter();
    }
    c.submit_crash(process_id{0}, c.now());
    c.run_for(1_ms);
    const time_ns recover_at = c.now();
    c.submit_recover(process_id{0}, recover_at);
    // Step in fine increments until the process accepts invocations again.
    while (!c.is_ready(process_id{0}) && c.now() < recover_at + 1_s) c.run_for(10_us);
    out.add(to_us(c.now() - recover_at));
  }
  return out;
}

void print_paper_table() {
  std::printf("== Recovery procedure cost (N=%u, %d reps) ==\n", kN, kReps);
  metrics::table t({"algorithm", "scenario", "recover->idle [us]", "mechanism"});
  const auto pe_clean = measure_recovery(proto::persistent_policy(), false, 100);
  const auto pe_mid = measure_recovery(proto::persistent_policy(), true, 200);
  const auto tr_clean = measure_recovery(proto::transient_policy(), false, 300);
  const auto tr_mid = measure_recovery(proto::transient_policy(), true, 400);
  t.add_row({"persistent", "no pending write", fmt_us(pe_clean.mean()),
             "retrieve + finish-write round"});
  t.add_row({"persistent", "interrupted write", fmt_us(pe_mid.mean()),
             "retrieve + finish-write round"});
  t.add_row({"transient", "no pending write", fmt_us(tr_clean.mean()),
             "retrieve + 1 local log"});
  t.add_row({"transient", "interrupted write", fmt_us(tr_mid.mean()),
             "retrieve + 1 local log"});
  std::printf("%s", t.render().c_str());
  std::printf("(persistent pays a quorum round-trip at recovery to finish the write;\n"
              " transient recovers locally and lets the next write repair ordering)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
