// Experiment E9 — sustained operation under the crash-recovery model's
// harshest allowed behaviour (section II: "all processes can crash, even all
// at the same time", as long as a majority is eventually up): completed
// operations per second while minorities crash and recover periodically, and
// time-to-first-completed-write after a full blackout.
#include <cstdio>

#include "bench_util.h"

namespace {

using namespace remus;
using namespace remus::bench;

constexpr std::uint32_t kN = 5;

struct churn_result {
  double ops_per_sec = 0;
  double completed = 0;
  double submitted = 0;
};

churn_result run_churn(const proto::protocol_policy& pol, bool faults,
                       std::uint64_t seed) {
  auto cfg = paper_testbed(pol, kN, seed);
  cfg.policy.retransmit_delay = 5_ms;
  core::cluster c(cfg);
  rng r(seed);
  const time_ns horizon = 2_s;

  // Closed-loop-ish workload: one op per process every ~5 ms.
  std::vector<core::cluster::op_handle> handles;
  std::uint32_t v = 1;
  for (time_ns t = 0; t < horizon; t += 5_ms) {
    for (std::uint32_t p = 0; p < kN; ++p) {
      const time_ns at = t + r.next_in(0, 4_ms);
      if (r.chance(0.5)) {
        handles.push_back(c.submit_write(process_id{p}, value_of_u32(v++), at));
      } else {
        handles.push_back(c.submit_read(process_id{p}, at));
      }
    }
  }
  if (faults) {
    // Rolling minority churn: every 100 ms, two processes bounce for 40 ms.
    std::uint32_t who = 0;
    for (time_ns t = 20_ms; t + 50_ms < horizon; t += 100_ms) {
      const process_id a{who % kN};
      const process_id b{(who + 1) % kN};
      who += 2;
      c.submit_crash(a, t);
      c.submit_crash(b, t + 1_ms);
      c.submit_recover(a, t + 40_ms);
      c.submit_recover(b, t + 41_ms);
    }
  }
  c.run_until_idle(100'000'000);

  churn_result out;
  out.submitted = static_cast<double>(handles.size());
  for (const auto h : handles) {
    if (c.result(h).completed) out.completed += 1;
  }
  out.ops_per_sec = out.completed / (to_ms(c.now()) / 1000.0);
  return out;
}

double blackout_recovery_ms(const proto::protocol_policy& pol, std::uint64_t seed) {
  auto cfg = paper_testbed(pol, kN, seed);
  cfg.policy.retransmit_delay = 5_ms;
  core::cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));
  const time_ns dark = c.now() + 1_ms;
  c.apply(sim::make_blackout_plan(kN, dark, 20_ms));
  const auto w = c.submit_write(process_id{1}, value_of_u32(2), dark + 21_ms);
  c.run_until_idle(50'000'000);
  if (!c.result(w).completed) return -1;
  return to_ms(c.now() - dark);
}

void print_paper_table() {
  std::printf("== Throughput under churn (N=%u, 2 s horizon, ops every ~1 ms) ==\n", kN);
  metrics::table t({"algorithm", "quiet ops/s", "churn ops/s", "churn completion %"});
  for (const auto& pol : {proto::crash_stop_policy(), proto::transient_policy(),
                          proto::persistent_policy()}) {
    const auto quiet = run_churn(pol, false, 11);
    // Crash-stop cannot recover: churn only applies to the emulations.
    if (pol.crash_stop) {
      t.add_row({pol.name, metrics::table::num(quiet.ops_per_sec, 0), "n/a", "n/a"});
      continue;
    }
    const auto churn = run_churn(pol, true, 12);
    t.add_row({pol.name, metrics::table::num(quiet.ops_per_sec, 0),
               metrics::table::num(churn.ops_per_sec, 0),
               metrics::table::num(100.0 * churn.completed / churn.submitted, 1)});
  }
  std::printf("%s", t.render().c_str());

  std::printf("\n== Full-blackout recovery (all %u crash, recover after 20 ms) ==\n", kN);
  metrics::table t2({"algorithm", "blackout -> next write done [ms]"});
  for (const auto& pol : {proto::transient_policy(), proto::persistent_policy()}) {
    t2.add_row({pol.name, metrics::table::num(blackout_recovery_ms(pol, 21), 1)});
  }
  std::printf("%s", t2.render().c_str());
  std::printf("(the emulations keep serving across arbitrary crash/recovery churn —\n"
              " the crash-stop baseline cannot survive any recovery scenario)\n\n");
}

}  // namespace

int main() {
  print_paper_table();
  return 0;
}
