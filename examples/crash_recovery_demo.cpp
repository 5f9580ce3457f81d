// The paper's Figure 1, live: what readers observe when a writer crashes in
// the middle of a write and then writes again — under the persistent
// emulation (the unfinished write is completed at recovery) versus the
// transient emulation (the unfinished write may surface later, overlapping
// the next write).
//
//   $ ./build/examples/crash_recovery_demo
#include <cstdio>

#include "core/cluster.h"
#include "history/atomicity.h"
#include "proto/policy.h"

namespace {

using namespace remus;

history::history_log run_figure1(proto::protocol_policy pol, const char* label) {
  std::printf("--- %s ---\n", label);
  core::cluster_config cfg;
  cfg.n = 5;
  cfg.policy = std::move(pol);
  cfg.policy.retransmit_delay = 10_s;  // keep the scripted schedule clean
  core::cluster c(cfg);

  // W(v1) completes normally.
  c.write(process_id{0}, value_of_u32(1));

  // W(v2): the update round reaches only p3, then the writer crashes.
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
        pi.from == process_id{0} && pi.to != process_id{3}) {
      v.drop = true;
    }
    return v;
  });
  c.submit_write(process_id{0}, value_of_u32(2), c.now());
  c.submit_crash(process_id{0}, c.now() + 2_ms);
  c.run_for(3_ms);
  c.network().clear_filter();
  std::printf("W(2) interrupted by a crash (value reached one process)\n");

  // The writer recovers and starts W(v3); the new value's delivery is
  // delayed so a read can run while W(v3) is still in flight (the exact
  // situation of Figure 1).
  c.submit_recover(process_id{0}, c.now());
  c.run_for(10_ms);
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::write) &&
        pi.from == process_id{0}) {
      v.deliver_at = pi.now + 5_ms;  // W(3) hangs in the network for a while
    }
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::read_ack) &&
        pi.from == process_id{3}) {
      v.drop = true;  // the read's quorum misses the one holder of v2
    }
    return v;
  });
  const auto w3 = c.submit_write(process_id{0}, value_of_u32(3), c.now());
  const auto r1 = c.submit_read(process_id{1}, c.now() + 500_us);
  c.run_until_idle();
  c.network().clear_filter();
  std::printf("writer recovered; W(3) and a concurrent read ran\n");
  std::printf("  read during W(3) -> %s\n", to_string(c.result(r1).entries[0].val).c_str());
  (void)w3;

  // After W(3) completes, reads settle on v3.
  for (int i = 0; i < 2; ++i) {
    const value v = c.read(process_id{1});
    std::printf("  read %d after W(3) -> %s\n", i + 1, to_string(v).c_str());
  }
  c.run_until_idle();
  const auto h = c.events();
  const auto pers = history::check_persistent_atomicity(h);
  const auto trans = history::check_transient_atomicity(h);
  std::printf("verdicts: persistent=%s transient=%s\n\n", pers.ok ? "OK" : "violated",
              trans.ok ? "OK" : "violated");
  return h;
}

}  // namespace

int main() {
  std::printf("Figure 1 of the paper, reenacted.\n\n");
  run_figure1(remus::proto::persistent_policy(), "persistent atomic emulation (Fig. 4)");
  run_figure1(remus::proto::transient_policy(), "transient atomic emulation (Fig. 5)");
  std::printf(
      "Note: under the persistent emulation the recovery finished W(2) before\n"
      "W(3) could start, so readers always see 2 then 3 in order. The transient\n"
      "emulation skips that work (one causal log less per write); its unfinished\n"
      "write may linearize late — atomicity holds between crashes and may only\n"
      "be transiently broken around the writer's recovery.\n");
  return 0;
}
