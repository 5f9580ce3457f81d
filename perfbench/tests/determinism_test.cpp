// The benchmark's own checks: a simulator round is a pure function of its
// seed (virtual-time metrics and per-layer counts repeat exactly), another
// seed changes them, and tracing observes without perturbing.
#include <gtest/gtest.h>

#include "sim_workloads.h"

namespace perfbench {
namespace {

TEST(SimDeterminism, SameSeedRepeatsExactly) {
  const sim_round a = run_sim_round(7, true, true, false);
  const sim_round b = run_sim_round(7, true, true, false);
  EXPECT_TRUE(a.problems.empty()) << a.problems.front();
  EXPECT_EQ(a.completed_keyed_ops, a.keyed_ops);
  EXPECT_GT(a.crashes, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.virt, b.virt);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(SimDeterminism, AnotherSeedChangesTheRun) {
  const sim_round a = run_sim_round(7, true, true, false);
  const sim_round c = run_sim_round(8, true, true, false);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_NE(a.virt.at("read_p50_us"), c.virt.at("read_p50_us"));
  EXPECT_NE(a.counts.at("sim.events_per_op"), c.counts.at("sim.events_per_op"));
}

TEST(SimDeterminism, TracingDoesNotPerturbTheRun) {
  const sim_round plain = run_sim_round(7, true, true, false);
  const sim_round traced = run_sim_round(7, true, false, true);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.virt, traced.virt);
  double by_kind = 0;
  for (const auto& [k, v] : traced.counts) {
    if (k.rfind("sim.msgs_by_kind.", 0) == 0) by_kind += v;
  }
  EXPECT_NEAR(by_kind, traced.counts.at("sim.msgs_per_op"), 1e-9);
}

}  // namespace
}  // namespace perfbench
