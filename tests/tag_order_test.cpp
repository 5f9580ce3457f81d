// Tests for the Lemma-1 tag-order checker (section IV-B of the paper) and
// for the crash-recovery regular/safe registers of section VI.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "history/atomicity.h"
#include "history/tag_order.h"
#include "proto/policy.h"

namespace remus::history {
namespace {

tagged_op mk(bool is_read, std::uint32_t p, tag t, std::uint32_t v, time_ns inv,
             time_ns rep) {
  tagged_op op;
  op.is_read = is_read;
  op.p = process_id{p};
  op.applied = t;
  op.val = value_of_u32(v);
  op.invoked_at = inv;
  op.replied_at = rep;
  return op;
}

TEST(TagOrder, EmptyAndSingletonOk) {
  EXPECT_TRUE(check_tag_order({}).ok);
  EXPECT_TRUE(check_tag_order({mk(false, 0, {1, 0, process_id{0}}, 1, 0, 10)}).ok);
}

TEST(TagOrder, MonotoneWritesOk) {
  std::vector<tagged_op> ops{
      mk(false, 0, {1, 0, process_id{0}}, 1, 0, 10),
      mk(false, 1, {2, 0, process_id{1}}, 2, 20, 30),
      mk(true, 2, {2, 0, process_id{1}}, 2, 40, 50),
  };
  EXPECT_TRUE(check_tag_order(ops).ok);
}

TEST(TagOrder, L1iReadMustNotRegress) {
  std::vector<tagged_op> ops{
      mk(false, 0, {2, 0, process_id{0}}, 2, 0, 10),
      mk(true, 1, {1, 0, process_id{0}}, 1, 20, 30),  // older tag after newer write
  };
  const auto r = check_tag_order(ops);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("L1(i)"), std::string::npos);
}

TEST(TagOrder, L1iiWriteMustStrictlyGrow) {
  std::vector<tagged_op> ops{
      mk(false, 0, {2, 0, process_id{0}}, 1, 0, 10),
      mk(false, 1, {2, 0, process_id{0}}, 1, 20, 30),  // same tag, sequential
  };
  const auto r = check_tag_order(ops);
  EXPECT_FALSE(r.ok);  // rejected as L2 (duplicate tag) before L1(ii)
}

TEST(TagOrder, L2DistinctTagsForDistinctWrites) {
  std::vector<tagged_op> ops{
      mk(false, 0, {3, 0, process_id{0}}, 1, 0, 10),
      mk(false, 1, {3, 0, process_id{0}}, 2, 5, 15),  // concurrent, same tag
  };
  const auto r = check_tag_order(ops);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("L2"), std::string::npos);
}

TEST(TagOrder, L3ReadValueMatchesTagsWrite) {
  std::vector<tagged_op> ops{
      mk(false, 0, {1, 0, process_id{0}}, 7, 0, 10),
      mk(true, 1, {1, 0, process_id{0}}, 8, 20, 30),  // tag of W(7) but value 8
  };
  const auto r = check_tag_order(ops);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("L3"), std::string::npos);
}

TEST(TagOrder, ReadOfPendingWriteTolerated) {
  // A read may return a tag whose write never completed (crashed writer):
  // the tag is absent from the completed-writes map; that alone is fine.
  std::vector<tagged_op> ops{
      mk(true, 1, {5, 0, process_id{0}}, 9, 0, 10),
  };
  EXPECT_TRUE(check_tag_order(ops).ok);
}

TEST(TagOrder, RegularModeSkipsReadLeftHandSide) {
  // Read saw tag 5 (from a single replica); a later write picked tag 3.
  // Atomic registers forbid it; regular ones do not (no write-back).
  std::vector<tagged_op> ops{
      mk(true, 1, {5, 0, process_id{0}}, 9, 0, 10),
      mk(false, 2, {3, 0, process_id{2}}, 4, 20, 30),
  };
  EXPECT_FALSE(check_tag_order(ops, true).ok);
  EXPECT_TRUE(check_tag_order(ops, false).ok);
}

}  // namespace
}  // namespace remus::history

namespace remus::core {
namespace {

// ---------- Crash-recovery regular/safe registers (section VI) ----------

TEST(RegularCr, SingleRoundReadsNeverLogAndStillRecover) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::regular_cr_policy();
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));
  const auto r = c.submit_read(process_id{1}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(r).entries[0].val, value_of_u32(1));
  EXPECT_EQ(c.result(r).sample.round_trips, 1u);  // the saved round-trip
  EXPECT_EQ(c.result(r).sample.causal_logs, 0u);

  // Writes still pay their causal log, and values survive a blackout.
  const auto w = c.submit_write(process_id{2}, value_of_u32(2), c.now());
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.result(w).sample.causal_logs, 1u);
  c.apply(sim::make_blackout_plan(cfg.n, c.now() + 1_ms, 5_ms));
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.read(process_id{4}), value_of_u32(2));
}

TEST(RegularCr, TagOrderHoldsInRegularMode) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::regular_cr_policy();
  cfg.seed = 9;
  cluster c(cfg);
  std::uint32_t v = 1;
  for (int i = 0; i < 10; ++i) {
    c.submit_write(process_id{static_cast<std::uint32_t>(i) % 5}, value_of_u32(v++),
                   c.now());
    c.submit_read(process_id{(static_cast<std::uint32_t>(i) + 2) % 5}, c.now());
    ASSERT_TRUE(c.run_until_idle());
  }
  const auto order =
      history::check_tag_order(c.tagged_operations(), /*check_read_monotonicity=*/false);
  EXPECT_TRUE(order.ok) << order.explanation;
}

TEST(RegularCr, NewOldInversionIsPossible) {
  // The inversion the atomic read's write-back prevents: allowed by
  // regularity, observable with the single-round read.
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::regular_cr_policy();
  cfg.policy.retransmit_delay = 10_s;
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(1));
  // W(2) reaches only p3, writer crashes.
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
  // R1 sees p3 first -> 2; R2 never hears p3 -> 1.
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::read_ack)) {
      v.deliver_at = pi.now + (pi.from == process_id{3} ? 50_us : 400_us);
    }
    return v;
  });
  const auto r1 = c.submit_read(process_id{1}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  c.network().set_filter([](const sim::packet_info& pi) {
    sim::filter_verdict v;
    if (pi.kind == static_cast<std::uint8_t>(proto::msg_kind::read_ack) &&
        pi.from == process_id{3}) {
      v.drop = true;
    }
    return v;
  });
  const auto r2 = c.submit_read(process_id{1}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  c.network().clear_filter();

  EXPECT_EQ(c.result(r1).entries[0].val, value_of_u32(2));
  EXPECT_EQ(c.result(r2).entries[0].val, value_of_u32(1));  // inversion!
  // Atomicity is indeed violated — regularity tolerates exactly this.
  EXPECT_FALSE(history::check_transient_atomicity(c.events()).ok);
}

TEST(SafeCr, ReturnsFirstReplyAndSurvivesCrashes) {
  cluster_config cfg;
  cfg.n = 5;
  cfg.policy = proto::safe_cr_policy();
  cluster c(cfg);
  c.write(process_id{0}, value_of_u32(42));
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(42));  // quiet: all agree
  c.submit_crash(process_id{2}, c.now());
  c.submit_recover(process_id{2}, c.now() + 2_ms);
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_EQ(c.read(process_id{2}), value_of_u32(42));
}

TEST(WeakCr, WritesStillCostOneCausalLog) {
  // Section VI: weakening the register does not reduce the write's log bill.
  for (auto pol : {proto::regular_cr_policy(), proto::safe_cr_policy()}) {
    cluster_config cfg;
    cfg.n = 5;
    cfg.policy = pol;
    cluster c(cfg);
    const auto w = c.submit_write(process_id{0}, value_of_u32(1), 0);
    ASSERT_TRUE(c.run_until_idle());
    EXPECT_EQ(c.result(w).sample.causal_logs, 1u) << pol.name;
  }
}

}  // namespace
}  // namespace remus::core
