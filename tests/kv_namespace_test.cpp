// Multi-register namespace tests: keyed wire format, per-register protocol
// state, batched operations, keyed stable storage + recovery replay, the
// per-key atomicity checker — and negative keyed histories (hand-built and
// mutation-generated) that the checker must reject with a meaningful
// explanation, guarding against a vacuously-passing checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/cluster.h"
#include "history/keyed.h"
#include "history/tag_order.h"
#include "history/wellformed.h"
#include "open_loop.h"
#include "proto/message.h"
#include "proto/policy.h"
#include "sim/kv_workload.h"

namespace remus::core {
namespace {

cluster_config cfg_of(proto::protocol_policy pol, std::uint32_t n = 3,
                      std::uint64_t seed = 11) {
  cluster_config cfg;
  cfg.n = n;
  cfg.policy = std::move(pol);
  cfg.seed = seed;
  return cfg;
}

/// Runs `wc`'s open-loop workload on `c` to idle: every op must complete
/// and every register's projection must be atomic.
void run_atomic_workload(cluster& c, const sim::kv_workload_config& wc) {
  sim::run_workload(c, wc);
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

// ---------- Keyed wire format ----------

TEST(KeyedWire, SingleKeyMessageRoundTrips) {
  proto::message m;
  m.kind = proto::msg_kind::write;
  m.from = process_id{2};
  m.op_seq = 9;
  m.round = 2;
  m.epoch = 77;
  m.entries = {{31, tag{4, 0, process_id{2}}, value_of_u32(123)}};
  const bytes wire = proto::encode(m);
  EXPECT_EQ(wire.size(), proto::wire_size(m));
  EXPECT_EQ(proto::decode_message(wire), m);
}

TEST(KeyedWire, BatchedMessageRoundTrips) {
  proto::message m;
  m.kind = proto::msg_kind::write;
  m.from = process_id{0};
  m.op_seq = 3;
  m.round = 2;
  for (std::uint32_t k : {5u, 9u, 700u}) {
    proto::batch_entry e;
    e.reg = k;
    e.ts = tag{static_cast<std::int64_t>(k), 0, process_id{0}};
    e.val = value_of_u32(k * 10);
    m.entries.push_back(std::move(e));
  }
  const bytes wire = proto::encode(m);
  EXPECT_EQ(wire.size(), proto::wire_size(m));
  const proto::message d = proto::decode_message(wire);
  EXPECT_EQ(d, m);
  ASSERT_EQ(d.entries.size(), 3u);
  EXPECT_EQ(d.entries[2].reg, 700u);
}

TEST(KeyedWire, AbsurdBatchCountRejected) {
  proto::message m;
  m.kind = proto::msg_kind::sn_query;
  m.from = process_id{0};
  m.entries = {{9, tag{}, {}}};
  const bytes wire = proto::encode(m);
  // The message ends with the entry count and the lease count (u32 each);
  // patch either to an unsatisfiable value.
  for (const std::size_t field : {wire.size() - 8, wire.size() - 4}) {
    bytes bad = wire;
    bad[field] = 0xff;
    bad[field + 1] = 0xff;
    bad[field + 2] = 0xff;
    bad[field + 3] = 0x7f;
    EXPECT_THROW((void)proto::decode_message(bad), codec_error) << "field at " << field;
  }
}

// ---------- Independent registers over one cluster ----------

TEST(KeyedCluster, RegistersAreIndependent) {
  cluster c(cfg_of(proto::persistent_policy()));
  c.write(process_id{0}, 1, value_of_u32(100));
  c.write(process_id{1}, 2, value_of_u32(200));
  c.write(process_id{2}, default_register, value_of_u32(7));
  EXPECT_EQ(c.read(process_id{2}, 1), value_of_u32(100));
  EXPECT_EQ(c.read(process_id{0}, 2), value_of_u32(200));
  EXPECT_EQ(c.read(process_id{1}), value_of_u32(7));
  // A register never written reads as the initial value.
  EXPECT_TRUE(c.read(process_id{0}, 999).is_initial());

  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_EQ(verdict.keys_checked, 4u);  // regs 0, 1, 2, 999
}

TEST(KeyedCluster, PerKeyTagsEvolveIndependently) {
  cluster c(cfg_of(proto::transient_policy()));
  for (int i = 1; i <= 3; ++i) c.write(process_id{0}, 5, value_of_u32(i));
  c.write(process_id{0}, 6, value_of_u32(50));
  ASSERT_TRUE(c.run_until_idle());
  // Register 5 saw three writes, register 6 one: their tags differ.
  EXPECT_EQ(c.core_of(process_id{0}).replica_tag(5).sn, 3);
  EXPECT_EQ(c.core_of(process_id{0}).replica_tag(6).sn, 1);
  EXPECT_EQ(c.core_of(process_id{0}).replica_tag(7), initial_tag);
  const auto order = history::check_tag_order_per_key(c.tagged_operations());
  EXPECT_TRUE(order.ok) << order.explanation;
}

// ---------- Batched operations ----------

TEST(KeyedCluster, BatchedWriteThenBatchedRead) {
  cluster c(cfg_of(proto::persistent_policy()));
  std::vector<proto::write_op> ops;
  for (std::uint32_t k = 0; k < 8; ++k) ops.push_back({k, value_of_u32(1000 + k)});
  const auto w = c.submit_write_batch(process_id{0}, ops, 0);
  ASSERT_TRUE(c.run_until_idle());
  ASSERT_TRUE(c.result(w).completed);
  ASSERT_EQ(c.result(w).entries.size(), 8u);

  std::vector<register_id> regs;
  for (std::uint32_t k = 0; k < 8; ++k) regs.push_back(k);
  const auto r = c.submit_read_batch(process_id{2}, regs, c.now());
  ASSERT_TRUE(c.run_until_idle());
  const auto& res = c.result(r);
  ASSERT_TRUE(res.completed);
  ASSERT_EQ(res.entries.size(), 8u);
  for (std::uint32_t k = 0; k < 8; ++k) {
    EXPECT_EQ(res.entries[k].reg, k);
    EXPECT_EQ(res.entries[k].val, value_of_u32(1000 + k));
  }

  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  EXPECT_EQ(verdict.keys_checked, 8u);
}

TEST(KeyedCluster, BatchAmortizesQuorumRoundTrips) {
  // A batched 8-key write must cost one op's round-trips and messages, not
  // eight ops' worth (that is the point of batching).
  cluster c(cfg_of(proto::persistent_policy()));
  std::vector<proto::write_op> ops;
  for (std::uint32_t k = 0; k < 8; ++k) ops.push_back({k, value_of_u32(10 + k)});
  const auto b = c.submit_write_batch(process_id{0}, ops, 0);
  ASSERT_TRUE(c.run_until_idle());
  // Copy the sample: submitting more ops below grows the result table.
  ASSERT_TRUE(c.result(b).completed);
  const metrics::op_sample batch_sample = c.result(b).sample;
  EXPECT_EQ(batch_sample.round_trips, 2u);

  std::uint32_t single_msgs = 0;
  for (std::uint32_t k = 0; k < 8; ++k) {
    const auto h = c.submit_write(process_id{0}, 100 + k, value_of_u32(100 + k), c.now());
    ASSERT_TRUE(c.run_until_idle());
    single_msgs += c.result(h).sample.messages;
  }
  EXPECT_LT(batch_sample.messages, single_msgs / 2);
}

TEST(KeyedCluster, BatchedWriteSurvivesBlackout) {
  cluster c(cfg_of(proto::transient_policy(), 5));
  std::vector<proto::write_op> ops;
  for (std::uint32_t k = 0; k < 16; ++k) ops.push_back({k, value_of_u32(900 + k)});
  c.submit_write_batch(process_id{0}, ops, 0);
  ASSERT_TRUE(c.run_until_idle());
  // Everyone crashes; stable storage must restore every register.
  c.apply(sim::make_blackout_plan(5, c.now() + 1_ms, 5_ms));
  ASSERT_TRUE(c.run_until_idle());
  for (std::uint32_t k = 0; k < 16; ++k) {
    EXPECT_EQ(c.read(process_id{k % 5}, k), value_of_u32(900 + k)) << "reg " << k;
  }
  const auto verdict = history::check_transient_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(KeyedCluster, DuplicateRegisterInBatchRejected) {
  // Refused at submission, before anything is recorded or scheduled: the
  // core's precondition never fires inside the event loop, so p0 is not
  // left with an op it can never finish.
  cluster c(cfg_of(proto::persistent_policy()));
  std::vector<proto::write_op> ops{{3, value_of_u32(1)}, {3, value_of_u32(2)}};
  EXPECT_THROW(c.submit_write_batch(process_id{0}, ops, 0), driver_error);
  EXPECT_THROW(c.submit_read_batch(process_id{0}, {5, 6, 5}, 0), driver_error);
  EXPECT_EQ(c.events_pending(), 0u);
  EXPECT_THROW((void)c.result(0), driver_error);  // no handle was issued
  ASSERT_TRUE(c.run_until_idle());
  EXPECT_TRUE(c.events().empty());
  c.write(process_id{0}, 7, value_of_u32(9));
  EXPECT_EQ(value_as_u32(c.read(process_id{0}, 7)), 9u);
}

// ---------- Open-loop keyed workloads on the paper's testbed ----------

TEST(KeyedCluster, OpenLoopShapesCompleteAndStayAtomicPerKey) {
  // 800 open-loop ops from three clients on the paper's LAN testbed, over
  // key counts from the paper's single register to 1,024, uniform or Zipf
  // 0.99 popularity, and single-key or 8-key batches: every op completes
  // and every register's projection is atomic.
  struct shape {
    std::uint32_t keys;
    double theta;
    std::uint32_t batch;
  };
  const shape shapes[] = {{1, 0.0, 1},    {64, 0.0, 1}, {64, 0.99, 1},
                          {1024, 0.99, 1}, {64, 0.0, 8}, {1024, 0.99, 8}};
  for (const shape& s : shapes) {
    SCOPED_TRACE("k" + std::to_string(s.keys) + " theta " + std::to_string(s.theta) +
                 " b" + std::to_string(s.batch));
    cluster c(bench::paper_testbed(proto::persistent_policy(), 3));
    sim::kv_workload_config wc;
    wc.key_count = s.keys;
    wc.zipf_theta = s.theta;
    wc.batch_size = s.batch;
    wc.ops = 800;
    run_atomic_workload(c, wc);
  }
}

// ---------- Keyed recovery replay ----------

// ---------- One execution, one set of times ----------

TEST(KeyedHistoryTimes, HistoryCarriesEveryInvokedOpsTimes) {
  // Single-key, batched and cut-short ops at one process, plus concurrent
  // traffic at the others: each process's invoke/reply events must be
  // exactly its ops' invoked_at/completed_at, in dispatch order.
  cluster c(cfg_of(proto::persistent_policy(), 5));
  const auto w = c.submit_write(process_id{0}, 3, value_of_u32(1), 0);
  const auto bw = c.submit_write_batch(
      process_id{0}, {{4, value_of_u32(2)}, {5, value_of_u32(3)}, {6, value_of_u32(4)}}, 0);
  const auto br = c.submit_read_batch(process_id{1}, {3, 4, 5}, 1_ms);
  const auto r = c.submit_read(process_id{2}, 6, 1_ms);
  ASSERT_TRUE(c.run_until_idle());
  // Cut short: p3 crashes while its batched write is in flight.
  const auto cut = c.submit_write_batch(process_id{3}, {{7, value_of_u32(5)}, {8, value_of_u32(6)}},
                                        c.now());
  c.submit_crash(process_id{3}, c.now() + 100_us);
  ASSERT_TRUE(c.run_until_idle());
  for (const auto h : {w, bw, br, r}) ASSERT_TRUE(c.result(h).completed);
  ASSERT_TRUE(c.result(cut).cut_short);
  // A cut-short op reports when it was invoked, too.
  EXPECT_GT(c.result(cut).invoked_at, 0);
  EXPECT_EQ(c.check_history_times(), "");
}

TEST(KeyedRecovery, RecoveryRestoresEveryRegister) {
  cluster c(cfg_of(proto::persistent_policy(), 3));
  for (std::uint32_t k = 0; k < 12; ++k) {
    c.write(process_id{0}, k, value_of_u32(3000 + k));
  }
  // p2 crashes and recovers: its replica state must come back for all keys
  // it adopted (recovery replays every (written) record).
  c.submit_crash(process_id{2}, c.now());
  c.run_for(1_ms);
  c.submit_recover(process_id{2}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  std::size_t restored = 0;
  for (std::uint32_t k = 0; k < 12; ++k) {
    if (!(c.core_of(process_id{2}).replica_tag(k) == initial_tag)) ++restored;
  }
  // p2 may have missed some quorums, but the store replay must restore
  // everything it logged — in a fault-free prefix that is every key.
  EXPECT_GT(restored, 8u);
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(KeyedRecovery, WriterCrashMidBatchFinishesAllPrelogsOnRecovery) {
  // Persistent policy: the writer pre-logs (writing, k) for every key of the
  // batch before round 2. Crashing between pre-log and completion must make
  // recovery finish the write for every pre-logged register.
  cluster c(cfg_of(proto::persistent_policy(), 3, 21));
  std::vector<proto::write_op> ops;
  for (std::uint32_t k = 0; k < 6; ++k) ops.push_back({k, value_of_u32(500 + k)});
  const auto b = c.submit_write_batch(process_id{0}, ops, 0);
  // Crash the writer while the batch is in flight (before it can finish).
  c.submit_crash(process_id{0}, 300_us);
  c.run_for(5_ms);
  EXPECT_FALSE(c.result(b).completed);
  c.submit_recover(process_id{0}, c.now());
  ASSERT_TRUE(c.run_until_idle());
  // If the pre-logs were written before the crash, recovery re-ran round 2
  // and the values are now everywhere; otherwise the registers stay initial.
  // Either way every projection must be atomic.
  const auto verdict = history::check_persistent_atomicity_per_key(c.events());
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
  // The recovered writer must agree with the cluster on every register.
  for (std::uint32_t k = 0; k < 6; ++k) {
    const value v = c.read(process_id{1}, k);
    EXPECT_EQ(c.read(process_id{0}, k), v) << "reg " << k;
  }
}

// ---------- Batch-aware retransmission (end to end) ----------

TEST(KeyedRetransmission, TrimmedBatchRepeatsStayAtomicAndSendFewerBytes) {
  // Lossy network, batched keyed traffic, short retransmission period:
  // trimmed repeats must (a) preserve per-key atomicity and completion, and
  // (b) save at least 3% of the bytes full-batch repeats would have cost
  // (the core counts both for every repeat it sends) on each of two
  // workloads (0.133 and 0.050 saved measured).
  struct repeat_bytes {
    std::uint64_t sent = 0;
    std::uint64_t full = 0;
  };
  const auto run = [](const cluster_config& cfg, const sim::kv_workload_config& wc,
                      repeat_bytes& out) {
    SCOPED_TRACE("seed " + std::to_string(cfg.seed));
    cluster c(cfg);
    run_atomic_workload(c, wc);
    for (std::uint32_t p = 0; p < cfg.n; ++p) {
      out.sent += c.core_of(process_id{p}).branches().retransmit_bytes_sent;
      out.full += c.core_of(process_id{p}).branches().retransmit_bytes_full;
    }
  };

  // Batches whose key sets only partly overlap (random 6-of-12 subsets),
  // summed over three seeds: racing batches adopt some registers and not
  // others at each replica, which is what makes per-register ack coverage
  // diverge and gives the trimmed repeats something to drop.
  repeat_bytes subsets;
  for (const std::uint64_t seed : {101ull, 102ull, 103ull}) {
    cluster_config cfg = cfg_of(proto::persistent_policy(), 5, seed);
    cfg.policy.retransmit_delay = 2_ms;
    cfg.net.drop_probability = 0.15;
    sim::kv_workload_config wc;
    wc.n = 5;
    wc.key_count = 12;
    wc.batch_size = 6;
    wc.ops = 60;
    wc.read_fraction = 0.5;
    wc.mean_gap = 400_us;  // faster than the cluster absorbs: ops race
    wc.value_bytes = 256;  // realistic field size: trimmed entries drop real payload
    wc.seed = seed;
    run(cfg, wc, subsets);
  }
  // 800 ops of 8-key batches over 64 keys on the paper's testbed at 10%
  // loss: batches race less over 64 keys than over 12, so fewer repeats
  // find a register to drop.
  repeat_bytes wide;
  {
    cluster_config cfg = bench::paper_testbed(proto::persistent_policy(), 5);
    cfg.policy.retransmit_delay = 3_ms;
    cfg.net.drop_probability = 0.10;
    sim::kv_workload_config wc;
    wc.n = 5;
    wc.key_count = 64;
    wc.batch_size = 8;
    wc.ops = 800;
    wc.value_bytes = 256;
    run(cfg, wc, wide);
  }
  for (const auto& [name, b] :
       {std::pair{"6-of-12 subsets", subsets}, std::pair{"k64 b8", wide}}) {
    ASSERT_GT(b.full, 0u) << name;
    EXPECT_GT(b.sent, 0u) << name;
    const double saved = 1.0 - static_cast<double>(b.sent) / static_cast<double>(b.full);
    EXPECT_GE(saved, 0.03) << name;
  }
}

}  // namespace
}  // namespace remus::core

// ---------- Negative keyed histories ----------

namespace remus::history {
namespace {

using core::cluster;

// Hand-built: register 2's projection has a new/old read inversion (two
// sequential reads return opposite-ordered writes); register 1 is clean.
history_log inversion_on_register_two() {
  history_log h;
  time_ns t = 0;
  auto ev = [&](event_kind k, std::uint32_t p, value v, register_id reg) {
    h.push_back(event{k, process_id{p}, std::move(v), t += 1000, reg});
  };
  // Register 1: a clean write/read pair.
  ev(event_kind::invoke_write, 0, value_of_u32(10), 1);
  ev(event_kind::reply_write, 0, {}, 1);
  ev(event_kind::invoke_read, 1, {}, 1);
  ev(event_kind::reply_read, 1, value_of_u32(10), 1);
  // Register 2: w(1), w(2) sequentially; then r->2 followed by r->1.
  ev(event_kind::invoke_write, 0, value_of_u32(1), 2);
  ev(event_kind::reply_write, 0, {}, 2);
  ev(event_kind::invoke_write, 0, value_of_u32(2), 2);
  ev(event_kind::reply_write, 0, {}, 2);
  ev(event_kind::invoke_read, 1, {}, 2);
  ev(event_kind::reply_read, 1, value_of_u32(2), 2);
  ev(event_kind::invoke_read, 1, {}, 2);
  ev(event_kind::reply_read, 1, value_of_u32(1), 2);
  return h;
}

TEST(KeyedNegative, HandBuiltInversionRejectedNamingTheRegister) {
  const auto h = inversion_on_register_two();
  ASSERT_TRUE(check_well_formed(h).ok);
  for (const auto c : {criterion::persistent, criterion::transient}) {
    const auto verdict = check_atomicity_per_key(h, c);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.usage_error);
    EXPECT_EQ(verdict.failing_key, 2u);
    EXPECT_NE(verdict.explanation.find("register 2"), std::string::npos)
        << verdict.explanation;
    EXPECT_GT(verdict.explanation.size(), 20u) << "explanation must be meaningful";
  }
  // The clean projection alone passes: the failure is genuinely per-key.
  EXPECT_TRUE(check_atomicity(project_key(h, 1), criterion::persistent).ok);
  EXPECT_FALSE(check_atomicity(project_key(h, 2), criterion::persistent).ok);
}

TEST(KeyedNegative, HandBuiltStaleReadAfterCrashRejected) {
  // Register 7: w(1) completes, then w(2) completes, the writer crashes and
  // recovers, and a later read returns the overwritten value 1. Register 3
  // stays clean. Persistent atomicity must reject register 7's projection.
  history_log h;
  time_ns t = 0;
  auto ev = [&](event_kind k, std::uint32_t p, value v, register_id reg) {
    h.push_back(event{k, process_id{p}, std::move(v), t += 1000, reg});
  };
  ev(event_kind::invoke_write, 0, value_of_u32(301), 3);
  ev(event_kind::reply_write, 0, {}, 3);
  ev(event_kind::invoke_write, 1, value_of_u32(1), 7);
  ev(event_kind::reply_write, 1, {}, 7);
  ev(event_kind::invoke_write, 1, value_of_u32(2), 7);
  ev(event_kind::reply_write, 1, {}, 7);
  h.push_back(event{event_kind::crash, process_id{1}, {}, t += 1000});
  h.push_back(event{event_kind::recover, process_id{1}, {}, t += 1000});
  ev(event_kind::invoke_read, 0, {}, 7);
  ev(event_kind::reply_read, 0, value_of_u32(1), 7);
  ASSERT_TRUE(check_well_formed(h).ok);
  const auto verdict = check_persistent_atomicity_per_key(h);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.failing_key, 7u);
  EXPECT_NE(verdict.explanation.find("register 7"), std::string::npos);
}

TEST(KeyedNegative, MutatedRealHistoriesRejected) {
  // Mutation-generated: run a real keyed workload, then swap a completed
  // read's value for a value written on a *different* register. Write
  // values are globally unique, so the mutated projection contains a read
  // of a never-written value — the checker must reject it (and say why).
  cluster::op_handle dummy{};
  (void)dummy;
  core::cluster_config cfg;
  cfg.n = 3;
  cfg.policy = proto::persistent_policy();
  cfg.seed = 5;
  core::cluster c(cfg);
  rng r(99);
  const auto workload = sim::make_kv_workload([] {
    sim::kv_workload_config wc;
    wc.n = 3;
    wc.key_count = 4;
    wc.read_fraction = 0.5;
    wc.ops = 60;
    wc.seed = 3;
    return wc;
  }());
  for (const auto& op : workload) {
    if (op.is_read) {
      c.submit_read(op.p, op.entries[0].reg, op.at);
    } else {
      c.submit_write(op.p, op.entries[0].reg, op.entries[0].val, op.at);
    }
  }
  ASSERT_TRUE(c.run_until_idle());
  const history_log h = c.events();
  ASSERT_TRUE(check_persistent_atomicity_per_key(h).ok);

  int mutations = 0;
  for (int trial = 0; trial < 40 && mutations < 8; ++trial) {
    history_log mutated = h;
    // Pick a completed non-initial read and a write on a different register.
    std::vector<std::size_t> reads;
    std::vector<std::size_t> writes;
    for (std::size_t i = 0; i < mutated.size(); ++i) {
      if (mutated[i].kind == event_kind::reply_read && !mutated[i].v.is_initial()) {
        reads.push_back(i);
      }
      if (mutated[i].kind == event_kind::invoke_write) writes.push_back(i);
    }
    if (reads.empty() || writes.empty()) break;
    const std::size_t ri = reads[r.next_below(reads.size())];
    const std::size_t wi = writes[r.next_below(writes.size())];
    if (mutated[wi].reg == mutated[ri].reg) continue;  // need a foreign value
    mutated[ri].v = mutated[wi].v;
    ++mutations;
    const auto verdict = check_persistent_atomicity_per_key(mutated);
    EXPECT_FALSE(verdict.ok) << "mutated read at " << ri << " accepted";
    EXPECT_FALSE(verdict.usage_error);
    EXPECT_EQ(verdict.failing_key, mutated[ri].reg);
    EXPECT_NE(verdict.explanation.find("never-written"), std::string::npos)
        << verdict.explanation;
  }
  EXPECT_GE(mutations, 5) << "mutation generator must produce real cases";
}

TEST(KeyedProjection, KeysAndProjectionsPartitionTheHistory) {
  const auto h = inversion_on_register_two();
  const auto keys = keys_of(h);
  ASSERT_EQ(keys, (std::vector<register_id>{1, 2}));
  std::size_t op_events = 0;
  for (const auto k : keys) {
    const auto proj = project_key(h, k);
    EXPECT_TRUE(check_well_formed(proj).ok);
    for (const auto& e : proj) {
      if (e.is_invoke() || e.is_reply()) {
        EXPECT_EQ(e.reg, k);
        ++op_events;
      }
    }
  }
  EXPECT_EQ(op_events, h.size());  // no crash events in this history
}

}  // namespace
}  // namespace remus::history
