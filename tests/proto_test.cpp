// Unit tests for the quorum protocol core: message formats, records,
// policies, and the state machine driven by hand — verifying exactly where
// each algorithm logs (paper Figures 4 and 5) and what the causal-log
// tracing reports (section I-B).
#include <gtest/gtest.h>

#include "proto/message.h"
#include "proto/policy.h"
#include "proto/quorum_core.h"
#include "proto/records.h"
#include "storage/memory_store.h"

namespace remus::proto {
namespace {

constexpr std::uint32_t kN = 5;
constexpr std::uint32_t kMajority = 3;

/// A single-key operation's argument list: the default register (with the
/// write's value).
std::vector<batch_entry> one(value v = {}) { return {{default_register, tag{}, std::move(v)}}; }

/// The one entry of a single-key message.
const batch_entry& only(const message& m) {
  EXPECT_EQ(m.entries.size(), 1u);
  return m.entries.at(0);
}

message sn_ack_from(std::uint32_t p, const message& query, std::int64_t sn) {
  message m;
  m.kind = msg_kind::sn_ack;
  m.from = process_id{p};
  m.op_seq = query.op_seq;
  m.round = query.round;
  m.epoch = query.epoch;
  m.entries = {{default_register, tag{sn, 0, no_process}, {}}};
  m.log_depth = query.log_depth;
  return m;
}

/// An update ack covering every register of `w`.
message write_ack_from(std::uint32_t p, const message& w, std::uint32_t depth) {
  message m;
  m.kind = msg_kind::write_ack;
  m.from = process_id{p};
  m.op_seq = w.op_seq;
  m.round = w.round;
  m.epoch = w.epoch;
  m.log_depth = depth;
  for (const batch_entry& e : w.entries) m.entries.push_back({e.reg, tag{}, value{}});
  return m;
}

message read_ack_from(std::uint32_t p, const message& q, tag t, value v) {
  message m;
  m.kind = msg_kind::read_ack;
  m.from = process_id{p};
  m.op_seq = q.op_seq;
  m.round = q.round;
  m.epoch = q.epoch;
  m.entries = {{default_register, t, std::move(v)}};
  m.log_depth = q.log_depth;
  return m;
}

/// A round-2 write from `from` for the default register.
message write_msg(std::uint32_t from, std::uint64_t op_seq, std::uint64_t epoch, tag t,
                  value v) {
  message m;
  m.kind = msg_kind::write;
  m.from = process_id{from};
  m.op_seq = op_seq;
  m.round = 2;
  m.epoch = epoch;
  m.entries = {{default_register, t, std::move(v)}};
  return m;
}

// ---------- Wire format ----------

TEST(Message, EncodeDecodeRoundTrip) {
  message m;
  m.kind = msg_kind::write;
  m.from = process_id{3};
  m.op_seq = 42;
  m.round = 2;
  m.epoch = 0xabcdef;
  m.entries = {{9, tag{7, 1, process_id{3}}, value_of_u32(99)}};
  m.log_depth = 2;
  const message d = decode_message(encode(m));
  EXPECT_EQ(d, m);
  // Several entries are listed after the count, in order.
  m.entries.push_back({4, tag{2, 0, process_id{1}}, value_of_u32(7)});
  EXPECT_EQ(decode_message(encode(m)), m);
}

TEST(Message, WireSizeMatchesEncodedSize) {
  message m;
  m.kind = msg_kind::read_ack;
  m.from = process_id{1};
  m.entries = {{3, tag{}, value_of_size(1000)}};
  EXPECT_EQ(wire_size(m), encode(m).size());
  m.entries[0].val = initial_value();
  EXPECT_EQ(wire_size(m), encode(m).size());
  m.entries.push_back({4, tag{}, value_of_size(10)});
  EXPECT_EQ(wire_size(m), encode(m).size());
}

TEST(Message, OneEntryTravelsInTheHeader) {
  // The one entry of a single-key message costs no entry framing: 28 bytes
  // less than the same entry listed after the count.
  message m;
  m.kind = msg_kind::write;
  m.entries = {{5, tag{1, 0, process_id{0}}, value_of_u32(1)}};
  EXPECT_EQ(wire_size(m), 65u + 4u);
  message two = m;
  two.entries.push_back({6, tag{1, 0, process_id{0}}, value_of_u32(2)});
  EXPECT_EQ(wire_size(two), 65u + 2 * (28u + 4u));
}

TEST(Message, DecodeRejectsGarbage) {
  bytes junk{0xff, 0x00, 0x01};
  EXPECT_THROW((void)decode_message(junk), codec_error);
}

// ---------- Wire pins: the single-key layout ----------
//
// The exact bytes of every message kind for one register (7) and a 4-byte
// value. A single-key message keeps the register, tag and value in the
// header with an entry count of 0, so its size — and every byte the
// simulator charges for single-key traffic — never moves. Requests are
// pinned as decode/encode round trips; each reply is what a replica core
// emits for the decoded request once the logs it caused are durable.

std::string to_hex(const bytes& b) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t c : b) {
    s += digits[c >> 4];
    s += digits[c & 15];
  }
  return s;
}

bytes from_hex(const std::string& s) {
  bytes b;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2) {
    b.push_back(static_cast<std::uint8_t>(std::stoul(s.substr(i, 2), nullptr, 16)));
  }
  return b;
}

TEST(WirePins, SingleKeyMessagesKeepTheirBytes) {
  struct exchange {
    const char* what;
    std::string request;
    std::string reply;
  };
  // Replica p1 of three (persistent, leases on) serves, in order: p0's SN
  // and W([1,0,p0], 0xa1b2c3d4), p2's R and its stale write-back, p2's lease
  // grant, then p0's W([2,0,p0], 0x0badcafe), whose ack carries the note
  // that p2 holds a lease on register 7.
  const std::vector<exchange> exchanges = {
      {"SN",
       "0100000000010000000000000001000000887766554433221100000000000000000000000000"
       "000000ffffffff0000000000000000070000000000000000000000",
       "0201000000010000000000000001000000887766554433221100000000000000000000000000"
       "000000ffffffff0000000000000000070000000000000000000000"},
      {"W",
       "0300000000010000000000000002000000887766554433221101000000000000000000000000"
       "0000000000000004000000d4c3b2a101000000070000000000000000000000",
       "0401000000010000000000000002000000887766554433221100000000000000000000000000"
       "000000ffffffff0000000002000000070000000000000000000000"},
      {"R",
       "0502000000040000000000000001000000990000000000000000000000000000000000000000"
       "000000ffffffff0000000000000000070000000000000000000000",
       "0601000000040000000000000001000000990000000000000001000000000000000000000000"
       "0000000000000004000000d4c3b2a100000000070000000000000000000000"},
      {"WB",
       "0702000000040000000000000002000000990000000000000001000000000000000000000000"
       "0000000000000004000000d4c3b2a100000000070000000000000000000000",
       "0401000000040000000000000002000000990000000000000000000000000000000000000000"
       "000000ffffffff0000000000000000070000000000000000000000"},
      {"L",
       "0902000000050000000000000001000000990000000000000000000000000000000000000000"
       "000000ffffffff0000000000000000070000000000000000000000",
       "0801000000050000000000000001000000990000000000000001000000000000000000000000"
       "0000000000000004000000d4c3b2a101000000070000000000000000000000"},
      {"W with lease note",
       "0300000000020000000000000002000000887766554433221102000000000000000000000000"
       "0000000000000004000000fecaad0b01000000070000000000000000000000",
       "0401000000020000000000000002000000887766554433221100000000000000000000000000"
       "000000ffffffff0000000002000000070000000000000001000000070000000400000000000000"},
  };
  storage::memory_store store;
  protocol_policy pol = persistent_policy();
  pol.read_leases = true;
  quorum_core replica(pol, process_id{1}, 3, store, 5);
  {
    outputs out;
    replica.start(out);
  }
  for (const exchange& x : exchanges) {
    const message req = decode_message(from_hex(x.request));
    EXPECT_EQ(to_hex(encode(req)), x.request) << x.what;
    EXPECT_EQ(wire_size(req) * 2, x.request.size()) << x.what;
    outputs out;
    replica.on_message(req, out);
    std::vector<std::uint64_t> tokens;
    for (const log_request& lr : out.logs) tokens.push_back(lr.token);
    outputs done;
    for (const std::uint64_t t : tokens) replica.on_log_done(t, done);
    const recycling_vector<send_request>& sends = tokens.empty() ? out.sends : done.sends;
    ASSERT_EQ(sends.size(), 1u) << x.what;
    EXPECT_EQ(to_hex(encode(sends[0].msg)), x.reply) << x.what;
    EXPECT_EQ(wire_size(sends[0].msg) * 2, x.reply.size()) << x.what;
  }

  // The writer side: a recovering writer's finish-write round for its one
  // pre-logged register.
  storage::memory_store wstore;
  quorum_core writer(persistent_policy(), process_id{0}, 3, wstore, 9);
  {
    outputs out;
    writer.start(out);
  }
  wstore.erase(writing_key);
  wstore.store(writing_key_of(7), encode(tagged_value_record{tag{3, 0, process_id{0}},
                                                             value_of_u32(0xa1b2c3d4)}));
  writer.crash();
  outputs out;
  writer.recover(0x4242, out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(to_hex(encode(out.broadcasts[0].msg)),
            "0300000000010000000000000002000000424200000000000003000000000000000000000000"
            "0000000000000004000000d4c3b2a100000000070000000000000000000000");
}

TEST(Records, TaggedValueRoundTrip) {
  const tagged_value_record r{tag{5, 2, process_id{1}}, value_of_string("abc")};
  EXPECT_EQ(decode_tagged_value(encode(r)), r);
}

TEST(Records, RecoveryRoundTrip) {
  const recovery_record r{17};
  EXPECT_EQ(decode_recovery(encode(r)).recoveries, 17);
}

// ---------- Policies ----------

TEST(Policy, NamedPoliciesAreCoherent) {
  for (const auto& p :
       {crash_stop_policy(), persistent_policy(), transient_policy(), abd_swmr_policy(),
        regular_swmr_policy(), safe_swmr_policy(), regular_cr_policy(), safe_cr_policy(),
        transient_literal_policy(), persistent_no_prelog_policy(),
        read_no_writeback_policy(), read_volatile_writeback_policy(),
        ablation_a_policy(), ablation_a_prime_policy()}) {
    EXPECT_TRUE(p.coherent()) << p.name;
  }
}

TEST(Policy, IncoherentCombinationsRejected) {
  protocol_policy p = persistent_policy();
  p.writer_prelog = false;  // finish-write without prelog
  EXPECT_FALSE(p.coherent());

  protocol_policy q = crash_stop_policy();
  q.writer_prelog = true;  // logging in crash-stop
  EXPECT_FALSE(q.coherent());

  protocol_policy r = crash_stop_policy();
  r.write_query_round = false;  // no query round for multi-writer
  EXPECT_FALSE(r.coherent());
  r.single_writer = true;
  EXPECT_TRUE(r.coherent());
}

TEST(Policy, CoreRejectsIncoherentPolicy) {
  storage::memory_store st;
  protocol_policy p = persistent_policy();
  p.writer_prelog = false;
  EXPECT_THROW(quorum_core(p, process_id{0}, kN, st, 1), precondition_error);
}

// ---------- Crash-stop write/read (the baseline of [2]) ----------

class CrashStopCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(crash_stop_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
    ASSERT_TRUE(out.empty());
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(CrashStopCore, WriteRunsTwoRoundsNoLogs) {
  outputs out;
  core_->invoke_write(one(value_of_u32(10)), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(out.broadcasts[0].msg.kind, msg_kind::sn_query);
  EXPECT_TRUE(out.logs.empty());
  const message query = out.broadcasts[0].msg;

  // Majority of SN acks; max sn = 4.
  out.clear();
  core_->on_message(sn_ack_from(1, query, 2), out);
  EXPECT_TRUE(out.broadcasts.empty());
  core_->on_message(sn_ack_from(2, query, 4), out);
  out.clear();
  core_->on_message(sn_ack_from(3, query, 3), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);  // round 2 starts on the 3rd ack
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(only(w).ts, (tag{5, 0, process_id{0}}));  // max + 1, tie-break pid
  EXPECT_EQ(only(w).val, value_of_u32(10));
  EXPECT_TRUE(out.logs.empty());

  out.clear();
  core_->on_message(write_ack_from(1, w, 0), out);
  core_->on_message(write_ack_from(2, w, 0), out);
  EXPECT_FALSE(out.completion.has_value());
  core_->on_message(write_ack_from(4, w, 0), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_FALSE(out.completion->is_read);
  EXPECT_EQ(out.completion->causal_logs, 0u);  // crash-stop never logs
  EXPECT_EQ(out.completion->round_trips, 2u);  // 4 communication steps
  EXPECT_EQ(store_.store_count(), 0u);
}

TEST_F(CrashStopCore, DuplicateAcksDoNotCount) {
  outputs out;
  core_->invoke_write(one(value_of_u32(10)), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(1, query, 0), out);
  EXPECT_TRUE(out.broadcasts.empty());  // still only 1 distinct responder
  core_->on_message(sn_ack_from(2, query, 0), out);
  core_->on_message(sn_ack_from(3, query, 0), out);
  EXPECT_EQ(out.broadcasts.size(), 1u);
}

TEST_F(CrashStopCore, StaleAcksFromOldPhaseIgnored) {
  outputs out;
  core_->invoke_write(one(value_of_u32(10)), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core_->on_message(sn_ack_from(p, query, 0), out);
  }
  const message w = out.broadcasts[0].msg;
  out.clear();
  // Acks for round 1 cannot satisfy round 2.
  core_->on_message(sn_ack_from(1, query, 0), out);
  core_->on_message(sn_ack_from(2, query, 0), out);
  core_->on_message(sn_ack_from(4, query, 0), out);
  EXPECT_FALSE(out.completion.has_value());
  // Wrong-epoch write acks ignored.
  message bad = write_ack_from(1, w, 0);
  bad.epoch ^= 1;
  core_->on_message(bad, out);
  EXPECT_FALSE(out.completion.has_value());
  // Real acks complete it.
  core_->on_message(write_ack_from(1, w, 0), out);
  core_->on_message(write_ack_from(2, w, 0), out);
  core_->on_message(write_ack_from(3, w, 0), out);
  EXPECT_TRUE(out.completion.has_value());
}

TEST_F(CrashStopCore, ServerAdoptsOnlyNewerTags) {
  outputs out;
  const message w = write_msg(2, 9, 55, tag{3, 0, process_id{2}}, value_of_u32(30));
  core_->on_message(w, out);
  EXPECT_EQ(core_->replica_tag(), only(w).ts);
  EXPECT_EQ(core_->replica_value(), only(w).val);
  ASSERT_EQ(out.sends.size(), 1u);
  EXPECT_EQ(out.sends[0].msg.kind, msg_kind::write_ack);
  EXPECT_EQ(out.sends[0].to, process_id{2});

  // An older write arrives late: acked but not adopted.
  out.clear();
  const message old = write_msg(2, 9, 55, tag{2, 0, process_id{4}}, value_of_u32(20));
  core_->on_message(old, out);
  EXPECT_EQ(core_->replica_tag(), only(w).ts);
  ASSERT_EQ(out.sends.size(), 1u);

  // Equal tag (retransmission): ack, no change.
  out.clear();
  core_->on_message(w, out);
  EXPECT_EQ(core_->replica_value(), only(w).val);
  EXPECT_EQ(out.sends.size(), 1u);
}

TEST_F(CrashStopCore, ReadQueriesThenWritesBack) {
  outputs out;
  core_->invoke_read(one(), out);
  const message q = out.broadcasts[0].msg;
  EXPECT_EQ(q.kind, msg_kind::read_query);
  out.clear();
  core_->on_message(read_ack_from(1, q, tag{2, 0, process_id{1}}, value_of_u32(21)), out);
  core_->on_message(read_ack_from(2, q, tag{5, 0, process_id{2}}, value_of_u32(52)), out);
  core_->on_message(read_ack_from(3, q, tag{1, 0, process_id{3}}, value_of_u32(11)), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message wb = out.broadcasts[0].msg;
  EXPECT_EQ(wb.kind, msg_kind::writeback);
  EXPECT_EQ(only(wb).ts, (tag{5, 0, process_id{2}}));  // freshest of the majority
  EXPECT_EQ(only(wb).val, value_of_u32(52));
  out.clear();
  core_->on_message(write_ack_from(1, wb, 0), out);
  core_->on_message(write_ack_from(2, wb, 0), out);
  core_->on_message(write_ack_from(3, wb, 0), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_TRUE(out.completion->is_read);
  EXPECT_EQ(out.completion->entries.at(0).val, value_of_u32(52));
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(CrashStopCore, RecoverForbidden) {
  core_->crash();
  outputs out;
  EXPECT_THROW(core_->recover(1, out), precondition_error);
}

TEST_F(CrashStopCore, InvokeWhileBusyForbidden) {
  outputs out;
  core_->invoke_write(one(value_of_u32(1)), out);
  EXPECT_THROW(core_->invoke_read(one(), out), precondition_error);
  EXPECT_THROW(core_->invoke_write(one(value_of_u32(2)), out), precondition_error);
}

TEST_F(CrashStopCore, RetransmitTargetsSilentProcesses) {
  outputs out;
  core_->invoke_write(one(value_of_u32(1)), out);
  const message query = out.broadcasts[0].msg;
  ASSERT_EQ(out.timers.size(), 1u);
  const auto token = out.timers[0].token;
  out.clear();
  core_->on_message(sn_ack_from(2, query, 0), out);
  out.clear();
  core_->on_timer(token, out);
  // Re-sent to everyone except p2 (which answered).
  ASSERT_EQ(out.sends.size(), kN - 1);
  for (const auto& s : out.sends) EXPECT_NE(s.to, process_id{2});
  ASSERT_EQ(out.timers.size(), 1u);  // re-armed
  // The stale token no longer fires.
  outputs out2;
  core_->on_timer(token, out2);
  EXPECT_TRUE(out2.empty());
}

// ---------- Persistent emulation (Fig. 4) ----------

class PersistentCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(persistent_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
  }

  /// Drives a write up to the point where the prelog was requested.
  log_request start_write_until_prelog(value v) {
    outputs out;
    core_->invoke_write(one(std::move(v)), out);
    const message query = out.broadcasts[0].msg;
    out.clear();
    for (std::uint32_t p = 1; p <= kMajority; ++p) {
      core_->on_message(sn_ack_from(p, query, 0), out);
    }
    // Fig. 4 line 12: the writer logs (writing, sn, v) before round 2.
    EXPECT_EQ(out.logs.size(), 1u);
    EXPECT_TRUE(out.broadcasts.empty());
    return out.logs[0];
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(PersistentCore, InitializeStoresInitialRecords) {
  // Fig. 4 Initialize: store(writing, 0, ⊥) and store(written, 0, i, ⊥).
  EXPECT_TRUE(store_.retrieve(writing_key).has_value());
  EXPECT_TRUE(store_.retrieve(written_key).has_value());
  EXPECT_FALSE(store_.retrieve(recovered_key).has_value());
}

TEST_F(PersistentCore, WriteUsesTwoCausalLogs) {
  const log_request prelog = start_write_until_prelog(value_of_u32(77));
  EXPECT_EQ(prelog.key, writing_key);
  EXPECT_EQ(prelog.ctx, exec_context::client);
  EXPECT_EQ(prelog.depth_after, 1u);
  const auto rec = decode_tagged_value(prelog.record);
  EXPECT_EQ(rec.ts, (tag{1, 0, process_id{0}}));
  EXPECT_EQ(rec.val, value_of_u32(77));

  // Log completes -> round 2 broadcast carries depth 1.
  outputs out;
  core_->on_log_done(prelog.token, out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(w.log_depth, 1u);

  // Servers log before acking: acks carry depth 2; the write reports 2
  // causal logs — the tight bound of Theorem 1.
  out.clear();
  core_->on_message(write_ack_from(1, w, 2), out);
  core_->on_message(write_ack_from(2, w, 2), out);
  core_->on_message(write_ack_from(3, w, 2), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->causal_logs, 2u);
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(PersistentCore, ServerLogsBeforeAcking) {
  outputs out;
  message w = write_msg(2, 4, 9, tag{3, 0, process_id{2}}, value_of_u32(33));
  w.log_depth = 1;
  core_->on_message(w, out);
  // Volatile state updated immediately, but no ack until the log is durable.
  EXPECT_EQ(core_->replica_tag(), only(w).ts);
  ASSERT_EQ(out.logs.size(), 1u);
  EXPECT_TRUE(out.sends.empty());
  EXPECT_EQ(out.logs[0].key, written_key);
  EXPECT_EQ(out.logs[0].ctx, exec_context::listener);
  EXPECT_EQ(out.logs[0].depth_after, 2u);

  outputs out2;
  core_->on_log_done(out.logs[0].token, out2);
  ASSERT_EQ(out2.sends.size(), 1u);
  EXPECT_EQ(out2.sends[0].msg.kind, msg_kind::write_ack);
  EXPECT_EQ(out2.sends[0].msg.log_depth, 2u);
  EXPECT_EQ(out2.sends[0].to, process_id{2});
}

TEST_F(PersistentCore, ServerAcksStaleWriteWithoutLogging) {
  outputs out;
  const message w = write_msg(2, 4, 9, tag{3, 0, process_id{2}}, value_of_u32(33));
  core_->on_message(w, out);
  outputs tmp;
  core_->on_log_done(out.logs[0].token, tmp);

  // Older tag: immediate ack, no log.
  outputs out2;
  const message old = write_msg(2, 5, 9, tag{1, 0, process_id{1}}, value_of_u32(33));
  core_->on_message(old, out2);
  EXPECT_TRUE(out2.logs.empty());
  ASSERT_EQ(out2.sends.size(), 1u);
  EXPECT_EQ(out2.sends[0].msg.log_depth, old.log_depth);
}

TEST_F(PersistentCore, CrashForgetsVolatileKeepsStable) {
  outputs out;
  const message w = write_msg(1, 2, 3, tag{4, 0, process_id{1}}, value_of_u32(44));
  core_->on_message(w, out);
  outputs tmp;
  core_->on_log_done(out.logs[0].token, tmp);
  // Simulate the driver's durability point.
  store_.store(written_key, encode(tagged_value_record{only(w).ts, only(w).val}));

  core_->crash();
  EXPECT_FALSE(core_->is_up());
  EXPECT_EQ(core_->replica_tag(), initial_tag);  // volatile gone
  EXPECT_THROW(core_->on_message(w, out), precondition_error);

  outputs rec;
  core_->recover(99, rec);
  EXPECT_EQ(core_->replica_tag(), only(w).ts);  // restored from (written)
  EXPECT_EQ(core_->replica_value(), only(w).val);
}

TEST_F(PersistentCore, RegisterWithoutWrittenRecordRestoresToInitial) {
  // Registers 1 and 2 adopt writes and log them, but only register 1's
  // (written) record becomes durable before the crash. Recovery reuses the
  // replica table's slots; register 2 must still come back as ⊥.
  const register_id first = 1, second = 2;
  for (const register_id reg : {first, second}) {
    message w = write_msg(1, reg, 3, tag{5, 0, process_id{1}},
                          value_of_u32(100 + static_cast<std::uint32_t>(reg)));
    w.entries[0].reg = reg;
    outputs out;
    core_->on_message(w, out);
    ASSERT_EQ(out.logs.size(), 1u);
    EXPECT_EQ(out.logs[0].key, written_key_of(reg));
    if (reg == first) store_.store(out.logs[0].key, out.logs[0].record);
    EXPECT_EQ(core_->replica_tag(reg), (tag{5, 0, process_id{1}}));
  }

  core_->crash();
  outputs rec;
  core_->recover(101, rec);
  EXPECT_EQ(core_->replica_tag(first), (tag{5, 0, process_id{1}}));
  EXPECT_EQ(core_->replica_value(first), value_of_u32(101));
  EXPECT_EQ(core_->replica_tag(second), initial_tag);
  EXPECT_EQ(core_->replica_value(second), initial_value());
}

TEST_F(PersistentCore, RecoveryFinishesPendingWrite) {
  // Crash after the prelog: the new value survives in (writing).
  const log_request prelog = start_write_until_prelog(value_of_u32(123));
  store_.store(prelog.key, prelog.record);  // durability point before crash
  outputs out;
  core_->on_log_done(prelog.token, out);    // round 2 broadcast out
  core_->crash();

  outputs rec;
  core_->recover(100, rec);
  EXPECT_FALSE(core_->ready());  // recovery round in progress
  // Fig. 4 Recover: re-runs round 2 with the logged (writing) record.
  ASSERT_EQ(rec.broadcasts.size(), 1u);
  const message w = rec.broadcasts[0].msg;
  EXPECT_EQ(w.kind, msg_kind::write);
  EXPECT_EQ(only(w).ts, (tag{1, 0, process_id{0}}));
  EXPECT_EQ(only(w).val, value_of_u32(123));

  outputs done;
  core_->on_message(write_ack_from(1, w, 1), done);
  core_->on_message(write_ack_from(2, w, 1), done);
  EXPECT_FALSE(core_->ready());
  core_->on_message(write_ack_from(3, w, 1), done);
  EXPECT_TRUE(core_->ready());
  EXPECT_TRUE(done.recovery_complete);
}

TEST_F(PersistentCore, RecoveryWithNoPendingWriteStillRunsHarmlessRound) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  ASSERT_EQ(rec.broadcasts.size(), 1u);
  // "Even if there are no previously unfinished writes, writing an old value
  // with an old timestamp will not replace any newer values."
  EXPECT_EQ(only(rec.broadcasts[0].msg).ts, initial_tag);
}

// ---------- Transient emulation (Fig. 5) ----------

class TransientCore : public ::testing::Test {
 protected:
  void SetUp() override {
    core_ = std::make_unique<quorum_core>(transient_policy(), process_id{0}, kN, store_, 7);
    outputs out;
    core_->start(out);
  }

  storage::memory_store store_;
  std::unique_ptr<quorum_core> core_;
};

TEST_F(TransientCore, InitializeStoresRecoveryCounter) {
  ASSERT_TRUE(store_.retrieve(recovered_key).has_value());
  EXPECT_EQ(decode_recovery(*store_.retrieve(recovered_key)).recoveries, 0);
  EXPECT_FALSE(store_.retrieve(writing_key).has_value());  // no prelog record
}

TEST_F(TransientCore, WriteUsesOneCausalLogAndNoPrelog) {
  outputs out;
  core_->invoke_write(one(value_of_u32(5)), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core_->on_message(sn_ack_from(p, query, 0), out);
  }
  // No writer prelog: round 2 starts immediately at depth 0.
  EXPECT_TRUE(out.logs.empty());
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 0u);
  EXPECT_EQ(only(w).ts, (tag{1, 0, process_id{0}}));  // sn = max + rec(0) + 1

  out.clear();
  core_->on_message(write_ack_from(1, w, 1), out);
  core_->on_message(write_ack_from(2, w, 1), out);
  core_->on_message(write_ack_from(3, w, 1), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->causal_logs, 1u);  // the tight bound
  EXPECT_EQ(out.completion->round_trips, 2u);
}

TEST_F(TransientCore, RecoveryLogsIncrementedCounterAndSkipsFinishWrite) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  EXPECT_TRUE(rec.broadcasts.empty());  // no finish-write round
  ASSERT_EQ(rec.logs.size(), 1u);
  EXPECT_EQ(rec.logs[0].key, recovered_key);
  EXPECT_EQ(decode_recovery(rec.logs[0].record).recoveries, 1);
  EXPECT_FALSE(core_->ready());

  outputs done;
  core_->on_log_done(rec.logs[0].token, done);
  EXPECT_TRUE(done.recovery_complete);
  EXPECT_TRUE(core_->ready());
  EXPECT_EQ(core_->recoveries(), 1);
}

TEST_F(TransientCore, SequenceNumberBumpsByRecPlusOne) {
  // Recover twice (rec = 2), then write: sn := max + rec + 1 (Fig. 5 line 11).
  for (int i = 0; i < 2; ++i) {
    core_->crash();
    outputs rec;
    core_->recover(100 + i, rec);
    store_.store(recovered_key, rec.logs[0].record);
    outputs done;
    core_->on_log_done(rec.logs[0].token, done);
  }
  EXPECT_EQ(core_->recoveries(), 2);

  outputs out;
  core_->invoke_write(one(value_of_u32(9)), out);
  const message query = out.broadcasts[0].msg;
  out.clear();
  core_->on_message(sn_ack_from(1, query, 4), out);
  core_->on_message(sn_ack_from(2, query, 2), out);
  core_->on_message(sn_ack_from(3, query, 0), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  // sn = 4 + 2 + 1; rec rides in the tag as tie-break (see timestamp.h).
  EXPECT_EQ(only(out.broadcasts[0].msg).ts, (tag{7, 2, process_id{0}}));
}

TEST_F(TransientCore, CounterSurvivesViaStableStorage) {
  core_->crash();
  outputs rec;
  core_->recover(100, rec);
  store_.store(recovered_key, rec.logs[0].record);
  outputs done;
  core_->on_log_done(rec.logs[0].token, done);

  core_->crash();
  outputs rec2;
  core_->recover(101, rec2);
  EXPECT_EQ(decode_recovery(rec2.logs[0].record).recoveries, 2);
}

// ---------- Weaker registers (section VI) ----------

TEST(WeakRegisters, AbdSwmrWriteSkipsQueryRound) {
  storage::memory_store st;
  quorum_core core(abd_swmr_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(one(value_of_u32(5)), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  EXPECT_EQ(out.broadcasts[0].msg.kind, msg_kind::write);  // 1 round-trip
  EXPECT_EQ(only(out.broadcasts[0].msg).ts, (tag{1, 0, process_id{0}}));
  const message w1 = out.broadcasts[0].msg;
  out.clear();
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core.on_message(write_ack_from(p, w1, 0), out);
  }
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->round_trips, 1u);
  out.clear();
  core.invoke_write(one(value_of_u32(6)), out);  // bumps the local counter
  EXPECT_EQ(only(out.broadcasts[0].msg).ts, (tag{2, 0, process_id{0}}));
}

TEST(WeakRegisters, OnlyProcessZeroMayWriteSwmr) {
  storage::memory_store st;
  quorum_core core(abd_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  EXPECT_THROW(core.invoke_write(one(value_of_u32(1)), out), precondition_error);
  EXPECT_NO_THROW(core.invoke_read(one(), out));  // readers are fine
}

TEST(WeakRegisters, RegularReadSkipsWriteBack) {
  storage::memory_store st;
  quorum_core core(regular_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_read(one(), out);
  const message q = out.broadcasts[0].msg;
  out.clear();
  core.on_message(read_ack_from(0, q, tag{3, 0, process_id{0}}, value_of_u32(30)), out);
  core.on_message(read_ack_from(2, q, tag{2, 0, process_id{0}}, value_of_u32(20)), out);
  core.on_message(read_ack_from(3, q, tag{1, 0, process_id{0}}, value_of_u32(10)), out);
  ASSERT_TRUE(out.completion.has_value());  // no second round
  EXPECT_EQ(out.completion->entries.at(0).val, value_of_u32(30));
  EXPECT_EQ(out.completion->round_trips, 1u);
  EXPECT_TRUE(out.broadcasts.empty());
}

TEST(WeakRegisters, SafeReadReturnsFirstReply) {
  storage::memory_store st;
  quorum_core core(safe_swmr_policy(), process_id{1}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_read(one(), out);
  const message q = out.broadcasts[0].msg;
  out.clear();
  core.on_message(read_ack_from(3, q, tag{1, 0, process_id{0}}, value_of_u32(10)), out);
  core.on_message(read_ack_from(0, q, tag{3, 0, process_id{0}}, value_of_u32(30)), out);
  core.on_message(read_ack_from(2, q, tag{2, 0, process_id{0}}, value_of_u32(20)), out);
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->entries.at(0).val, value_of_u32(10));  // first, not freshest
}

// ---------- Ablation algorithms (section I-B) ----------

TEST(Ablation, AlgorithmAUsesTwoCausalLogsAndWaitsForAll) {
  storage::memory_store st;
  quorum_core core(ablation_a_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(one(value_of_u32(1)), out);
  // Writer logs first (no query round)...
  ASSERT_EQ(out.logs.size(), 1u);
  EXPECT_TRUE(out.broadcasts.empty());
  outputs out2;
  core.on_log_done(out.logs[0].token, out2);
  ASSERT_EQ(out2.broadcasts.size(), 1u);
  const message w = out2.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 1u);
  // ...and needs all n acks, not a majority.
  outputs out3;
  for (std::uint32_t p = 0; p < kN - 1; ++p) {
    core.on_message(write_ack_from(p, w, 2), out3);
    EXPECT_FALSE(out3.completion.has_value());
  }
  core.on_message(write_ack_from(kN - 1, w, 2), out3);
  ASSERT_TRUE(out3.completion.has_value());
  EXPECT_EQ(out3.completion->causal_logs, 2u);
}

TEST(Ablation, AlgorithmAPrimeUsesOneCausalLog) {
  storage::memory_store st;
  quorum_core core(ablation_a_prime_policy(), process_id{0}, kN, st, 7);
  outputs out;
  core.start(out);
  core.invoke_write(one(value_of_u32(1)), out);
  // No prelog: the broadcast goes straight out at depth 0.
  EXPECT_TRUE(out.logs.empty());
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message w = out.broadcasts[0].msg;
  EXPECT_EQ(w.log_depth, 0u);
  outputs out3;
  for (std::uint32_t p = 0; p < kN; ++p) {
    core.on_message(write_ack_from(p, w, 1), out3);  // every listener logs in parallel
  }
  ASSERT_TRUE(out3.completion.has_value());
  EXPECT_EQ(out3.completion->causal_logs, 1u);
}

// ---------- Batch-aware retransmission ----------

message batched_write_ack(std::uint32_t p, const message& w,
                          std::initializer_list<register_id> covered) {
  message m;
  m.kind = msg_kind::write_ack;
  m.from = process_id{p};
  m.op_seq = w.op_seq;
  m.round = w.round;
  m.epoch = w.epoch;
  m.log_depth = w.log_depth + 1;
  for (const register_id reg : covered) m.entries.push_back({reg, tag{}, value{}});
  return m;
}

TEST(BatchRetransmission, TrimmedAndFullRepeatsMatchTheSettlementRules) {
  storage::memory_store store;
  quorum_core core(persistent_policy(), process_id{0}, kN, store, 1);
  {
    outputs out;
    core.start(out);
  }
  outputs out;
  core.invoke_write({{10, {}, value_of_u32(1)}, {20, {}, value_of_u32(2)}}, out);
  const message query = out.broadcasts[0].msg;
  outputs out2;
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    message a = sn_ack_from(p, query, 0);
    a.entries = {{10, tag{}, value{}}, {20, tag{}, value{}}};
    core.on_message(a, out2);
  }
  std::vector<std::uint64_t> tokens;
  for (const log_request& lr : out2.logs) tokens.push_back(lr.token);
  outputs out3;
  for (const std::uint64_t t : tokens) core.on_log_done(t, out3);
  ASSERT_EQ(out3.broadcasts.size(), 1u);
  const message w = out3.broadcasts[0].msg;
  ASSERT_EQ(out3.timers.size(), 1u);
  const std::uint64_t retrans_token = out3.timers[0].token;

  // p1 fully acks; p2 acks only register 10.
  outputs acks;
  core.on_message(batched_write_ack(1, w, {10, 20}), acks);
  core.on_message(batched_write_ack(2, w, {10}), acks);
  EXPECT_FALSE(acks.completion.has_value());

  // p1 covered everything -> silent. p2 gets only register 20. The others
  // (including the writer's own listener, p0) get both: neither register
  // is settled yet (10 has 2 of 3 votes, 20 has 1).
  outputs rt;
  core.on_timer(retrans_token, rt);
  ASSERT_EQ(rt.sends.size(), 4u);
  for (const send_request& s : rt.sends) {
    if (s.to == process_id{2}) {
      ASSERT_EQ(s.msg.entries.size(), 1u);
      EXPECT_EQ(s.msg.entries[0].reg, 20u);
      EXPECT_EQ(s.msg.entries[0].val, value_of_u32(2));  // payload rides along
      // One entry travels in the header: no entry framing on the wire.
      EXPECT_EQ(wire_size(s.msg), 65u + 4u);
    } else {
      EXPECT_EQ(s.msg.entries.size(), 2u);
    }
  }

  // Completion is per-register majorities: after p3's full ack, register
  // 10 has {p1, p2, p3} but 20 only {p1, p3} — still open. p4's *trimmed*
  // ack covering just {20} settles it and completes the batch.
  outputs fin;
  core.on_message(batched_write_ack(3, w, {10, 20}), fin);
  EXPECT_FALSE(fin.completion.has_value());
  core.on_message(batched_write_ack(4, w, {20}), fin);
  ASSERT_TRUE(fin.completion.has_value());
  ASSERT_EQ(fin.completion->entries.size(), 2u);
  EXPECT_EQ(fin.completion->entries[0].reg, 10u);
  EXPECT_EQ(fin.completion->entries[1].reg, 20u);
}

// ---------- Read leases ----------

TEST(Leases, LeasedHitReportsItsOwnOp) {
  // A read served locally under a lease is an operation of its own:
  // current_op_seq() names it, as it names every other op once invoked.
  storage::memory_store store;
  protocol_policy pol = persistent_policy();
  pol.read_leases = true;
  pol.lease_hot_read_threshold = 0;  // the first read is a grant round
  quorum_core core(pol, process_id{0}, kN, store, 1);
  outputs out;
  core.start(out);
  core.invoke_read(one(), out);
  ASSERT_EQ(out.broadcasts.size(), 1u);
  const message grant = out.broadcasts[0].msg;
  ASSERT_EQ(grant.kind, msg_kind::lease_grant);
  outputs acks;
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    message a = read_ack_from(p, grant, initial_tag, initial_value());
    a.kind = msg_kind::lease_grant_ack;
    core.on_message(a, acks);
  }
  ASSERT_EQ(acks.broadcasts.size(), 1u);
  const message writeback = acks.broadcasts[0].msg;
  outputs granted;
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    core.on_message(write_ack_from(p, writeback, 1), granted);
  }
  ASSERT_TRUE(granted.completion.has_value());
  ASSERT_EQ(core.branches().lease_grants, 1u);

  outputs hit;
  core.invoke_read(one(), hit);
  ASSERT_TRUE(hit.completion.has_value());
  EXPECT_TRUE(hit.broadcasts.empty());
  EXPECT_EQ(core.branches().leased_read_hits, 1u);
  EXPECT_EQ(core.current_op_seq(), hit.completion->op_seq);
  EXPECT_GT(hit.completion->op_seq, granted.completion->op_seq);
}

// ---------- One operation shape: where the single-key rule wins ----------

/// A persistent writer p0 of kN with leases on, driven through round 1 and
/// its pre-logs for `regs`; returns the round-2 broadcast.
message write_until_round_two(quorum_core& core, const std::vector<batch_entry>& regs) {
  outputs out;
  core.start(out);
  core.invoke_write(regs, out);
  const message query = out.broadcasts[0].msg;
  outputs acks;
  for (std::uint32_t p = 1; p <= kMajority; ++p) {
    message a = sn_ack_from(p, query, 0);
    a.entries.clear();
    for (const batch_entry& e : regs) a.entries.push_back({e.reg, tag{}, value{}});
    core.on_message(a, acks);
  }
  std::vector<std::uint64_t> tokens;
  for (const log_request& lr : acks.logs) tokens.push_back(lr.token);
  outputs round2;
  for (const std::uint64_t t : tokens) core.on_log_done(t, round2);
  return round2.broadcasts[0].msg;
}

TEST(OneShape, DuplicateUpdateAckChangesNothing) {
  // An ack covering no new (process, register) pair is a duplicate: it
  // neither raises the causal-log depth nor adds its lease notes — for a
  // multi-register update exactly as for a single-key one.
  storage::memory_store store;
  protocol_policy pol = persistent_policy();
  pol.read_leases = true;
  quorum_core core(pol, process_id{0}, kN, store, 1);
  const message w = write_until_round_two(
      core, {{10, {}, value_of_u32(1)}, {20, {}, value_of_u32(2)}});
  outputs out;
  core.on_message(write_ack_from(1, w, 2), out);
  message dup = write_ack_from(1, w, 7);
  dup.leases.push_back(lease_note{10, 1u << 4});  // "p4 holds a lease on 10"
  core.on_message(dup, out);
  core.on_message(write_ack_from(2, w, 2), out);
  core.on_message(write_ack_from(3, w, 2), out);
  // A majority covered both registers; the duplicate's note would have made
  // register 10 wait for p4.
  ASSERT_TRUE(out.completion.has_value());
  EXPECT_EQ(out.completion->causal_logs, 2u);
}

TEST(OneShape, OneSlotOpsCountNoSplitOrTrim) {
  storage::memory_store store;
  quorum_core core(persistent_policy(), process_id{0}, kN, store, 1);
  outputs out;
  core.start(out);
  core.invoke_write(one(value_of_u32(5)), out);
  const message query = out.broadcasts[0].msg;
  outputs acks;
  for (std::uint32_t p = 1; p <= kMajority; ++p) core.on_message(sn_ack_from(p, query, 0), acks);
  outputs round2;
  core.on_log_done(acks.logs[0].token, round2);
  const message w = round2.broadcasts[0].msg;
  core.on_message(write_ack_from(1, w, 2), round2);
  // A retransmission of a one-register update repeats the whole message to
  // every silent process: a retransmit, never a trim.
  outputs rt;
  core.on_timer(round2.timers[0].token, rt);
  EXPECT_EQ(rt.sends.size(), kN - 1);
  for (const send_request& s : rt.sends) EXPECT_EQ(s.msg, w);
  EXPECT_EQ(core.branches().retransmits, 1u);
  EXPECT_EQ(core.branches().retransmit_trims, 0u);

  // A replica serving a one-entry update either adopts or keeps its value:
  // never a split.
  storage::memory_store replica_store;
  quorum_core replica(persistent_policy(), process_id{1}, kN, replica_store, 2);
  outputs served;
  replica.start(served);
  replica.on_message(w, served);
  replica.on_message(w, served);
  EXPECT_EQ(replica.branches().adoptions, 1u);
  EXPECT_EQ(replica.branches().stale_updates, 1u);
  EXPECT_EQ(replica.branches().adopt_splits, 0u);
}

}  // namespace
}  // namespace remus::proto
