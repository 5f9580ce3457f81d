#include "proto/quorum_core.h"

#include <algorithm>
#include <utility>

namespace remus::proto {

quorum_core::quorum_core(protocol_policy pol, process_id self, std::uint32_t n,
                         storage::stable_store& store, std::uint64_t initial_epoch)
    : pol_(std::move(pol)), self_(self), n_(n), store_(store), epoch_(initial_epoch) {
  if (!pol_.coherent()) throw precondition_error("quorum_core: incoherent policy " + pol_.name);
  if (n_ < 1 || !self_.valid() || self_.index >= n_) {
    throw precondition_error("quorum_core: bad process id / cluster size");
  }
  // Room for a single-key operation up front — its slot, its broadcast's
  // entry and one deferred ack — so a fresh core's first operations allocate
  // no bookkeeping.
  cl_.slots.resize(1);
  cl_.slots[0].acked.resize(n_);
  cl_.current.entries.resize(1);
  deferred_acks_.resize(1);
  deferred_acks_[0].regs.reserve(1);
}

std::uint32_t quorum_core::quorum_size() const {
  return pol_.wait_for_all ? n_ : n_ / 2 + 1;
}

tag quorum_core::replica_tag(register_id reg) const {
  const replica_slot* rs = replicas_.find(reg);
  return rs != nullptr ? rs->vtag : initial_tag;
}

value quorum_core::replica_value(register_id reg) const {
  const replica_slot* rs = replicas_.find(reg);
  return rs != nullptr ? rs->vval : initial_value();
}

void quorum_core::fill_entry(batch_entry& e, register_id reg, bool with_value) const {
  const replica_slot* rs = replicas_.find(reg);
  e.reg = reg;
  e.ts = rs != nullptr ? rs->vtag : initial_tag;
  if (with_value && rs != nullptr) {
    e.val = rs->vval;  // copy-assign into retained capacity
  } else {
    e.val.data.clear();
  }
}

void quorum_core::check_input_allowed(const char* what) const {
  if (!up_) throw precondition_error(std::string("quorum_core: input while crashed: ") + what);
}

void quorum_core::check_invocation_allowed(const char* what) const {
  check_input_allowed(what);
  if (!ready_) {
    throw precondition_error(std::string("quorum_core: ") + what + " while recovering");
  }
  if (!idle()) {
    throw precondition_error(std::string("quorum_core: ") + what + " while op in flight");
  }
}

message& quorum_core::stage_msg(msg_kind k, std::uint32_t round, std::uint32_t depth) {
  message& m = cl_.current;
  m.kind = k;
  m.from = self_;
  m.op_seq = cl_.op_seq;
  m.round = round;
  m.epoch = epoch_;
  m.log_depth = depth;
  m.entries.resize(cl_.slot_count);  // keeps the kept entries' value buffers
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    batch_entry& e = m.entries[i];
    e.reg = cl_.slots[i].reg;
    e.ts = tag{};
    e.val.data.clear();
  }
  m.leases.clear();
  return m;
}

message& quorum_core::stage_reply(process_id to, msg_kind k, std::uint64_t op_seq,
                                  std::uint32_t round, std::uint64_t epoch,
                                  std::uint32_t depth, outputs& out) {
  send_request& s = out.sends.emplace_slot();
  s.to = to;
  message& m = s.msg;  // recycled slot: every header field assigned
  m.kind = k;
  m.from = self_;
  m.op_seq = op_seq;
  m.round = round;
  m.epoch = epoch;
  m.log_depth = depth;
  m.leases.clear();
  return m;
}

quorum_core::op_slot& quorum_core::claim_slot(std::uint32_t i, register_id r) {
  if (cl_.slots.size() <= i) cl_.slots.resize(i + 1);
  op_slot& s = cl_.slots[i];
  s.reg = r;
  s.ts = tag{};
  s.val.data.clear();
  s.max_sn = 0;
  s.have_first = false;
  s.first_tag = tag{};
  s.first_val.data.clear();
  s.lease_req_mask = 0;
  return s;
}

quorum_core::op_slot* quorum_core::find_slot(register_id r) {
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    if (cl_.slots[i].reg == r) return &cl_.slots[i];
  }
  return nullptr;
}

void quorum_core::arm_timer(outputs& out) {
  cl_.retrans_token = fresh_token();
  out.timers.push_back(timer_request{cl_.retrans_token, pol_.retransmit_delay});
}

void quorum_core::begin_phase(phase_kind ph, outputs& out) {
  // stage_msg() has already filled cl_.current for this phase.
  cl_.phase = ph;
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    cl_.slots[i].acked.assign(n_, false);  // keeps capacity across phases
    cl_.slots[i].ack_count = 0;
  }
  out.broadcasts.emplace_slot().msg = cl_.current;
  arm_timer(out);
}

void quorum_core::begin_update_round(msg_kind k, phase_kind ph, outputs& out) {
  message& m = stage_msg(k, 2, cl_.depth);
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    m.entries[i].ts = cl_.slots[i].ts;
    m.entries[i].val = cl_.slots[i].val;  // copy-assign into retained capacity
  }
  begin_phase(ph, out);
}

void quorum_core::start(outputs& out) {
  (void)out;
  if (started_) throw precondition_error("quorum_core: start() twice");
  started_ = true;
  if (!pol_.crash_stop) {
    // Paper Fig. 4/5 Initialize: install the initial stable records (for the
    // default register; other registers spring into existence at their first
    // write and restore to the initial value ⊥ when no record exists). This
    // is process installation, not a timed operation.
    if (pol_.writer_prelog) {
      store_.store(writing_key, encode(tagged_value_record{initial_tag, initial_value()}));
    }
    store_.store(written_key, encode(tagged_value_record{initial_tag, initial_value()}));
    if (pol_.recovery_counter) {
      store_.store(recovered_key, encode(recovery_record{0}));
    }
  }
}

void quorum_core::start_op(const std::vector<batch_entry>& regs, bool is_read) {
  if (regs.empty()) throw precondition_error("quorum_core: operation on no register");
  if (!distinct_registers(regs)) {
    throw precondition_error("quorum_core: duplicate register in one operation");
  }
  cl_.reset();
  cl_.op_seq = ++op_counter_;
  cl_.is_read = is_read;
  cl_.slot_count = static_cast<std::uint32_t>(regs.size());
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) claim_slot(i, regs[i].reg);
}

void quorum_core::invoke_write(const std::vector<batch_entry>& ops, outputs& out) {
  check_invocation_allowed("invoke_write");
  if (pol_.single_writer && self_.index != 0) {
    throw precondition_error("quorum_core: " + pol_.name + " allows only p0 to write");
  }
  start_op(ops, /*is_read=*/false);
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) cl_.slots[i].val = ops[i].val;

  if (pol_.write_query_round) {
    stage_msg(msg_kind::sn_query, 1, 0);
    begin_phase(phase_kind::write_query, out);
  } else {
    // Single-writer variants: the writer's own counter replaces the query;
    // one bump covers every register (the tag stays per-register monotonic;
    // ties across registers are fine).
    wsn_ += 1;
    const tag t{wsn_, pol_.rec_in_tag ? rec_ : 0, self_};
    for (std::uint32_t i = 0; i < cl_.slot_count; ++i) cl_.slots[i].ts = t;
    proceed_after_query(out);
  }
}

void quorum_core::invoke_read(const std::vector<batch_entry>& regs, outputs& out) {
  check_invocation_allowed("invoke_read");
  bool grant = false;
  if (pol_.read_leases && regs.size() == 1) {  // leases cover single-register reads
    const register_id reg = regs.front().reg;
    if (holdings_.find(reg) != nullptr) {
      // Leased fast path: the holding's invariant is that the replica slot
      // equals the grant's majority-anchored floor (any adoption drops the
      // holding first), so the local value is returnable with zero messages.
      branches_.leased_read_hits += 1;
      op_outcome& oc = out.completion.emplace();
      oc.op_seq = cl_.op_seq = ++op_counter_;
      oc.is_read = true;
      oc.causal_logs = 0;
      oc.round_trips = 0;
      oc.entries.resize(1);
      fill_entry(oc.entries.front(), reg, /*with_value=*/true);
      return;
    }
    branches_.leased_read_misses += 1;
    if (++read_heat_[reg] > pol_.lease_hot_read_threshold) {
      // Hot key: run this read as a grant round. Same two rounds as a normal
      // read, but round 1 additionally installs the lease at every answering
      // replica.
      read_heat_.erase(reg);
      grant = true;
    }
  }

  start_op(regs, /*is_read=*/true);
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) cl_.slots[i].ts = initial_tag;
  if (grant) {
    // The expiry clock starts NOW (send time), so every grantor's record —
    // timed from its strictly later receipt — outlives the holder's serving
    // window.
    cl_.lease_grant = true;
    cl_.lease_token = fresh_token();
    lease_tokens_[cl_.lease_token] = lease_timer_target{regs.front().reg, /*grantor=*/false};
    out.lease_timers.push_back(timer_request{cl_.lease_token, pol_.lease_duration});
  }
  stage_msg(grant ? msg_kind::lease_grant : msg_kind::read_query, 1, 0);
  begin_phase(grant ? phase_kind::lease_grant : phase_kind::read_query, out);
}

void quorum_core::emit_prelog(const op_slot& s, bool lead, outputs& out) {
  // Paper Fig. 4 line 12: store(writing, sn, v) — the first causal log.
  log_request& lr = out.logs.emplace_slot();  // recycled: every field assigned
  lr.key = writing_key_of(s.reg);
  encode_tagged_value_into(lr.record, s.ts, s.val);
  lr.token = fresh_token();
  lr.ctx = exec_context::client;
  lr.depth_after = cl_.depth + 1;
  lr.op_seq = cl_.op_seq;
  lr.origin = self_;
  lr.epoch = epoch_;
  lr.obsoletes.clear();
  if (lead) {
    // Piggyback the settled predecessors' obsolescence on the operation's
    // lead pre-log: same durable step, zero extra stores.
    lr.obsoletes.swap(obsolete_prelogs_);
    obsolete_prelogs_.clear();
  }
  pending_log& pl = pending_logs_[lr.token];
  pl = pending_log{};
  pl.k = pending_log::kind::writer_prelog;
  cl_.prelogs_pending += 1;
}

void quorum_core::mark_prelogs_obsolete() {
  // Only meaningful when pre-logs exist, and only sound when tags come from
  // a query round: the query majority intersects the settled write's
  // durable majority, so the sequence number is safely re-derived after a
  // crash. Single-writer variants mint tags from the local wsn_ restored
  // from these very records — erasing them could resurrect a duplicate tag.
  if (!pol_.writer_prelog || !pol_.write_query_round || cl_.is_read) return;
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    obsolete_prelogs_.push_back(writing_key_of(cl_.slots[i].reg));
  }
}

void quorum_core::proceed_after_query(outputs& out) {
  if (pol_.writer_prelog && !pol_.crash_stop) {
    cl_.phase = phase_kind::write_prelog;
    // A register this operation is about to pre-log again needs no
    // tombstone — the fresh (writing) record overwrites the same key, and
    // a tombstone ordered after it in the same batch would erase it.
    std::erase_if(obsolete_prelogs_, [&](const storage::record_key& k) {
      return find_slot(k.reg) != nullptr;
    });
    // One (writing) record per register; the stores are concurrent, so
    // they count one causal-log step for the whole operation.
    for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
      emit_prelog(cl_.slots[i], i == 0, out);
    }
  } else {
    begin_update_round(msg_kind::write, phase_kind::write_update, out);
  }
}

void quorum_core::finish_operation(outputs& out) {
  op_outcome& oc = out.completion.emplace();
  oc.op_seq = cl_.op_seq;
  oc.is_read = cl_.is_read;
  oc.causal_logs = cl_.depth;
  oc.entries.resize(cl_.slot_count);
  const bool first = cl_.is_read && pol_.read_return_first;
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    const op_slot& s = cl_.slots[i];
    batch_entry& e = oc.entries[i];
    e.reg = s.reg;
    e.ts = first ? s.first_tag : s.ts;
    e.val = first ? s.first_val : s.val;
  }
  if (cl_.is_read) {
    oc.round_trips = pol_.read_writeback ? 2 : 1;
  } else {
    oc.round_trips = pol_.write_query_round ? 2 : 1;
  }
  cl_.reset();
}

bool quorum_core::in_update_phase() const {
  return cl_.phase == phase_kind::write_update || cl_.phase == phase_kind::read_update ||
         cl_.phase == phase_kind::recovery_update;
}

bool quorum_core::cover_slots(const message& m) {
  bool any = false;
  for (const batch_entry& e : m.entries) {
    op_slot* s = find_slot(e.reg);
    if (s == nullptr || s->acked[m.from.index]) continue;
    s->acked[m.from.index] = true;
    s->ack_count += 1;
    any = true;
  }
  return any;
}

bool quorum_core::slot_settled(const op_slot& s) const {
  if (s.ack_count < quorum_size()) return false;
  // A majority is not enough while a noted leaseholder is silent: its ack
  // is what proves the holder served (and thus invalidated against) this
  // update. Retransmission keeps poking the silent holder.
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (((s.lease_req_mask >> i) & 1u) && !s.acked[i]) return false;
  }
  return true;
}

bool quorum_core::phase_settled() const {
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    if (!slot_settled(cl_.slots[i])) return false;
  }
  return true;
}

bool quorum_core::covered_by(std::uint32_t p) const {
  for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
    if (!cl_.slots[i].acked[p]) return false;
  }
  return true;
}

void quorum_core::merge_lease_notes(const message& m) {
  // Bits past the cluster size carry no meaning (leases require n <= 64,
  // enforced by the driver); mask them off so settlement never waits on a
  // process that does not exist.
  const std::uint64_t live = n_ >= 64 ? ~0ULL : ((1ULL << n_) - 1);
  for (const lease_note& nte : m.leases) {
    if (op_slot* s = find_slot(nte.reg)) s->lease_req_mask |= nte.holder_mask & live;
  }
}

bool quorum_core::grant_pending_for(register_id reg) const {
  // A grant round has exactly one slot.
  return cl_.lease_grant && !cl_.lease_canceled && cl_.phase != phase_kind::idle &&
         cl_.slots.front().reg == reg;
}

void quorum_core::drop_holding_on_update(const message& m, register_id reg) {
  if (!pol_.read_leases) return;
  if (holdings_.find(reg) != nullptr) {
    holdings_.erase(reg);
    branches_.lease_invalidations += 1;
  }
  // A grant in flight for this register is voided too — unless the update
  // being served is the grant's own write-back (the floor anchoring itself).
  if (grant_pending_for(reg) && !(m.from.index == self_.index && m.op_seq == cl_.op_seq)) {
    cl_.lease_canceled = true;
    branches_.lease_invalidations += 1;
  }
}

void quorum_core::attach_lease_note(message& ack, register_id reg) {
  if (!pol_.read_leases) return;
  const grantor_lease* g = granted_.find(reg);
  if (g != nullptr && g->holder_mask != 0) {
    ack.leases.push_back(lease_note{reg, g->holder_mask});
  }
}

bool quorum_core::ack_matches(const message& m) const {
  if (m.op_seq != cl_.op_seq || m.epoch != epoch_) return false;
  switch (cl_.phase) {
    case phase_kind::write_query:
      return m.round == 1 && m.kind == msg_kind::sn_ack;
    case phase_kind::read_query:
      return m.round == 1 && m.kind == msg_kind::read_ack;
    case phase_kind::lease_grant:
      return m.round == 1 && m.kind == msg_kind::lease_grant_ack;
    case phase_kind::write_update:
    case phase_kind::read_update:
    case phase_kind::recovery_update:
      return m.round == 2 && m.kind == msg_kind::write_ack;
    case phase_kind::idle:
    case phase_kind::write_prelog:
      break;
  }
  return false;
}

void quorum_core::handle_ack(const message& m, outputs& out) {
  // Stale phase or incarnation, or a sender outside the cluster.
  if (!ack_matches(m) || m.from.index >= n_) return;
  // Acks count per (process, register) — a trimmed retransmission's ack
  // covers only part of an update, so a process may legitimately ack more
  // than once — and an ack covering no new pair is a duplicate that changes
  // nothing.
  if (!cover_slots(m)) return;
  if (cl_.phase == phase_kind::write_query) {
    for (const batch_entry& e : m.entries) {
      if (op_slot* s = find_slot(e.reg)) s->max_sn = std::max(s->max_sn, e.ts.sn);
    }
  } else if (in_update_phase()) {
    // The ack may name leaseholders this update must also hear from;
    // widen the requirement before testing settlement below.
    if (pol_.read_leases && !m.leases.empty()) merge_lease_notes(m);
  } else {  // read_query, lease_grant
    for (const batch_entry& e : m.entries) {
      op_slot* s = find_slot(e.reg);
      if (s == nullptr) continue;
      if (!s->have_first) {
        s->have_first = true;
        s->first_tag = e.ts;
        s->first_val = e.val;
      }
      if (s->ts < e.ts) {
        s->ts = e.ts;
        s->val = e.val;
      }
    }
  }
  cl_.depth = std::max(cl_.depth, m.log_depth);
  // Completion is per register: every slot acked by its own majority (and,
  // in an update round, by its noted leaseholders).
  if (!phase_settled()) return;

  // Quorum reached: advance the state machine.
  switch (cl_.phase) {
    case phase_kind::write_query: {
      // Fig. 4 line 11: sn := sn + 1; Fig. 5 line 11: sn := sn + rec + 1.
      const std::int64_t bump = pol_.recovery_counter ? rec_ + 1 : 1;
      for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
        op_slot& s = cl_.slots[i];
        s.ts = tag{s.max_sn + bump, pol_.rec_in_tag ? rec_ : 0, self_};
        wsn_ = std::max(wsn_, s.ts.sn);
      }
      proceed_after_query(out);
      break;
    }
    case phase_kind::lease_grant:
    case phase_kind::read_query:
      if (pol_.read_writeback) {
        begin_update_round(msg_kind::writeback, phase_kind::read_update, out);
      } else {
        finish_operation(out);
      }
      break;
    case phase_kind::write_update:
      // The write is settled at a majority: its (writing) records are now
      // recovery dead weight — queue them for the next pre-log's
      // piggybacked erasure.
      mark_prelogs_obsolete();
      finish_operation(out);
      break;
    case phase_kind::read_update:
      if (cl_.lease_grant && !cl_.lease_canceled) {
        // Activate the holding: anchor the floor — just written back to a
        // majority — in the local slot, and serve from it until revoked. If
        // the slot got AHEAD of the floor (an earlier adoption the grant's
        // ack majority missed), the local value is not known to be
        // majority-anchored: skip activation rather than serve it.
        const op_slot& s = cl_.slots.front();
        replica_slot& rs = replicas_[s.reg];
        if (rs.vtag < s.ts) {
          rs.vtag = s.ts;
          rs.vval = s.val;
        }
        if (!(s.ts < rs.vtag)) {
          holdings_[s.reg] = cl_.lease_token;
          branches_.lease_grants += 1;
        }
      }
      finish_operation(out);
      break;
    case phase_kind::recovery_update:
      cl_.reset();
      ready_ = true;
      out.recovery_complete = true;
      break;
    case phase_kind::idle:
    case phase_kind::write_prelog:
      break;
  }
}

std::uint32_t quorum_core::claim_deferred_ack() {
  for (std::uint32_t i = 0; i < deferred_acks_.size(); ++i) {
    if (deferred_acks_[i].remaining == 0) return i;
  }
  deferred_acks_.emplace_back();
  return static_cast<std::uint32_t>(deferred_acks_.size() - 1);
}

// An update is acked once every register it adopted is durably logged.
// Registers it did not adopt are durable at >= their tag already: the
// drivers guarantee a replica's listener is blocked while its (written)
// store is in flight (the simulator requeues deliveries past busy_until, and
// the log_done event sorts before them), so by the time a duplicate is
// served the first copy's log has landed.
void quorum_core::serve_update(const message& m, outputs& out) {
  const bool log_this = !pol_.crash_stop &&
                        (m.kind == msg_kind::write ? pol_.log_on_adopt
                                                   : pol_.log_on_read_writeback);
  std::uint32_t logs_needed = 0;
  std::uint32_t ack_index = 0;
  std::uint32_t adopted = 0;
  for (const batch_entry& e : m.entries) {
    replica_slot* found = replicas_.find(e.reg);
    if (!((found != nullptr ? found->vtag : initial_tag) < e.ts)) {
      branches_.stale_updates += 1;
      continue;
    }
    branches_.adoptions += 1;
    ++adopted;
    // Adopting would move the slot off a lease's anchored floor: revoke the
    // holding first. (Stale updates leave the slot — and the lease — alone.)
    drop_holding_on_update(m, e.reg);
    // Insert only on adoption: registers merely heard about (stale
    // write-backs of the initial tag, retransmissions) hold no state here.
    replica_slot& rs = found != nullptr ? *found : replicas_[e.reg];
    rs.vtag = e.ts;
    rs.vval = e.val;
    if (!log_this) continue;
    // Fig. 4 line 24: store(written, sn, pid, v) before acking — one log
    // per adopted register, and one ack once all of them are durable, so
    // the invoker's quorum counts only fully-persistent replicas.
    if (logs_needed == 0) ack_index = claim_deferred_ack();
    log_request& lr = out.logs.emplace_slot();  // recycled: all assigned
    lr.key = written_key_of(e.reg);
    encode_tagged_value_into(lr.record, rs.vtag, rs.vval);
    lr.token = fresh_token();
    lr.ctx = exec_context::listener;
    lr.depth_after = m.log_depth + 1;
    lr.op_seq = m.op_seq;
    lr.origin = m.from;
    lr.epoch = m.epoch;
    lr.obsoletes.clear();
    pending_log& pl = pending_logs_[lr.token];
    pl = pending_log{};
    pl.k = pending_log::kind::server_adopt;
    pl.ack = ack_index;
    ++logs_needed;
  }
  if (adopted > 0 && adopted < m.entries.size()) branches_.adopt_splits += 1;

  // `instant` entries are acked now, the rest by the deferred ack. Without
  // logs every entry is instant; with them, the deferred ack covers them all
  // unless some entries adopted nothing: those are vouched for at once, and
  // only the registers whose (written) logs are in flight wait. The early
  // per-register votes settle unchanged registers at the sender sooner,
  // which is what lets its retransmissions drop them from the repeat
  // payload (common under contention: racing operations overlap only
  // partly, and a read write-back usually adopts almost nothing).
  //
  // Classification: an entry whose replica tag equals e.ts either just
  // adopted (its log is in the deferred ack) or was an equal-tag duplicate
  // whose earlier log is already durable — deferring duplicates merely
  // delays their vote, so the split stays sound either way.
  const auto deferred = [&](const batch_entry& e) {
    if (logs_needed == 0) return false;
    if (logs_needed == m.entries.size()) return true;
    const replica_slot* rs = replicas_.find(e.reg);
    return rs != nullptr && rs->vtag == e.ts;
  };
  std::size_t instant = 0;
  for (const batch_entry& e : m.entries) {
    if (!deferred(e)) ++instant;
  }
  if (logs_needed > 0) {
    deferred_ack& da = deferred_acks_[ack_index];
    da.to = m.from;
    da.op_seq = m.op_seq;
    da.round = m.round;
    da.epoch = m.epoch;
    da.depth = m.log_depth + 1;
    da.remaining = logs_needed;
    da.regs.clear();
    for (const batch_entry& e : m.entries) {
      if (deferred(e)) da.regs.push_back(e.reg);
    }
  }
  if (instant == 0) return;
  message& ack = stage_reply(m.from, msg_kind::write_ack, m.op_seq, m.round, m.epoch,
                             m.log_depth, out);
  ack.entries.resize(instant);  // keeps the kept entries' value buffers
  std::size_t k = 0;
  for (const batch_entry& e : m.entries) {
    if (deferred(e)) continue;
    batch_entry& c = ack.entries[k++];
    c.reg = e.reg;
    c.ts = tag{};
    c.val.data.clear();
    attach_lease_note(ack, e.reg);
  }
}

void quorum_core::serve(const message& m, outputs& out) {
  switch (m.kind) {
    case msg_kind::sn_query:
    case msg_kind::read_query: {
      const bool read = m.kind == msg_kind::read_query;
      message& ack = stage_reply(m.from, read ? msg_kind::read_ack : msg_kind::sn_ack,
                                 m.op_seq, m.round, m.epoch, m.log_depth, out);
      ack.entries.resize(m.entries.size());  // keeps value buffers
      for (std::size_t i = 0; i < m.entries.size(); ++i) {
        fill_entry(ack.entries[i], m.entries[i].reg, read);
      }
      return;
    }
    case msg_kind::write:
    case msg_kind::writeback:
      serve_update(m, out);
      return;
    case msg_kind::lease_grant: {
      // Grantor side of a lease round. Record the holder in the volatile
      // registry NOW (so any update served from here on carries the note),
      // make the record durable, and defer the ack until the store lands —
      // the ack's (tag, value) is read at ack-build time, so it reflects
      // every update this replica served while the store was in flight.
      if (m.from.index >= 64) return;  // leases require n <= 64 (driver-enforced)
      const register_id reg = m.entries.front().reg;  // grant rounds name one register
      grantor_lease& g = granted_[reg];
      g.holder_mask |= 1ULL << m.from.index;
      if (g.expiry_token != 0 && lease_tokens_.find(g.expiry_token) != nullptr) {
        // A clock is already running for this register: let it re-arm for a
        // fresh full duration when it fires instead of stacking timers. The
        // record then lives at least serve-instant + duration, which still
        // outlives every holder's own (send-time) clock.
        g.rearm = true;
      } else {
        // Fresh full-duration clock from the serve instant: strictly later
        // than the holder's send-time clock, so this record outlives every
        // read the holder may serve under the lease.
        g.expiry_token = fresh_token();
        lease_tokens_[g.expiry_token] = lease_timer_target{reg, /*grantor=*/true};
        out.lease_timers.push_back(timer_request{g.expiry_token, pol_.lease_duration});
      }
      if ((g.durable_mask >> m.from.index) & 1) {
        // Re-grant to a holder the stable record already covers (the common
        // case at the Zipf head, where every write triggers a re-grant):
        // nothing new to make durable, so ack immediately. The (tag, value)
        // is read now, same freshness argument as the deferred ack.
        message& ack = stage_reply(m.from, msg_kind::lease_grant_ack, m.op_seq, m.round,
                                   m.epoch, m.log_depth, out);
        ack.entries.resize(1);
        fill_entry(ack.entries.front(), reg, /*with_value=*/true);
        return;
      }
      log_request& lr = out.logs.emplace_slot();  // recycled: all assigned
      lr.key = lease_key_of(reg);
      lr.record = encode(lease_record{g.holder_mask});
      lr.token = fresh_token();
      lr.ctx = exec_context::listener;
      lr.depth_after = m.log_depth + 1;
      lr.op_seq = m.op_seq;
      lr.origin = m.from;
      lr.epoch = m.epoch;
      lr.obsoletes.clear();
      pending_log& pl = pending_logs_[lr.token];
      pl = pending_log{};
      pl.k = pending_log::kind::lease_record;
      pl.to = m.from;
      pl.op_seq = m.op_seq;
      pl.round = m.round;
      pl.epoch = m.epoch;
      pl.depth = m.log_depth + 1;
      pl.reg = reg;
      pl.lease_mask = g.holder_mask;
      return;
    }
    case msg_kind::sn_ack:
    case msg_kind::read_ack:
    case msg_kind::write_ack:
    case msg_kind::lease_grant_ack:
      handle_ack(m, out);
      return;
  }
}

void quorum_core::on_message(const message& m, outputs& out) {
  check_input_allowed("on_message");
  if (m.entries.empty()) return;  // names no register: nothing to serve or count
  serve(m, out);
}

void quorum_core::on_log_done(std::uint64_t token, outputs& out) {
  check_input_allowed("on_log_done");
  const pending_log* hit = pending_logs_.find(token);
  if (hit == nullptr) return;  // stale (pre-crash) completion
  const pending_log pl = *hit;
  pending_logs_.erase(token);

  switch (pl.k) {
    case pending_log::kind::server_adopt: {
      // One adopted register became durable; ack once all of them have.
      deferred_ack& da = deferred_acks_[pl.ack];
      if (--da.remaining > 0) return;
      message& ack =
          stage_reply(da.to, msg_kind::write_ack, da.op_seq, da.round, da.epoch, da.depth, out);
      ack.entries.resize(da.regs.size());  // keeps value buffers
      for (std::size_t i = 0; i < da.regs.size(); ++i) {
        batch_entry& c = ack.entries[i];
        c.reg = da.regs[i];
        c.ts = tag{};
        c.val.data.clear();
        attach_lease_note(ack, da.regs[i]);
      }
      return;
    }
    case pending_log::kind::lease_record: {
      // The grant is durable: ack with the replica's CURRENT (tag, value).
      // Reading it now (not at receipt) is what makes the deferred ack safe:
      // it is >= every update this replica served before answering, so the
      // holder's floor covers them all.
      grantor_lease* g = granted_.find(pl.reg);
      if (g != nullptr) g->durable_mask = pl.lease_mask;
      message& ack = stage_reply(pl.to, msg_kind::lease_grant_ack, pl.op_seq, pl.round,
                                 pl.epoch, pl.depth, out);
      ack.entries.resize(1);
      fill_entry(ack.entries.front(), pl.reg, /*with_value=*/true);
      return;
    }
    case pending_log::kind::writer_prelog: {
      if (cl_.phase != phase_kind::write_prelog) return;  // crashed & stale
      if (cl_.prelogs_pending > 0 && --cl_.prelogs_pending > 0) return;
      // The operation's concurrent (writing) stores count one causal-log step.
      cl_.depth += 1;
      begin_update_round(msg_kind::write, phase_kind::write_update, out);
      return;
    }
    case pending_log::kind::recovery_counter: {
      ready_ = true;
      out.recovery_complete = true;
      return;
    }
  }
}

void quorum_core::on_timer(std::uint64_t token, outputs& out) {
  check_input_allowed("on_timer");
  if (token != cl_.retrans_token) return;  // stale timer
  switch (cl_.phase) {
    case phase_kind::idle:
    case phase_kind::write_prelog:
      return;
    default:
      break;
  }
  // Repeat the pseudocode's "repeat send until" loop: re-send to the
  // processes that have not answered this phase yet. Update rounds over
  // several registers shrink each repeat to the registers that still need
  // the recipient's vote: settled registers (majority-durable) and
  // registers the recipient already acked carry no information, so their
  // (tag, value) payloads are dropped from the wire.
  const bool trim = cl_.slot_count > 1 && in_update_phase();
  branches_.retransmits += 1;
  if (trim) branches_.retransmit_trims += 1;
  const std::size_t full_bytes = wire_size(cl_.current);
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (covered_by(i)) continue;
    // Savings accounting (trim effectiveness): `full` charges what an
    // untrimmed repeat to this process would cost; `sent` charges what
    // actually hit the wire. Their per-retransmission ratio — not a
    // total-traffic fraction — is the honest measure of the trim.
    branches_.retransmit_bytes_full += full_bytes;
    if (!trim) {
      branches_.retransmit_bytes_sent += full_bytes;
      send_request& s = out.sends.emplace_slot();
      s.to = process_id{i};
      s.msg = cl_.current;  // copy-assign into retained capacity
      continue;
    }
    send_request* s = nullptr;
    for (std::uint32_t j = 0; j < cl_.slot_count; ++j) {
      const op_slot& sl = cl_.slots[j];
      // A slot needs nothing from i once it is settled (majority-durable
      // AND every noted leaseholder heard) or i already acked it.
      if (slot_settled(sl) || sl.acked[i]) continue;
      if (s == nullptr) {
        s = &out.sends.emplace_slot();
        s->to = process_id{i};
        message& mm = s->msg;  // recycled slot: every field assigned
        mm.kind = cl_.current.kind;
        mm.from = cl_.current.from;
        mm.op_seq = cl_.current.op_seq;
        mm.round = cl_.current.round;
        mm.epoch = cl_.current.epoch;
        mm.log_depth = cl_.current.log_depth;
        mm.entries.clear();
        mm.leases.clear();
      }
      // Slot j's staged entry is index-aligned with the live slots (every
      // staging fills cl_.current.entries in slot order).
      s->msg.entries.push_back(cl_.current.entries[j]);
    }
    if (s != nullptr) branches_.retransmit_bytes_sent += wire_size(s->msg);
  }
  arm_timer(out);
}

void quorum_core::on_lease_expiry(std::uint64_t token, outputs& out) {
  check_input_allowed("on_lease_expiry");
  const lease_timer_target* t = lease_tokens_.find(token);
  if (t == nullptr) return;  // pre-crash or already-superseded deadline
  const lease_timer_target tt = *t;
  lease_tokens_.erase(token);
  if (tt.grantor) {
    grantor_lease* g = granted_.find(tt.reg);
    if (g == nullptr || g->expiry_token != token) return;  // re-granted since
    if (g->rearm) {
      // Grants arrived while this clock ran: give the record one more full
      // duration (covering the latest serve instant) instead of expiring.
      g->rearm = false;
      g->expiry_token = fresh_token();
      lease_tokens_[g->expiry_token] = lease_timer_target{tt.reg, /*grantor=*/true};
      out.lease_timers.push_back(timer_request{g->expiry_token, pol_.lease_duration});
      return;
    }
    // The last grant's clock ran out. Every holder's own (send-time) clock
    // expired strictly earlier, so no one is serving under this record:
    // forget it, volatile and stable alike.
    granted_.erase(tt.reg);
    store_.erase(lease_key_of(tt.reg));
    branches_.lease_expiries += 1;
    return;
  }
  // Holder side: the serving window is over.
  if (cl_.lease_grant && !cl_.lease_canceled && cl_.phase != phase_kind::idle &&
      cl_.lease_token == token) {
    // Grant round still in flight at its own deadline — completing it would
    // activate an already-expired holding; void it (the read still finishes
    // as a plain quorum read).
    cl_.lease_canceled = true;
    branches_.lease_expiries += 1;
    return;
  }
  const std::uint64_t* h = holdings_.find(tt.reg);
  if (h != nullptr && *h == token) {
    holdings_.erase(tt.reg);
    branches_.lease_expiries += 1;
  }
}

// ---- Rebalancing hooks -------------------------------------------------------

void quorum_core::adopt_if_newer(register_id reg, const tag& ts, const value& v) {
  check_input_allowed("adopt_if_newer");
  replica_slot* found = replicas_.find(reg);
  if (found != nullptr ? !(found->vtag < ts) : !(initial_tag < ts)) {
    wsn_ = std::max(wsn_, ts.sn);
    return;
  }
  // An imported (newer) value moves the slot off any lease floor: revoke,
  // exactly as a served update would (no message context here, so a pending
  // grant for the register is voided unconditionally — conservative).
  if (pol_.read_leases) {
    if (holdings_.erase(reg)) branches_.lease_invalidations += 1;
    if (grant_pending_for(reg)) {
      cl_.lease_canceled = true;
      branches_.lease_invalidations += 1;
    }
  }
  replica_slot& rs = found != nullptr ? *found : replicas_[reg];
  rs.vtag = ts;
  rs.vval = v;
  // Never re-mint a transferred sequence number (mirrors recovery's replay).
  wsn_ = std::max(wsn_, ts.sn);
}

std::uint32_t quorum_core::evict(register_id reg) {
  replicas_.erase(reg);
  read_heat_.erase(reg);
  std::uint32_t dropped = 0;
  if (holdings_.erase(reg)) ++dropped;
  if (granted_.erase(reg)) ++dropped;
  return dropped;
}

void quorum_core::for_each_register(const std::function<void(register_id)>& fn) const {
  replicas_.for_each([&fn](register_id reg, const replica_slot&) { fn(reg); });
}

void quorum_core::crash() {
  if (!up_) return;
  up_ = false;
  ready_ = false;
  replicas_.clear();
  rec_ = 0;
  wsn_ = 0;
  cl_.reset();  // keeps the client buffers for the next incarnation
  pending_logs_.clear();
  // Every deferred ack dies with the incarnation; their slots stay
  // allocated for the next one.
  for (deferred_ack& da : deferred_acks_) da.remaining = 0;
  obsolete_prelogs_.clear();
  // Lease state: holdings are volatile by design (a crash IS the holder's
  // revocation); the grantor registry is re-read from stable storage during
  // recovery; armed deadlines die with the incarnation.
  granted_.clear();
  holdings_.clear();
  read_heat_.clear();
  lease_tokens_.clear();
  // branches_ deliberately survives: it is a whole-run coverage diagnostic,
  // not protocol state, and zeroing it on crash would erase everything a
  // blackout-heavy schedule observed.
  op_counter_ = 0;
}

void quorum_core::restore_volatile_from_stable() {
  // Replay every register's (written) record; registers with no record
  // restore to the initial value ⊥ (clear() leaves no slot live). Each
  // record decodes straight into a slot, refilling the value buffer the
  // slot's table position kept.
  replicas_.clear();
  std::int64_t max_sn = 0;
  store_.for_each(storage::record_area::written,
                  [&](register_id reg, const bytes& rec) {
                    replica_slot& rs = replicas_.slot_for_overwrite(reg);
                    decode_tagged_value_into(rec, rs.vtag, rs.vval);
                    max_sn = std::max(max_sn, rs.vtag.sn);
                  });
  wsn_ = max_sn;
  // Grantor registry: every durably-noted lease is restored so updates
  // served by this incarnation keep carrying the holder notes. Restoring a
  // lease whose holder has since expired or crashed is merely conservative
  // (the writer waits on one extra ack); forgetting a live one would let a
  // write settle without the holder hearing of it.
  granted_.clear();
  holdings_.clear();
  read_heat_.clear();
  if (pol_.read_leases) {
    store_.for_each(storage::record_area::lease,
                    [&](register_id reg, const bytes& rec) {
                      grantor_lease& g = granted_[reg];
                      g.holder_mask = decode_lease(rec).holder_mask;
                      // Restored FROM the stable record, so durable by
                      // definition: re-grants can ack immediately.
                      g.durable_mask = g.holder_mask;
                    });
  }
}

void quorum_core::recover(std::uint64_t new_epoch, outputs& out) {
  if (pol_.crash_stop) {
    throw precondition_error("quorum_core: recover() in the crash-stop model");
  }
  if (up_) throw precondition_error("quorum_core: recover() while up");
  up_ = true;
  ready_ = false;
  epoch_ = new_epoch;
  restore_volatile_from_stable();

  if (pol_.read_leases) {
    // Restored grantor records get a fresh full-duration clock. Conservative
    // on both sides: any pre-crash holder's clock started before the crash
    // and so runs out before this fresh one, and no deadline needs to be
    // made durable.
    std::vector<register_id> regs;  // cold path
    granted_.for_each(
        [&regs](register_id reg, const grantor_lease&) { regs.push_back(reg); });
    for (const register_id reg : regs) {
      grantor_lease* g = granted_.find(reg);
      g->expiry_token = fresh_token();
      lease_tokens_[g->expiry_token] = lease_timer_target{reg, /*grantor=*/true};
      out.lease_timers.push_back(timer_request{g->expiry_token, pol_.lease_duration});
    }
  }

  if (pol_.recovery_counter) {
    // Paper Fig. 5 Recover: rec := rec + 1; store(recovered, rec).
    std::int64_t prev = 0;
    if (const auto rec = store_.retrieve(recovered_key)) {
      prev = decode_recovery(*rec).recoveries;
    }
    rec_ = prev + 1;
    log_request lr;
    lr.key = recovered_key;
    lr.record = encode(recovery_record{rec_});
    lr.token = fresh_token();
    lr.ctx = exec_context::client;
    lr.depth_after = 1;
    lr.op_seq = 0;  // recovery, not an operation
    lr.origin = self_;
    lr.epoch = epoch_;
    pending_log& pl = pending_logs_[lr.token];
    pl = pending_log{};
    pl.k = pending_log::kind::recovery_counter;
    out.logs.push_back(std::move(lr));
    return;
  }

  if (pol_.recovery_finish_write) {
    // Paper Fig. 4 Recover: re-run the write's second round with the logged
    // (writing) records — every register with a pre-log, in one round.
    // Harmless when there was no unfinished write (adopt-if-newer): with no
    // record at all, the round carries the default register's ⊥.
    std::vector<batch_entry> pend;  // cold path
    store_.for_each(storage::record_area::writing,
                    [&](register_id reg, const bytes& rec) {
                      tagged_value_record tv = decode_tagged_value(rec);
                      // A pre-logged sequence number was used: never reissue
                      // it (single-writer variants draw from wsn_; without
                      // this a recovered writer could mint a duplicate tag
                      // for a different value and the write would vanish).
                      wsn_ = std::max(wsn_, tv.ts.sn);
                      pend.push_back({reg, tv.ts, std::move(tv.val)});
                      // The finish-write round will settle these records at
                      // a majority before any invocation resumes, so they
                      // can be erased by the next pre-log (same soundness
                      // gate as mark_prelogs_obsolete: query-round tags).
                      if (pol_.write_query_round) {
                        obsolete_prelogs_.push_back(writing_key_of(reg));
                      }
                    });
    if (pend.empty()) pend.push_back({default_register, initial_tag, initial_value()});
    start_op(pend, /*is_read=*/false);
    for (std::uint32_t i = 0; i < cl_.slot_count; ++i) {
      cl_.slots[i].ts = pend[i].ts;
      cl_.slots[i].val = std::move(pend[i].val);
    }
    branches_.recovery_finish_writes += 1;
    begin_update_round(msg_kind::write, phase_kind::recovery_update, out);
    return;
  }

  // Nothing else to do (flawed variants, and transient_literal without its
  // counter would land here too).
  ready_ = true;
  out.recovery_complete = true;
}

}  // namespace remus::proto
