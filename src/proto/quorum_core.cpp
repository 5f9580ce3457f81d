#include "proto/quorum_core.h"

#include <algorithm>
#include <utility>

namespace remus::proto {

namespace {

/// Appends a coverage entry to an update ack: the register the ack vouches
/// for (durable at >= the served tag), with no payload. Every batched-update
/// ack builds its register list through here so the coverage wire shape has
/// one definition.
void add_ack_coverage(message& ack, register_id reg) {
  ack.batch.push_back({reg, tag{}, value{}});
}

}  // namespace

quorum_core::quorum_core(protocol_policy pol, process_id self, std::uint32_t n,
                         storage::stable_store& store, std::uint64_t initial_epoch)
    : pol_(std::move(pol)), self_(self), n_(n), store_(store), epoch_(initial_epoch) {
  if (!pol_.coherent()) throw precondition_error("quorum_core: incoherent policy " + pol_.name);
  if (n_ < 1 || !self_.valid() || self_.index >= n_) {
    throw precondition_error("quorum_core: bad process id / cluster size");
  }
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
  m.ts = tag{};
  m.val.data.clear();  // keeps capacity: refilling the payload won't allocate
  m.log_depth = depth;
  m.reg = cl_.reg;
  m.batch.clear();  // batched phases refill entries after staging
  m.leases.clear();
  return m;
}

quorum_core::batch_slot& quorum_core::claim_slot(std::uint32_t i, register_id r) {
  if (cl_.batch.size() <= i) cl_.batch.resize(i + 1);
  batch_slot& s = cl_.batch[i];
  s.reg = r;
  s.payload.data.clear();
  s.pending_tag = tag{};
  s.max_sn = 0;
  s.best_tag = tag{};
  s.best_val.data.clear();
  s.have_first = false;
  s.first_tag = tag{};
  s.first_val.data.clear();
  s.acked.assign(n_, false);  // keeps capacity across operations
  s.ack_count = 0;
  s.lease_req_mask = 0;
  return s;
}

quorum_core::batch_slot* quorum_core::find_slot(register_id r) {
  for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
    if (cl_.batch[i].reg == r) return &cl_.batch[i];
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
  cl_.responded.assign(n_, false);
  cl_.responses = 0;
  out.broadcasts.emplace_slot().msg = cl_.current;
  arm_timer(out);
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

void quorum_core::invoke_write(register_id reg, const value& v, outputs& out) {
  check_invocation_allowed("invoke_write");
  if (pol_.single_writer && self_.index != 0) {
    throw precondition_error("quorum_core: " + pol_.name + " allows only p0 to write");
  }

  cl_.reset();
  cl_.reg = reg;
  cl_.op_seq = ++op_counter_;
  cl_.is_read = false;
  cl_.payload = v;

  if (pol_.write_query_round) {
    cl_.max_sn = 0;
    stage_msg(msg_kind::sn_query, 1, 0);
    begin_phase(phase_kind::write_query, out);
  } else {
    // Single-writer variants: the writer's own counter replaces the query.
    wsn_ += 1;
    cl_.pending_tag = tag{wsn_, pol_.rec_in_tag ? rec_ : 0, self_};
    proceed_after_query(out);
  }
}

void quorum_core::invoke_read(register_id reg, outputs& out) {
  check_invocation_allowed("invoke_read");

  if (pol_.read_leases) {
    if (holdings_.find(reg) != nullptr) {
      // Leased fast path: the holding's invariant is that the replica slot
      // equals the grant's majority-anchored floor (any adoption drops the
      // holding first), so the local value is returnable with zero messages.
      branches_.leased_read_hits += 1;
      const replica_slot* rs = replicas_.find(reg);
      op_outcome& oc = out.completion.emplace();
      oc.op_seq = ++op_counter_;
      oc.is_read = true;
      oc.reg = reg;
      if (rs != nullptr) {
        oc.result = rs->vval;
        oc.applied = rs->vtag;
      } else {
        oc.result = initial_value();
        oc.applied = initial_tag;
      }
      oc.causal_logs = 0;
      oc.round_trips = 0;
      oc.batch.clear();
      return;
    }
    branches_.leased_read_misses += 1;
    const std::uint32_t heat = ++read_heat_[reg];
    if (heat > pol_.lease_hot_read_threshold) {
      // Hot key: run this read as a grant round. Same two rounds as a normal
      // read, but round 1 additionally installs the lease at every answering
      // replica. The expiry clock starts NOW (send time), so every grantor's
      // record — timed from its strictly later receipt — outlives the
      // holder's serving window.
      read_heat_.erase(reg);
      cl_.reset();
      cl_.reg = reg;
      cl_.op_seq = ++op_counter_;
      cl_.is_read = true;
      cl_.best_tag = initial_tag;
      cl_.lease_grant = true;
      cl_.lease_token = fresh_token();
      lease_tokens_[cl_.lease_token] = lease_timer_target{reg, /*grantor=*/false};
      out.lease_timers.push_back(timer_request{cl_.lease_token, pol_.lease_duration});
      stage_msg(msg_kind::lease_grant, 1, 0);
      begin_phase(phase_kind::lease_grant, out);
      return;
    }
  }

  cl_.reset();
  cl_.reg = reg;
  cl_.op_seq = ++op_counter_;
  cl_.is_read = true;
  cl_.best_tag = initial_tag;
  stage_msg(msg_kind::read_query, 1, 0);
  begin_phase(phase_kind::read_query, out);
}

void quorum_core::invoke_write_batch(const std::vector<write_op>& ops, outputs& out) {
  check_invocation_allowed("invoke_write_batch");
  if (pol_.single_writer && self_.index != 0) {
    throw precondition_error("quorum_core: " + pol_.name + " allows only p0 to write");
  }
  if (ops.empty()) throw precondition_error("quorum_core: empty write batch");

  cl_.reset();
  cl_.op_seq = ++op_counter_;
  cl_.is_read = false;
  cl_.is_batch = true;
  cl_.batch_n = static_cast<std::uint32_t>(ops.size());
  for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
    for (std::uint32_t j = 0; j < i; ++j) {
      if (ops[j].reg == ops[i].reg) {
        throw precondition_error("quorum_core: duplicate register in write batch");
      }
    }
    claim_slot(i, ops[i].reg).payload = ops[i].val;
  }

  if (pol_.write_query_round) {
    message& m = stage_msg(msg_kind::sn_query, 1, 0);
    m.batch.resize(cl_.batch_n);
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
      m.batch[i].reg = cl_.batch[i].reg;
      m.batch[i].ts = tag{};
      m.batch[i].val.data.clear();
    }
    begin_phase(phase_kind::write_query, out);
  } else {
    // Single-writer variants: one counter bump covers the whole batch (the
    // tag stays per-register monotonic; ties across registers are fine).
    wsn_ += 1;
    const tag t{wsn_, pol_.rec_in_tag ? rec_ : 0, self_};
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) cl_.batch[i].pending_tag = t;
    proceed_after_query(out);
  }
}

void quorum_core::invoke_read_batch(const std::vector<register_id>& regs, outputs& out) {
  check_invocation_allowed("invoke_read_batch");
  if (regs.empty()) throw precondition_error("quorum_core: empty read batch");

  cl_.reset();
  cl_.op_seq = ++op_counter_;
  cl_.is_read = true;
  cl_.is_batch = true;
  cl_.batch_n = static_cast<std::uint32_t>(regs.size());
  for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
    for (std::uint32_t j = 0; j < i; ++j) {
      if (regs[j] == regs[i]) {
        throw precondition_error("quorum_core: duplicate register in read batch");
      }
    }
    claim_slot(i, regs[i]).best_tag = initial_tag;
  }

  message& m = stage_msg(msg_kind::read_query, 1, 0);
  m.batch.resize(cl_.batch_n);
  for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
    m.batch[i].reg = cl_.batch[i].reg;
    m.batch[i].ts = tag{};
    m.batch[i].val.data.clear();
  }
  begin_phase(phase_kind::read_query, out);
}

void quorum_core::emit_prelog(register_id reg, const tag& ts, const value& val,
                              bool lead, outputs& out) {
  // Paper Fig. 4 line 12: store(writing, sn, v) — the first causal log.
  log_request& lr = out.logs.emplace_slot();  // recycled: every field assigned
  lr.key = writing_key_of(reg);
  encode_tagged_value_into(lr.record, ts, val);
  lr.token = fresh_token();
  lr.ctx = exec_context::client;
  lr.depth_after = cl_.depth + 1;
  lr.op_seq = cl_.op_seq;
  lr.origin = self_;
  lr.epoch = epoch_;
  lr.obsoletes.clear();
  if (lead) {
    // Piggyback the settled predecessors' obsolescence on the batch's lead
    // pre-log: same durable step, zero extra stores.
    lr.obsoletes.swap(obsolete_prelogs_);
    obsolete_prelogs_.clear();
  }
  pending_log& pl = pending_logs_[lr.token];
  pl = pending_log{};
  pl.k = pending_log::kind::writer_prelog;
  pl.reg = reg;
  cl_.prelogs_pending += 1;
}

void quorum_core::mark_prelogs_obsolete() {
  // Only meaningful when pre-logs exist, and only sound when tags come from
  // a query round: the query majority intersects the settled write's
  // durable majority, so the sequence number is safely re-derived after a
  // crash. Single-writer variants mint tags from the local wsn_ restored
  // from these very records — erasing them could resurrect a duplicate tag.
  if (!pol_.writer_prelog || !pol_.write_query_round || cl_.is_read) return;
  if (cl_.is_batch) {
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
      obsolete_prelogs_.push_back(writing_key_of(cl_.batch[i].reg));
    }
  } else {
    obsolete_prelogs_.push_back(writing_key_of(cl_.reg));
  }
}

void quorum_core::proceed_after_query(outputs& out) {
  if (pol_.writer_prelog && !pol_.crash_stop) {
    cl_.phase = phase_kind::write_prelog;
    // A register this operation is about to pre-log again needs no
    // tombstone — the fresh (writing) record overwrites the same key, and
    // a tombstone ordered after it in the same batch would erase it.
    std::erase_if(obsolete_prelogs_, [&](const storage::record_key& k) {
      if (cl_.is_batch) {
        for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
          if (k.reg == cl_.batch[i].reg) return true;
        }
        return false;
      }
      return k.reg == cl_.reg;
    });
    if (cl_.is_batch) {
      // One (writing) record per register; the stores are concurrent, so
      // they count one causal-log step for the whole batch.
      for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
        emit_prelog(cl_.batch[i].reg, cl_.batch[i].pending_tag, cl_.batch[i].payload,
                    i == 0, out);
      }
    } else {
      emit_prelog(cl_.reg, cl_.pending_tag, cl_.payload, true, out);
    }
  } else {
    begin_update_round(out);
  }
}

void quorum_core::begin_update_round(outputs& out) {
  message& m = stage_msg(msg_kind::write, 2, cl_.depth);
  if (cl_.is_batch) {
    m.batch.resize(cl_.batch_n);
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
      m.batch[i].reg = cl_.batch[i].reg;
      m.batch[i].ts = cl_.batch[i].pending_tag;
      m.batch[i].val = cl_.batch[i].payload;  // copy-assign into retained capacity
    }
  } else {
    m.ts = cl_.pending_tag;
    m.val = cl_.payload;  // copy-assign into retained capacity
  }
  begin_phase(phase_kind::write_update, out);
}

void quorum_core::finish_operation(outputs& out) {
  op_outcome& oc = out.completion.emplace();
  oc.op_seq = cl_.op_seq;
  oc.is_read = cl_.is_read;
  oc.reg = cl_.reg;
  oc.causal_logs = cl_.depth;
  oc.batch.clear();
  if (cl_.is_batch) {
    oc.result.data.clear();
    oc.applied = tag{};
    oc.batch.resize(cl_.batch_n);
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
      const batch_slot& s = cl_.batch[i];
      batch_entry& e = oc.batch[i];
      e.reg = s.reg;
      if (cl_.is_read) {
        if (pol_.read_return_first) {
          e.ts = s.first_tag;
          e.val = s.first_val;
        } else {
          e.ts = s.best_tag;
          e.val = s.best_val;
        }
      } else {
        e.ts = s.pending_tag;
        e.val = s.payload;
      }
    }
  } else if (cl_.is_read) {
    if (pol_.read_return_first) {
      oc.result = cl_.first_val;
      oc.applied = cl_.first_tag;
    } else {
      oc.result = cl_.best_val;
      oc.applied = cl_.best_tag;
    }
  } else {
    oc.result = cl_.payload;
    oc.applied = cl_.pending_tag;
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

bool quorum_core::cover_batch_slots(const message& m) {
  bool any = false;
  auto cover = [&](batch_slot& s) {
    if (s.acked[m.from.index]) return;
    s.acked[m.from.index] = true;
    s.ack_count += 1;
    any = true;
  };
  if (m.batch.empty()) {
    // A coverage-less ack (single-register peers, stale senders) vouches for
    // the whole batch — the conservative reading of the pre-trim protocol.
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) cover(cl_.batch[i]);
  } else {
    for (const batch_entry& e : m.batch) {
      if (batch_slot* s = find_slot(e.reg)) cover(*s);
    }
  }
  return any;
}

bool quorum_core::slot_settled(const batch_slot& s) const {
  if (s.ack_count < quorum_size()) return false;
  if (s.lease_req_mask != 0) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      if ((s.lease_req_mask >> i) & 1u) {
        if (!s.acked[i]) return false;
      }
    }
  }
  return true;
}

bool quorum_core::batch_update_settled() const {
  for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
    if (!slot_settled(cl_.batch[i])) return false;
  }
  return true;
}

bool quorum_core::lease_reqs_met() const {
  if (cl_.lease_req_mask == 0) return true;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if ((cl_.lease_req_mask >> i) & 1u) {
      if (!cl_.responded[i]) return false;
    }
  }
  return true;
}

void quorum_core::merge_lease_notes(const message& m) {
  // Bits past the cluster size carry no meaning (leases require n <= 64,
  // enforced by the driver); mask them off so settlement never waits on a
  // process that does not exist.
  const std::uint64_t live = n_ >= 64 ? ~0ULL : ((1ULL << n_) - 1);
  for (const lease_note& nte : m.leases) {
    const std::uint64_t mask = nte.holder_mask & live;
    if (mask == 0) continue;
    if (cl_.is_batch) {
      if (batch_slot* s = find_slot(nte.reg)) s->lease_req_mask |= mask;
    } else if (nte.reg == cl_.reg) {
      cl_.lease_req_mask |= mask;
    }
  }
}

void quorum_core::drop_holding_on_update(const message& m, register_id reg) {
  if (!pol_.read_leases) return;
  if (holdings_.find(reg) != nullptr) {
    holdings_.erase(reg);
    branches_.lease_invalidations += 1;
  }
  // A grant in flight for this register is voided too — unless the update
  // being served is the grant's own write-back (the floor anchoring itself).
  if (cl_.lease_grant && !cl_.lease_canceled && cl_.phase != phase_kind::idle &&
      cl_.reg == reg && !(m.from.index == self_.index && m.op_seq == cl_.op_seq)) {
    cl_.lease_canceled = true;
    branches_.lease_invalidations += 1;
  }
}

void quorum_core::attach_lease_note_for(message& ack, register_id reg) {
  const grantor_lease* g = granted_.find(reg);
  if (g != nullptr && g->holder_mask != 0) {
    ack.leases.push_back(lease_note{reg, g->holder_mask});
  }
}

void quorum_core::attach_lease_notes(message& ack, const message& req) {
  if (!pol_.read_leases || granted_.empty()) return;
  if (req.is_batch()) {
    for (const batch_entry& e : req.batch) attach_lease_note_for(ack, e.reg);
  } else {
    attach_lease_note_for(ack, req.reg);
  }
}

bool quorum_core::ack_matches(const message& m) const {
  return m.op_seq == cl_.op_seq && m.epoch == epoch_ &&
         ((cl_.phase == phase_kind::write_query && m.round == 1) ||
          (cl_.phase == phase_kind::read_query && m.round == 1) ||
          (cl_.phase == phase_kind::lease_grant && m.round == 1) ||
          (cl_.phase == phase_kind::write_update && m.round == 2) ||
          (cl_.phase == phase_kind::read_update && m.round == 2) ||
          (cl_.phase == phase_kind::recovery_update && m.round == 2));
}

void quorum_core::handle_ack(const message& m, outputs& out) {
  if (!ack_matches(m)) return;  // stale phase / stale incarnation
  if (m.from.index >= n_) return;
  // Batched update rounds settle per (process, register) — a trimmed
  // retransmission's ack covers only part of the batch, so a process may
  // legitimately ack more than once; coverage marking is idempotent.
  const bool batched_update = cl_.is_batch && in_update_phase();
  if (!batched_update && cl_.responded[m.from.index]) return;  // duplicate

  switch (cl_.phase) {
    case phase_kind::write_query:
      if (m.kind != msg_kind::sn_ack) return;
      if (cl_.is_batch) {
        for (const batch_entry& e : m.batch) {
          if (batch_slot* s = find_slot(e.reg)) s->max_sn = std::max(s->max_sn, e.ts.sn);
        }
      } else {
        cl_.max_sn = std::max(cl_.max_sn, m.ts.sn);
      }
      break;
    case phase_kind::lease_grant:
    case phase_kind::read_query: {
      if (m.kind != (cl_.phase == phase_kind::lease_grant ? msg_kind::lease_grant_ack
                                                          : msg_kind::read_ack)) {
        return;
      }
      if (cl_.is_batch) {
        for (const batch_entry& e : m.batch) {
          batch_slot* s = find_slot(e.reg);
          if (s == nullptr) continue;
          if (!s->have_first) {
            s->have_first = true;
            s->first_tag = e.ts;
            s->first_val = e.val;
          }
          if (s->best_tag < e.ts) {
            s->best_tag = e.ts;
            s->best_val = e.val;
          }
        }
      } else {
        if (!cl_.have_first) {
          cl_.have_first = true;
          cl_.first_tag = m.ts;
          cl_.first_val = m.val;
        }
        if (cl_.best_tag < m.ts) {
          cl_.best_tag = m.ts;
          cl_.best_val = m.val;
        }
      }
      break;
    }
    case phase_kind::write_update:
    case phase_kind::read_update:
    case phase_kind::recovery_update:
      if (m.kind != msg_kind::write_ack) return;
      // The ack may name leaseholders this update must also hear from;
      // widen the requirement before testing settlement below.
      if (pol_.read_leases && !m.leases.empty()) merge_lease_notes(m);
      break;
    case phase_kind::idle:
    case phase_kind::write_prelog:
      return;
  }

  cl_.depth = std::max(cl_.depth, m.log_depth);
  if (batched_update) {
    if (!cover_batch_slots(m)) return;  // duplicate coverage
    // A fully-covering process counts as responded (the retransmission loop
    // skips it entirely; partial coverers keep receiving trimmed repeats).
    bool covered_all = true;
    for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
      if (!cl_.batch[i].acked[m.from.index]) covered_all = false;
    }
    if (covered_all && !cl_.responded[m.from.index]) {
      cl_.responded[m.from.index] = true;
      cl_.responses += 1;
    }
    // Completion is per register: every slot durable at its own majority.
    if (!batch_update_settled()) return;
  } else {
    cl_.responded[m.from.index] = true;
    cl_.responses += 1;
    if (cl_.responses < quorum_size()) return;
    // A majority is not enough while a noted leaseholder is silent: its ack
    // is what proves the holder served (and thus invalidated against) this
    // update. Retransmission keeps poking the silent holder.
    if (in_update_phase() && !lease_reqs_met()) return;
  }

  // Quorum reached: advance the state machine.
  switch (cl_.phase) {
    case phase_kind::write_query: {
      // Fig. 4 line 11: sn := sn + 1; Fig. 5 line 11: sn := sn + rec + 1.
      const std::int64_t bump = pol_.recovery_counter ? rec_ + 1 : 1;
      if (cl_.is_batch) {
        for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
          batch_slot& s = cl_.batch[i];
          s.pending_tag = tag{s.max_sn + bump, pol_.rec_in_tag ? rec_ : 0, self_};
          wsn_ = std::max(wsn_, s.pending_tag.sn);
        }
      } else {
        cl_.pending_tag = tag{cl_.max_sn + bump, pol_.rec_in_tag ? rec_ : 0, self_};
        wsn_ = std::max(wsn_, cl_.pending_tag.sn);
      }
      proceed_after_query(out);
      break;
    }
    case phase_kind::lease_grant:
    case phase_kind::read_query: {
      if (pol_.read_writeback) {
        message& wb = stage_msg(msg_kind::writeback, 2, cl_.depth);
        if (cl_.is_batch) {
          wb.batch.resize(cl_.batch_n);
          for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
            wb.batch[i].reg = cl_.batch[i].reg;
            wb.batch[i].ts = cl_.batch[i].best_tag;
            wb.batch[i].val = cl_.batch[i].best_val;
          }
        } else {
          wb.ts = cl_.best_tag;
          wb.val = cl_.best_val;
        }
        begin_phase(phase_kind::read_update, out);
      } else {
        finish_operation(out);
      }
      break;
    }
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
        replica_slot& rs = replicas_[cl_.reg];
        if (rs.vtag < cl_.best_tag) {
          rs.vtag = cl_.best_tag;
          rs.vval = cl_.best_val;
        }
        if (!(cl_.best_tag < rs.vtag)) {
          holdings_[cl_.reg] = cl_.lease_token;
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

message& quorum_core::send_ack(const message& req, std::uint32_t depth, outputs& out) {
  send_request& s = out.sends.emplace_slot();
  s.to = req.from;
  message& ack = s.msg;  // recycled slot: every field assigned
  ack.kind = msg_kind::write_ack;
  ack.from = self_;
  ack.op_seq = req.op_seq;
  ack.round = req.round;
  ack.epoch = req.epoch;
  ack.ts = tag{};
  ack.val.data.clear();
  ack.log_depth = depth;
  ack.reg = req.reg;
  ack.batch.clear();
  ack.leases.clear();
  attach_lease_notes(ack, req);
  return ack;
}

// Update rounds ack a no-adopt duplicate immediately: the drivers guarantee
// a replica's listener is blocked while its (written) store is in flight
// (the simulator requeues deliveries past busy_until, and the log_done event
// sorts before them), so by the time a duplicate is served the first copy's
// log has landed and the immediate ack is truthful.
void quorum_core::serve_update(const message& m, outputs& out) {
  replica_slot* found = replicas_.find(m.reg);
  const bool adopt = (found != nullptr ? found->vtag : initial_tag) < m.ts;
  (adopt ? branches_.adoptions : branches_.stale_updates) += 1;
  if (adopt) {
    // Adopting would move the slot off a lease's anchored floor: revoke the
    // holding first. (Stale updates leave the slot — and the lease — alone.)
    drop_holding_on_update(m, m.reg);
    // Insert only on adoption: registers merely heard about (stale
    // write-backs of the initial tag, retransmissions) hold no state here.
    replica_slot& rs = found != nullptr ? *found : replicas_[m.reg];
    rs.vtag = m.ts;
    rs.vval = m.val;
    const bool log_this = !pol_.crash_stop &&
                          (m.kind == msg_kind::write ? pol_.log_on_adopt
                                                     : pol_.log_on_read_writeback);
    if (log_this) {
      // Fig. 4 line 24: store(written, sn, pid, v) before acking.
      log_request& lr = out.logs.emplace_slot();  // recycled: all assigned
      lr.key = written_key_of(m.reg);
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
      pl.to = m.from;
      pl.op_seq = m.op_seq;
      pl.round = m.round;
      pl.epoch = m.epoch;
      pl.depth = m.log_depth + 1;
      pl.reg = m.reg;
      return;  // ack deferred until durable
    }
  }
  send_ack(m, m.log_depth, out);
}

void quorum_core::serve_update_batch(const message& m, outputs& out) {
  const bool log_this = !pol_.crash_stop &&
                        (m.kind == msg_kind::write ? pol_.log_on_adopt
                                                   : pol_.log_on_read_writeback);
  std::uint32_t logs_needed = 0;
  std::uint64_t group = 0;
  std::uint32_t adopted = 0;
  for (const batch_entry& e : m.batch) {
    replica_slot* found = replicas_.find(e.reg);
    if (!((found != nullptr ? found->vtag : initial_tag) < e.ts)) {
      branches_.stale_updates += 1;
      continue;
    }
    branches_.adoptions += 1;
    ++adopted;
    drop_holding_on_update(m, e.reg);
    replica_slot& rs = found != nullptr ? *found : replicas_[e.reg];
    rs.vtag = e.ts;
    rs.vval = e.val;
    if (!log_this) continue;
    // One (written) log per adopted register; the batched ack fires once
    // every one of them is durable, so the invoker's quorum still counts
    // only fully-persistent replicas.
    if (group == 0) group = fresh_token();
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
    pl.reg = e.reg;
    pl.group = group;
    ++logs_needed;
  }
  if (adopted > 0 && adopted < m.batch.size()) branches_.adopt_splits += 1;
  if (logs_needed == 0) {
    // Every register of the message is already durable at >= its tag: ack
    // immediately, listing the registers covered (the sender settles each
    // register against its own majority — see handle_ack).
    message& ack = send_ack(m, m.log_depth, out);
    for (const batch_entry& e : m.batch) add_ack_coverage(ack, e.reg);
    return;
  }
  batch_ack& ba = batch_acks_[group];
  ba.to = m.from;
  ba.op_seq = m.op_seq;
  ba.round = m.round;
  ba.epoch = m.epoch;
  ba.depth = m.log_depth + 1;
  ba.remaining = logs_needed;
  ba.regs.clear();
  if (pol_.trim_batch_retransmit && logs_needed < m.batch.size()) {
    // Split ack: registers that adopted nothing are durable at >= their tag
    // *now* — vouch for them immediately and let the group ack cover only
    // the registers whose (written) logs are still in flight. The early
    // per-register votes settle unchanged registers at the sender sooner,
    // which is what lets its retransmissions drop them from the repeat
    // payload (common under contention: racing batches overlap only partly,
    // and a read write-back usually adopts almost nothing).
    //
    // Classification: an entry whose replica tag equals e.ts either just
    // adopted (its log is in this group) or was an equal-tag duplicate whose
    // earlier log is already durable (the driver blocks the listener while a
    // store is in flight) — grouping duplicates merely delays their vote, so
    // the split stays sound either way.
    const auto grouped = [this](const batch_entry& e) {
      const replica_slot* rs = replicas_.find(e.reg);
      return rs != nullptr && rs->vtag == e.ts;
    };
    std::size_t instant = 0;
    for (const batch_entry& e : m.batch) {
      if (!grouped(e)) ++instant;
    }
    if (instant > 0) {
      message& ack = send_ack(m, m.log_depth, out);
      for (const batch_entry& e : m.batch) {
        if (grouped(e)) {
          ba.regs.push_back(e.reg);
        } else {
          add_ack_coverage(ack, e.reg);
        }
      }
      return;
    }
  }
  // Untrimmed (or fully-adopting) path: one deferred ack covers the batch.
  for (const batch_entry& e : m.batch) ba.regs.push_back(e.reg);
}

void quorum_core::serve(const message& m, outputs& out) {
  switch (m.kind) {
    case msg_kind::sn_query: {
      send_request& s = out.sends.emplace_slot();
      s.to = m.from;
      message& ack = s.msg;  // recycled slot: every field assigned
      ack.kind = msg_kind::sn_ack;
      ack.from = self_;
      ack.op_seq = m.op_seq;
      ack.round = m.round;
      ack.epoch = m.epoch;
      ack.val.data.clear();
      ack.log_depth = m.log_depth;
      ack.reg = m.reg;
      ack.leases.clear();
      if (m.is_batch()) {
        ack.ts = tag{};
        ack.batch.resize(m.batch.size());
        for (std::size_t i = 0; i < m.batch.size(); ++i) {
          ack.batch[i].reg = m.batch[i].reg;
          ack.batch[i].ts = replica_tag(m.batch[i].reg);
          ack.batch[i].val.data.clear();
        }
      } else {
        ack.ts = replica_tag(m.reg);
        ack.batch.clear();
      }
      return;
    }
    case msg_kind::read_query: {
      send_request& s = out.sends.emplace_slot();
      s.to = m.from;
      message& ack = s.msg;  // recycled slot: every field assigned
      ack.kind = msg_kind::read_ack;
      ack.from = self_;
      ack.op_seq = m.op_seq;
      ack.round = m.round;
      ack.epoch = m.epoch;
      ack.log_depth = m.log_depth;
      ack.reg = m.reg;
      ack.leases.clear();
      if (m.is_batch()) {
        ack.ts = tag{};
        ack.val.data.clear();
        ack.batch.resize(m.batch.size());
        for (std::size_t i = 0; i < m.batch.size(); ++i) {
          const register_id reg = m.batch[i].reg;
          ack.batch[i].reg = reg;
          const replica_slot* rs = replicas_.find(reg);
          if (rs != nullptr) {
            ack.batch[i].ts = rs->vtag;
            ack.batch[i].val = rs->vval;  // copy-assign into retained capacity
          } else {
            ack.batch[i].ts = initial_tag;
            ack.batch[i].val.data.clear();
          }
        }
      } else {
        const replica_slot* rs = replicas_.find(m.reg);
        if (rs != nullptr) {
          ack.ts = rs->vtag;
          ack.val = rs->vval;  // copy-assign into retained capacity
        } else {
          ack.ts = initial_tag;
          ack.val.data.clear();
        }
        ack.batch.clear();
      }
      return;
    }
    case msg_kind::write:
    case msg_kind::writeback: {
      if (m.is_batch()) {
        serve_update_batch(m, out);
      } else {
        serve_update(m, out);
      }
      return;
    }
    case msg_kind::lease_grant: {
      // Grantor side of a lease round. Record the holder in the volatile
      // registry NOW (so any update served from here on carries the note),
      // make the record durable, and defer the ack until the store lands —
      // the ack's (tag, value) is read at ack-build time, so it reflects
      // every update this replica served while the store was in flight.
      if (m.from.index >= 64) return;  // leases require n <= 64 (driver-enforced)
      grantor_lease& g = granted_[m.reg];
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
        lease_tokens_[g.expiry_token] = lease_timer_target{m.reg, /*grantor=*/true};
        out.lease_timers.push_back(timer_request{g.expiry_token, pol_.lease_duration});
      }
      if ((g.durable_mask >> m.from.index) & 1) {
        // Re-grant to a holder the stable record already covers (the common
        // case at the Zipf head, where every write triggers a re-grant):
        // nothing new to make durable, so ack immediately. The (tag, value)
        // is read now, same freshness argument as the deferred ack.
        send_request& s = out.sends.emplace_slot();
        s.to = m.from;
        message& ack = s.msg;  // recycled slot: every field assigned
        ack.kind = msg_kind::lease_grant_ack;
        ack.from = self_;
        ack.op_seq = m.op_seq;
        ack.round = m.round;
        ack.epoch = m.epoch;
        const replica_slot* rs = replicas_.find(m.reg);
        if (rs != nullptr) {
          ack.ts = rs->vtag;
          ack.val = rs->vval;  // copy-assign into retained capacity
        } else {
          ack.ts = initial_tag;
          ack.val.data.clear();
        }
        ack.log_depth = m.log_depth;
        ack.reg = m.reg;
        ack.batch.clear();
        ack.leases.clear();
        return;
      }
      log_request& lr = out.logs.emplace_slot();  // recycled: all assigned
      lr.key = lease_key_of(m.reg);
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
      pl.reg = m.reg;
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
      if (pl.group != 0) {
        // One register of a batched update became durable; ack when the
        // whole batch has.
        batch_ack* ba = batch_acks_.find(pl.group);
        if (ba == nullptr) return;  // stale (pre-crash) group
        if (--ba->remaining > 0) return;
        send_request& s = out.sends.emplace_slot();
        s.to = ba->to;
        message& ack = s.msg;  // recycled slot: every field assigned
        ack.kind = msg_kind::write_ack;
        ack.from = self_;
        ack.op_seq = ba->op_seq;
        ack.round = ba->round;
        ack.epoch = ba->epoch;
        ack.ts = tag{};
        ack.val.data.clear();
        ack.log_depth = ba->depth;
        ack.reg = default_register;
        ack.batch.clear();
        ack.leases.clear();
        for (const register_id reg : ba->regs) {
          add_ack_coverage(ack, reg);
          attach_lease_note_for(ack, reg);
        }
        batch_acks_.erase(pl.group);
        return;
      }
      send_request& s = out.sends.emplace_slot();
      s.to = pl.to;
      message& ack = s.msg;  // recycled slot: every field assigned
      ack.kind = msg_kind::write_ack;
      ack.from = self_;
      ack.op_seq = pl.op_seq;
      ack.round = pl.round;
      ack.epoch = pl.epoch;
      ack.ts = tag{};
      ack.val.data.clear();
      ack.log_depth = pl.depth;
      ack.reg = pl.reg;
      ack.batch.clear();
      ack.leases.clear();
      attach_lease_note_for(ack, pl.reg);
      return;
    }
    case pending_log::kind::lease_record: {
      // The grant is durable: ack with the replica's CURRENT (tag, value).
      // Reading it now (not at receipt) is what makes the deferred ack safe:
      // it is >= every update this replica served before answering, so the
      // holder's floor covers them all.
      grantor_lease* g = granted_.find(pl.reg);
      if (g != nullptr) g->durable_mask = pl.lease_mask;
      send_request& s = out.sends.emplace_slot();
      s.to = pl.to;
      message& ack = s.msg;  // recycled slot: every field assigned
      ack.kind = msg_kind::lease_grant_ack;
      ack.from = self_;
      ack.op_seq = pl.op_seq;
      ack.round = pl.round;
      ack.epoch = pl.epoch;
      const replica_slot* rs = replicas_.find(pl.reg);
      if (rs != nullptr) {
        ack.ts = rs->vtag;
        ack.val = rs->vval;  // copy-assign into retained capacity
      } else {
        ack.ts = initial_tag;
        ack.val.data.clear();
      }
      ack.log_depth = pl.depth;
      ack.reg = pl.reg;
      ack.batch.clear();
      ack.leases.clear();
      return;
    }
    case pending_log::kind::writer_prelog: {
      if (cl_.phase != phase_kind::write_prelog) return;  // crashed & stale
      if (cl_.prelogs_pending > 0 && --cl_.prelogs_pending > 0) return;
      // The batch's concurrent (writing) stores count one causal-log step.
      cl_.depth += 1;
      begin_update_round(out);
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
  // processes that have not answered this phase yet. Batched update rounds
  // with trimming on shrink each repeat to the registers that still need the
  // recipient's vote: settled registers (majority-durable) and registers the
  // recipient already acked carry no information, so their (tag, value)
  // payloads are dropped from the wire.
  const bool trim = pol_.trim_batch_retransmit && cl_.is_batch && in_update_phase();
  branches_.retransmits += 1;
  if (trim) branches_.retransmit_trims += 1;
  const std::size_t full_bytes = wire_size(cl_.current);
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (cl_.responded[i]) continue;
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
    for (std::uint32_t j = 0; j < cl_.batch_n; ++j) {
      const batch_slot& sl = cl_.batch[j];
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
        mm.ts = tag{};
        mm.val.data.clear();
        mm.log_depth = cl_.current.log_depth;
        mm.reg = cl_.current.reg;
        mm.batch.clear();
        mm.leases.clear();
      }
      // Slot j's staged entry is index-aligned with the live batch (every
      // update-round staging fills cl_.current.batch in slot order).
      s->msg.batch.push_back(cl_.current.batch[j]);
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
    if (cl_.lease_grant && !cl_.lease_canceled && cl_.phase != phase_kind::idle &&
        cl_.reg == reg) {
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
  cl_ = client_state{};
  pending_logs_.clear();
  batch_acks_.clear();
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
  // restore to the initial value ⊥.
  replicas_.clear();
  std::int64_t max_sn = 0;
  store_.for_each(storage::record_area::written,
                  [&](register_id reg, const bytes& rec) {
                    auto tv = decode_tagged_value(rec);
                    replica_slot& rs = replicas_[reg];
                    rs.vtag = tv.ts;
                    rs.vval = std::move(tv.val);
                    max_sn = std::max(max_sn, tv.ts.sn);
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
    // (writing) records — every register with a pre-log, batched into one
    // round. Harmless when there was no unfinished write (adopt-if-newer).
    std::vector<std::pair<register_id, tagged_value_record>> pend;  // cold path
    store_.for_each(storage::record_area::writing,
                    [&](register_id reg, const bytes& rec) {
                      pend.emplace_back(reg, decode_tagged_value(rec));
                      // A pre-logged sequence number was used: never reissue
                      // it (single-writer variants draw from wsn_; without
                      // this a recovered writer could mint a duplicate tag
                      // for a different value and the write would vanish).
                      wsn_ = std::max(wsn_, pend.back().second.ts.sn);
                      // The finish-write round will settle these records at
                      // a majority before any invocation resumes, so they
                      // can be erased by the next pre-log (same soundness
                      // gate as mark_prelogs_obsolete: query-round tags).
                      if (pol_.write_query_round) {
                        obsolete_prelogs_.push_back(writing_key_of(reg));
                      }
                    });
    cl_.reset();
    cl_.op_seq = ++op_counter_;
    if (pend.size() <= 1) {
      // Zero or one record: the single-register shape (bit-for-bit the
      // pre-namespace recovery when only the default register was written).
      tagged_value_record w{initial_tag, initial_value()};
      if (!pend.empty()) {
        cl_.reg = pend.front().first;
        w = std::move(pend.front().second);
      }
      cl_.pending_tag = w.ts;
      cl_.payload = w.val;
      message& m = stage_msg(msg_kind::write, 2, 0);
      m.ts = w.ts;
      m.val = w.val;
    } else {
      cl_.is_batch = true;
      cl_.batch_n = static_cast<std::uint32_t>(pend.size());
      for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
        batch_slot& s = claim_slot(i, pend[i].first);
        s.pending_tag = pend[i].second.ts;
        s.payload = std::move(pend[i].second.val);
      }
      message& m = stage_msg(msg_kind::write, 2, 0);
      m.batch.resize(cl_.batch_n);
      for (std::uint32_t i = 0; i < cl_.batch_n; ++i) {
        m.batch[i].reg = cl_.batch[i].reg;
        m.batch[i].ts = cl_.batch[i].pending_tag;
        m.batch[i].val = cl_.batch[i].payload;
      }
    }
    branches_.recovery_finish_writes += 1;
    begin_phase(phase_kind::recovery_update, out);
    return;
  }

  // Nothing else to do (flawed variants, and transient_literal without its
  // counter would land here too).
  ready_ = true;
  out.recovery_complete = true;
}

}  // namespace remus::proto
