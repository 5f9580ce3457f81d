// The two-round quorum register core executing any protocol_policy.
//
// This is the paper's Figure 4 (persistent) and Figure 5 (transient)
// pseudocode, plus the crash-stop baseline they extend ([2] in the paper),
// expressed as one sans-I/O state machine — generalized from one register to
// a namespace of named registers multiplexed over the same cluster:
//
//   Write(v):  round 1  broadcast SN, await majority of SN_acks,
//                       sn := max + 1        (Fig. 4 line 11)
//                       sn := max + rec + 1  (Fig. 5 line 11)
//              [persistent] store(writing, sn, v), the first causal log
//              round 2  broadcast W([sn, i], v), await majority of W_acks;
//                       each replica adopts if newer and (crash-recovery)
//                       stores (written, sn, pid, v) before acking — the
//                       write's other causal log
//   Read():    round 1  broadcast R, await majority of R_acks, pick the
//                       lexicographically largest (tag, value)
//              round 2  broadcast the write-back; replicas adopt-if-newer
//                       (logging only when they actually adopt, which is why
//                       a crash-free uncontended read performs zero logs)
//   Recover(): restore every register's (written) record into volatile
//              state, then
//              [persistent] re-run round 2 with every logged (writing) record
//              [transient]  rec := rec + 1; store(recovered, rec)
//
// One operation shape: every invocation names a list of distinct registers,
// and a single-key operation is a list of one. The two rounds run for the
// whole list at once — one broadcast carries every register's entry, every
// ack answers each register it lists, and a replica acks an update only once
// every register it adopted is durably logged. All volatile and stable
// protocol state is keyed by register_id (the replica map is a flat hash
// preserving the zero-allocation steady state). Since linearizability is
// local (Herlihy–Wing), each register's projection of the resulting history
// satisfies the algorithm's criterion independently (checked by
// history::check_atomicity_per_key), so a key set is as sound as one key.
//
// The policy switches (see policy.h) turn individual steps on or off; the
// flawed variants used by the lower-bound tests are the same machine with a
// step removed, exactly like the paper's proofs remove a log and derive a
// violation.
//
// # Read leases (policy.read_leases)
//
// A process whose quorum reads keep hitting the same register turns its next
// read of that one register into a *grant* round (msg_kind::lease_grant;
// reads of several registers never take or use a lease): every
// replica that answers first durably records (register, holder-bit) in the
// `lease` stable area — through the same store_and_obsolete WAL path as every
// other record — and only then acks with its (tag, value). The read then runs
// its normal write-back round, anchoring the freshest (tag, value) — the
// lease *floor* — at a majority, and the holder adopts the floor into its own
// replica slot. From that point reads of the register complete locally with
// zero messages, until one of three revocations:
//
//   * a served update (write round 2 or a read write-back) adopts a newer
//     value at the holder — the holding is dropped before the adoption, so an
//     active holding always serves exactly the majority-anchored floor;
//   * the lease expires — the holder stops at grant-send + lease_duration,
//     each grantor forgets at its record time + lease_duration (strictly
//     later, since the grant message's network delay is positive: writers
//     keep waiting for a holder at least as long as it may serve);
//   * the holder crashes — holdings are volatile and recovery never restores
//     them, which is what binds the lease to the holder's incarnation. The
//     durable records are *grantor*-side only; a grantor's recovery restores
//     its registry (conservative: it only makes writers wait).
//
// Writers learn of holders via lease notes attached to update-round acks —
// each note rides on an ack that covers its register — and must collect an
// ack from every noted holder before completing (on top of the majority).
// Safety is quorum intersection: a completing update's majority meets the
// grant's majority in some process r*, which either
// recorded the grant before serving the update — its ack carries the note,
// so the update waits for the holder, who drops its holding when it serves
// the update — or served the update before answering the grant, in which
// case the grant's floor already covers the update's tag.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/error.h"
#include "common/flat_hash.h"
#include "proto/effects.h"
#include "proto/policy.h"
#include "proto/records.h"
#include "storage/stable_store.h"

namespace remus::proto {

/// One process p_i of the emulation: the client role (invoking reads and
/// writes for the application) and the listener role (serving the other
/// processes' messages) of the paper's two-thread processes. Lifecycle:
/// start(), then invocations (while idle() && ready()) and on_* inputs;
/// crash() loses volatile state; recover() runs the policy's Recover().
class quorum_core final {
 public:
  /// `store` must outlive the core and survives crash() (stable storage).
  quorum_core(protocol_policy pol, process_id self, std::uint32_t n,
              storage::stable_store& store, std::uint64_t initial_epoch);

  quorum_core(const quorum_core&) = delete;
  quorum_core& operator=(const quorum_core&) = delete;

  // The sans-I/O contract: every entry point appends *effects* (messages to
  // send, records to log, timers to arm, an operation outcome) to `out`; a
  // proto::host executes them in its environment (core::cluster or
  // runtime::node). The core never performs I/O itself, which is what makes
  // the same state machine run under the simulator, the threaded runtime,
  // and the unit tests.

  /// First call after construction; must emit no effects (a fresh process
  /// has nothing pending — recovery of a non-fresh one goes via recover()).
  void start(outputs& out);
  /// Begins a write of each entry's register with the entry's value (its
  /// tag is ignored); the registers must be distinct. Durability invariant
  /// on completion: when the write's outcome is reported, a majority of
  /// processes have every written (tag, value) in *stable* storage
  /// ([persistent] additionally: the writer logged its (writing) pre-logs
  /// before round 2, so a crashed writer's recovery can finish the write).
  /// Tag invariant: each chosen tag exceeds every tag a query majority
  /// reported for its register (Lemma 1(ii): later writes get strictly
  /// larger tags).
  void invoke_write(const std::vector<batch_entry>& ops, outputs& out);
  /// Begins a read of each entry's register (tags and values ignored; the
  /// registers must be distinct). Invariant on completion: each returned
  /// (tag, value) — the freshest of a query majority — is itself at a
  /// majority (write-back round; replicas log before acking iff they adopt),
  /// so no later read can return an older value (Lemma 1(i)).
  void invoke_read(const std::vector<batch_entry>& regs, outputs& out);
  /// Feeds a delivered message. Safe under fair-lossy channels: duplicates,
  /// reordering, and stale-epoch traffic are tolerated (acks are matched by
  /// (origin, epoch, op_seq, round); replicas adopt-if-newer, so replay is
  /// idempotent).
  void on_message(const message& m, outputs& out);
  /// Completion of the stable-storage write identified by `token`. Acks
  /// deferred on durability (server adopts, writer pre-logs) are released
  /// here — never before the log is on disk; that ordering IS the paper's
  /// causal-log discipline.
  void on_log_done(std::uint64_t token, outputs& out);
  /// Retransmission timer: re-broadcasts the in-flight phase's message
  /// (fair-lossy channels deliver a message sent infinitely often).
  void on_timer(std::uint64_t token, outputs& out);
  /// A lease deadline (outputs::lease_timers) fired: the holder stops serving
  /// locally, or the grantor forgets its record (and erases the stable copy —
  /// pure compaction: a crash first merely restores an entry that expires
  /// again). Stale and superseded tokens are ignored.
  void on_lease_expiry(std::uint64_t token, outputs& out);
  /// Loses ALL volatile state (replica map, in-flight operation, pending
  /// acks); stable storage survives. The driver must discard every
  /// outstanding effect of this incarnation.
  void crash();
  /// Runs the policy's Recover() with a fresh epoch: restore volatile state
  /// from the (written) records, then [persistent] finish every pre-logged
  /// write in one round 2, or [transient] durably bump the recovery
  /// counter. ready() stays false — and invocations are rejected — until
  /// the procedure's own quorum rounds/logs complete.
  void recover(std::uint64_t new_epoch, outputs& out);

  /// No client operation in flight.
  [[nodiscard]] bool idle() const { return cl_.phase == phase_kind::idle; }
  /// Up and not inside a recovery procedure: invocations accepted.
  [[nodiscard]] bool ready() const { return up_ && ready_; }
  [[nodiscard]] bool is_up() const { return up_; }
  [[nodiscard]] const protocol_policy& policy() const { return pol_; }
  /// Replica-state introspection (tests, diagnostics).
  [[nodiscard]] tag replica_tag(register_id reg = default_register) const;
  [[nodiscard]] value replica_value(register_id reg = default_register) const;

  /// Recovery-counter value (transient emulation; 0 otherwise).
  [[nodiscard]] std::int64_t recoveries() const { return rec_; }
  /// Majority size used for quorums.
  [[nodiscard]] std::uint32_t quorum_size() const;
  /// Incarnation nonce (request/response matching metadata).
  [[nodiscard]] std::uint64_t current_epoch() const { return epoch_; }
  /// Sequence number of the op in flight, or of a leased read (which
  /// completes at its invocation) until the next op; 0 otherwise.
  [[nodiscard]] std::uint64_t current_op_seq() const { return cl_.op_seq; }

  /// Protocol-branch counters: which rare paths an execution actually took.
  /// The scenario fuzzer folds these into its coverage accounting so
  /// generation can bias toward schedules that exercise under-hit branches.
  /// Cumulative across crashes (a run diagnostic, not protocol state).
  struct branch_stats {
    std::uint64_t adoptions = 0;         // a served update adopted a newer value
    std::uint64_t stale_updates = 0;     // a served update kept the local value
    std::uint64_t adopt_splits = 0;      // a served update mixing adopt + stale
    std::uint64_t retransmits = 0;       // timer-driven phase re-broadcasts
    std::uint64_t retransmit_trims = 0;  // settled keys trimmed from those
    std::uint64_t recovery_finish_writes = 0;  // persistent recovery round 2
    std::uint64_t leased_read_hits = 0;    // reads served locally under a lease
    std::uint64_t leased_read_misses = 0;  // leases on, read paid the quorum round
    std::uint64_t lease_grants = 0;        // grant rounds that activated a holding
    std::uint64_t lease_invalidations = 0; // holdings dropped/canceled by an update
    std::uint64_t lease_expiries = 0;      // holdings/records dropped by the clock
    /// Retransmission byte accounting (bench: trimmed-repeat savings are
    /// measured against retransmitted traffic, not total traffic).
    std::uint64_t retransmit_bytes_sent = 0;  // wire bytes actually repeated
    std::uint64_t retransmit_bytes_full = 0;  // bytes untrimmed repeats would cost
  };
  [[nodiscard]] const branch_stats& branches() const { return branches_; }

  // ---- Rebalancing hooks (cluster::import_register / export_register) ----
  //
  // State transfer between quorum groups is driven by the shard router, not
  // by the protocol: these touch only this replica's *volatile* register
  // state and never emit effects (the matching stable records are written by
  // the driver through the store). They are input-order agnostic — adopting
  // is exactly the serve-an-update rule, so replaying or racing a transfer
  // against live traffic is idempotent.

  /// Adopt (ts, v) for `reg` iff newer than the local state (the replica's
  /// serve rule, applied out of band). Also advances the local write counter
  /// past ts.sn so single-writer variants never re-mint a transferred tag.
  void adopt_if_newer(register_id reg, const tag& ts, const value& v);
  /// Drop `reg`'s volatile state (its routing moved away; the stable records
  /// are erased separately by the driver). No-op if absent. Returns the
  /// number of lease-state entries dropped (an active holding and/or a
  /// grantor record): leases never survive a handoff, and the router logs
  /// the drop in its migration schedule.
  std::uint32_t evict(register_id reg);
  /// Enumerate registers with volatile replica state, in unspecified order
  /// (callers sort; needed to build migration worklists under policies that
  /// never log, where stable storage cannot enumerate the namespace).
  void for_each_register(const std::function<void(register_id)>& fn) const;

 private:
  enum class phase_kind : std::uint8_t {
    idle,
    write_query,     // round 1 of a write (SN)
    write_prelog,    // waiting for the (writing) store(s)
    write_update,    // round 2 of a write (W)
    read_query,      // round 1 of a read (R)
    read_update,     // round 2 of a read (write-back)
    recovery_update, // persistent recovery's finish-write round
    lease_grant      // round 1 of a lease-granting read (L)
  };

  /// One replica register's volatile state (paper: [sn, pid] and v).
  struct replica_slot {
    tag vtag;
    value vval;
  };

  /// One register's share of the in-flight client operation.
  struct op_slot {
    register_id reg = default_register;
    /// Write: the tag chosen for round 2 and the argument. Read: the
    /// freshest (tag, value) seen in round 1, written back in round 2.
    tag ts;
    value val;
    std::int64_t max_sn = 0;  // write round 1: largest sequence number seen
    bool have_first = false;
    tag first_tag;  // first reply (safe-register reads)
    value first_val;
    /// The phase's acks, per register: acks list the registers they cover,
    /// so each register independently reaches its own majority (in an
    /// update round, of durable copies). A settled register (ack_count >=
    /// quorum) is dropped from retransmissions when the policy trims them.
    std::vector<bool> acked;  // indexed by process; reset per phase
    std::uint32_t ack_count = 0;
    /// Leaseholders this register's update must additionally hear from
    /// (merged from the acks' lease notes; bit h = process h).
    std::uint64_t lease_req_mask = 0;
  };

  struct client_state {
    phase_kind phase = phase_kind::idle;
    std::uint64_t op_seq = 0;
    bool is_read = false;
    std::uint32_t depth = 0;  // causal-log depth along this op
    std::uint64_t retrans_token = 0;
    message current;  // message being repeated until enough acks arrive
    // Slots [0, slot_count) are live; the vector only grows, so slot buffers
    // keep their capacity across operations.
    std::uint32_t slot_count = 0;
    std::vector<op_slot> slots;
    std::uint32_t prelogs_pending = 0;  // outstanding (writing) stores
    // Lease state of the in-flight op (see quorum_core.cpp, "Read leases").
    bool lease_grant = false;     // this read's round 1 installs a lease
    bool lease_canceled = false;  // grant voided (update served / expired)
    std::uint64_t lease_token = 0;  // the grant's expiry-timer token

    /// Reset for the next operation, keeping buffer capacity (slots and
    /// `current`) so steady-state operation startup allocates nothing.
    void reset() {
      phase = phase_kind::idle;
      op_seq = 0;
      is_read = false;
      depth = 0;
      retrans_token = 0;
      slot_count = 0;
      prelogs_pending = 0;
      lease_grant = false;
      lease_canceled = false;
      lease_token = 0;
      // `current` is fully re-staged by stage_msg() before any phase reads
      // it; slots are re-staged by claim_slot() and begin_phase() before
      // use.
    }
  };

  struct pending_log {
    enum class kind : std::uint8_t {
      server_adopt,
      writer_prelog,
      recovery_counter,
      lease_record  // grantor's (lease) store; ack the grant once durable
    };
    kind k = kind::server_adopt;
    // lease_record fields: the ack to send once durable.
    process_id to;
    std::uint64_t op_seq = 0;
    std::uint32_t round = 0;
    std::uint64_t epoch = 0;
    std::uint32_t depth = 0;
    register_id reg = default_register;
    /// lease_record: the holder mask snapshot the store carries — becomes
    /// the grantor's durable_mask when the store lands.
    std::uint64_t lease_mask = 0;
    /// server_adopt: index of the deferred ack this log gates.
    std::uint32_t ack = 0;
  };

  /// Deferred acknowledgement of a served update: sent once `remaining`
  /// per-register (written) logs are durable. `regs` lists the registers the
  /// ack covers — "durable at >= the served tag" holds for each once the
  /// adopted logs land. A slot with nothing remaining is free for reuse, so
  /// `regs` keeps its capacity and a steady stream of updates allocates
  /// nothing.
  struct deferred_ack {
    process_id to;
    std::uint64_t op_seq = 0;
    std::uint32_t round = 0;
    std::uint64_t epoch = 0;
    std::uint32_t depth = 0;
    std::uint32_t remaining = 0;
    std::vector<register_id> regs;
  };

  struct token_hash {
    std::size_t operator()(std::uint64_t t) const noexcept {
      return static_cast<std::size_t>(mix_u64(t));
    }
  };
  struct reg_hash {
    std::size_t operator()(register_id r) const noexcept {
      return static_cast<std::size_t>(mix_u64(r));
    }
  };

  void check_input_allowed(const char* what) const;
  void check_invocation_allowed(const char* what) const;
  /// Resets the client state for a new operation over `regs` (distinct).
  void start_op(const std::vector<batch_entry>& regs, bool is_read);
  void begin_phase(phase_kind ph, outputs& out);
  void proceed_after_query(outputs& out);
  void finish_operation(outputs& out);
  [[nodiscard]] bool ack_matches(const message& m) const;
  void handle_ack(const message& m, outputs& out);
  /// True while cl_ is in an update round (write round 2, read write-back,
  /// or recovery's finish-write round).
  [[nodiscard]] bool in_update_phase() const;
  /// Marks the registers `m` covers as acked by its sender; returns true if
  /// any (process, register) pair was newly covered.
  bool cover_slots(const message& m);
  /// Every live slot acked by its own majority and by its noted
  /// leaseholders.
  [[nodiscard]] bool phase_settled() const;
  /// Process `p` acked every live slot in this phase.
  [[nodiscard]] bool covered_by(std::uint32_t p) const;
  void serve(const message& m, outputs& out);
  void serve_update(const message& m, outputs& out);
  /// Overwrite every field of cl_.current (the phase's broadcast message) in
  /// place: one entry per live slot naming its register, with an empty tag
  /// and value that update rounds then fill in. Reuses the entries' value
  /// buffers.
  message& stage_msg(msg_kind k, std::uint32_t round, std::uint32_t depth);
  /// Stages an update round whose entries carry each slot's (ts, val).
  void begin_update_round(msg_kind k, phase_kind ph, outputs& out);
  /// Stages a reply to `to` echoing a request's identity; the caller sets
  /// the entries.
  message& stage_reply(process_id to, msg_kind k, std::uint64_t op_seq,
                       std::uint32_t round, std::uint64_t epoch, std::uint32_t depth,
                       outputs& out);
  /// Sets `e` to the replica's (tag, value) of `reg` — the value only when
  /// `with_value` (an SN_ack carries the tag alone).
  void fill_entry(batch_entry& e, register_id reg, bool with_value) const;
  [[nodiscard]] std::uint64_t fresh_token() { return next_token_++; }
  void arm_timer(outputs& out);
  void restore_volatile_from_stable();
  /// Slot i of the in-flight operation, re-staged for register `r`.
  op_slot& claim_slot(std::uint32_t i, register_id r);
  /// Live slot for register `r` of the in-flight operation (nullptr if absent).
  [[nodiscard]] op_slot* find_slot(register_id r);
  void emit_prelog(const op_slot& s, bool lead, outputs& out);
  /// Queues the settled write's (writing) records for piggybacked erasure
  /// on the next pre-log (the paper's "writing record obsolete" note).
  void mark_prelogs_obsolete();
  /// A free deferred-ack slot (reused, or appended when none is free).
  std::uint32_t claim_deferred_ack();
  // ---- Read-lease helpers (see the file comment's "Read leases") ----
  /// A grant round for `reg` is in flight and not yet voided.
  [[nodiscard]] bool grant_pending_for(register_id reg) const;
  /// Drops/cancels any holding of `reg` because an update for it is being
  /// served (`m` identifies the update, so a grant's own write-back never
  /// cancels itself).
  void drop_holding_on_update(const message& m, register_id reg);
  /// Appends a lease note to an update-round ack when `reg` has a recorded
  /// grant.
  void attach_lease_note(message& ack, register_id reg);
  /// Merges an update ack's lease notes into its slots' holder requirements.
  void merge_lease_notes(const message& m);
  /// Slot settled: own majority AND every noted holder.
  [[nodiscard]] bool slot_settled(const op_slot& s) const;

  const protocol_policy pol_;
  const process_id self_;
  const std::uint32_t n_;
  storage::stable_store& store_;

  // Volatile state (lost on crash). Per-register replica state lives in a
  // flat hash map: steady-state lookups and updates of a warm key set are
  // allocation-free, preserving the simulator's zero-allocation hot path.
  flat_hash_map<register_id, replica_slot, reg_hash> replicas_;
  std::int64_t rec_ = 0;    // recovery counter (paper Fig. 5: rec)
  std::int64_t wsn_ = 0;    // local write counter (single-writer variants)
  client_state cl_;
  flat_hash_map<std::uint64_t, pending_log, token_hash> pending_logs_;
  std::vector<deferred_ack> deferred_acks_;
  /// (writing) records whose write has settled at a majority: dead weight
  /// for recovery, erased via the NEXT pre-log's store_and_obsolete batch.
  /// Volatile by design — losing the list merely delays compaction, never
  /// correctness. Only populated under write_query_round policies: a
  /// single-writer core re-derives its counter from these records at
  /// recovery, so there they must outlive the write (see invoke_write).
  std::vector<storage::record_key> obsolete_prelogs_;
  // ---- Read-lease state ----
  /// Grantor side: who may be serving each register locally. Mirrors the
  /// durable (lease) records; restored from them on recovery (with fresh
  /// expiry timers), so a grantor crash never forgets a holder early.
  struct grantor_lease {
    std::uint64_t holder_mask = 0;
    /// Holder bits covered by a COMPLETED (lease) store. A re-grant whose
    /// bit is already durable is acked immediately — the stable record
    /// already prevents resurrection, so there is nothing to wait for.
    std::uint64_t durable_mask = 0;
    std::uint64_t expiry_token = 0;  // latest timer wins; stale ones no-op
    /// A grant arrived while the expiry clock was already running: instead
    /// of stacking a second timer, the running one re-arms for a fresh full
    /// duration when it fires. Only ever extends the record's life — the
    /// safe direction for a grantor (holders' own clocks are never moved).
    bool rearm = false;
  };
  flat_hash_map<register_id, grantor_lease, reg_hash> granted_;
  /// Holder side: registers this process serves locally, mapped to the
  /// grant's expiry token. Volatile ONLY — crash() clears it and recovery
  /// never restores it; that is the incarnation binding.
  flat_hash_map<register_id, std::uint64_t, reg_hash> holdings_;
  /// Quorum-read miss counts driving the hot-key threshold.
  flat_hash_map<register_id, std::uint32_t, reg_hash> read_heat_;
  /// Live lease-expiry tokens -> what they expire.
  struct lease_timer_target {
    register_id reg = default_register;
    bool grantor = false;
  };
  flat_hash_map<std::uint64_t, lease_timer_target, token_hash> lease_tokens_;
  branch_stats branches_;
  std::uint64_t op_counter_ = 0;
  std::uint64_t next_token_ = 1;
  std::uint64_t epoch_ = 0;
  bool up_ = true;
  bool ready_ = true;
  bool started_ = false;
};

}  // namespace remus::proto
