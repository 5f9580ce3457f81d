// cluster: the simulated emulation driver — the library's main entry point.
//
// A cluster wires n protocol cores (one per process) to the discrete-event
// world: the fair-lossy network model, one disk model per process, the
// two-execution-context blocking semantics of the paper's implementation
// (client thread + listener thread, section V-A), crash/recovery injection,
// history recording, and per-operation metric attribution.
//
// Typical use:
//
//   core::cluster_config cfg;
//   cfg.n = 5;
//   cfg.policy = proto::persistent_policy();
//   core::cluster c(cfg);
//   auto w = c.submit_write(process_id{0}, value_of_u32(7), 0);
//   auto r = c.submit_read(process_id{1}, 2_ms);
//   c.run_until_idle();
//   assert(c.result(r).completed && value_as_u32(c.result(r).entries[0].val) == 7);
//   auto verdict = history::check_persistent_atomicity(c.events());
//
// Determinism: every run is a pure function of (cluster_config, submitted
// workload); random delays/epochs derive from cfg.seed.
//
// Hot-path discipline: the cluster is the queue's `sim_executor` — simulator
// traffic is typed events, not closures; broadcast payloads are pooled
// refcounted messages shared by all n deliveries; attribution is a few
// counters per process; and effect batches (pooled by each process's
// proto::host), in-flight store records, route buffers and unicast scratch
// are reused, so steady-state execution performs no heap allocation in the
// simulation substrate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/recycling_vector.h"
#include "core/config.h"
#include "history/recorder.h"
#include "history/tag_order.h"
#include "metrics/op_metrics.h"
#include "proto/host.h"
#include "proto/shared_message.h"
#include "sim/disk_model.h"
#include "sim/event_queue.h"
#include "sim/fault_plan.h"
#include "sim/network_model.h"
#include "sim/sim_event.h"
#include "storage/memory_store.h"
#include "storage/wal_store.h"

namespace remus::core {

/// How a crash treats the durable medium (WAL engine only; the map store
/// has no tail to tear). `clean` drops in-flight stores entirely; the
/// paper's conservative model. `corrupt_tail` additionally leaves what a
/// real dying disk leaves: a torn prefix of the in-flight frame, possibly
/// bit-flipped, plus stray garbage after the durable bytes — recovery must
/// stop at the damage and surface only the intact prefix. Durable
/// (fsync-acked) bytes are never touched, so per-key atomicity must hold.
enum class crash_style : std::uint8_t { clean = 0, corrupt_tail = 1 };

class cluster final : private sim::sim_executor {
 public:
  using op_handle = std::uint64_t;

  explicit cluster(cluster_config cfg);

  // ---- Workload scheduling (virtual times, >= now()) ----
  //
  // Submitting never runs the simulation; it enqueues an op_dispatch event
  // and returns a handle valid for the cluster's lifetime. Each process
  // executes one operation at a time (the paper's well-formedness
  // assumption): ops submitted while one is in flight queue behind it, and
  // ops queued at a crashed process are dropped (result().dropped).
  op_handle submit_write(process_id p, value v, time_ns at) {
    return submit_write(p, default_register, std::move(v), at);
  }
  op_handle submit_read(process_id p, time_ns at) {
    return submit_read(p, default_register, at);
  }
  /// The one operation: a read or a write of `entries`, a non-empty list of
  /// distinct registers (a write's entries carry their values; tags are
  /// ignored), one quorum round per phase for the whole list (see
  /// proto/quorum_core.h for the durability invariants an acked write
  /// satisfies). The reply carries one (tag, value) entry per register; the
  /// history records one invoke/reply pair per register so per-key
  /// projections stay well-formed. Throws driver_error, recording and
  /// scheduling nothing, on an empty list or a repeated register.
  op_handle submit(process_id p, bool is_read, std::vector<proto::batch_entry> entries,
                   time_ns at);
  /// Wrappers that build submit's list: a single-key op is a list of one.
  op_handle submit_write(process_id p, register_id reg, value v, time_ns at) {
    return submit(p, /*is_read=*/false, proto::single_entry(reg, std::move(v)), at);
  }
  op_handle submit_read(process_id p, register_id reg, time_ns at) {
    return submit(p, /*is_read=*/true, proto::single_entry(reg), at);
  }
  op_handle submit_write_batch(process_id p, std::vector<proto::write_op> ops, time_ns at) {
    return submit(p, /*is_read=*/false, proto::write_entries(std::move(ops)), at);
  }
  op_handle submit_read_batch(process_id p, std::vector<register_id> regs, time_ns at) {
    return submit(p, /*is_read=*/true, proto::read_entries(regs), at);
  }
  /// Crash at `at`: the process loses all volatile state (pending ops cut
  /// short, queued ops dropped) and keeps only stable storage. `style`
  /// picks what the crash leaves on the WAL engine's medium (no effect on
  /// the map store).
  void submit_crash(process_id p, time_ns at,
                    crash_style style = crash_style::clean);
  /// Recovery at `at`: runs the policy's Recover() procedure; the process
  /// accepts new invocations only once recovery completes (is_ready()).
  void submit_recover(process_id p, time_ns at);
  /// Schedules every event of `plan`, shifted by `offset`.
  void apply(const sim::fault_plan& plan, time_ns offset = 0);

  // ---- Execution ----
  /// Runs until no events remain. Returns false if `max_events` elapsed
  /// first (e.g. a majority is down forever and retransmission never ends).
  bool run_until_idle(std::uint64_t max_events = 50'000'000);
  /// Runs events with timestamps <= now()+d, then advances the clock.
  void run_for(time_ns d);
  /// Runs events one at a time until op `h` completes or no event remains;
  /// returns whether it completed (a dropped or cut-short op never does).
  /// The synchronous calls below, and the shard router's, are a submit plus
  /// this.
  bool run_until_done(op_handle h);

  // ---- Synchronous convenience (submit now + run_until_done) ----
  value read(process_id p) { return read(p, default_register); }
  void write(process_id p, value v) { write(p, default_register, std::move(v)); }
  value read(process_id p, register_id reg);
  void write(process_id p, register_id reg, value v);

  // ---- Results & introspection ----
  struct op_result {
    bool submitted = false;
    bool completed = false;
    bool dropped = false;    // queued behind a crash, never invoked
    bool cut_short = false;  // invoked, then the process crashed mid-flight
    bool is_read = false;
    process_id p;
    /// One entry per register, in submission order: a write's (register,
    /// value) arguments or a read's registers. On completion each entry
    /// holds the tag applied or returned, and a read's entry the value read.
    std::vector<proto::batch_entry> entries;
    time_ns invoked_at = 0;  // set at invocation, so a cut-short op has it too
    time_ns completed_at = 0;
    metrics::op_sample sample;
  };
  [[nodiscard]] const op_result& result(op_handle h) const;
  [[nodiscard]] history::history_log events() const { return recorder_.events(); }
  /// Completed operations with their applied tags, for Lemma-1 style
  /// tag-order verification (history::check_tag_order).
  [[nodiscard]] std::vector<history::tagged_op> tagged_operations() const;
  [[nodiscard]] metrics::op_collector collect() const;
  /// One execution, one set of times: each process's invoke and reply
  /// events in events() are exactly its invoked ops' invoked_at and
  /// completed_at, in dispatch order — one pair per register of a multi-key
  /// op, and only the invokes of a cut-short one. Returns an empty string
  /// when they are, else the first difference.
  [[nodiscard]] std::string check_history_times() const;
  [[nodiscard]] time_ns now() const { return queue_.now(); }
  /// Total simulator events executed so far (throughput accounting).
  [[nodiscard]] std::uint64_t events_executed() const { return queue_.executed(); }
  /// Events currently scheduled (includes not-yet-fired stale timers).
  [[nodiscard]] std::size_t events_pending() const { return queue_.pending(); }
  /// Lower bound on the next scheduled event's virtual time (time_ns's max
  /// when idle); exact for imminent events. The shard router steps
  /// independent clusters in merged order of these bounds.
  [[nodiscard]] time_ns next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::uint32_t size() const { return cfg_.n; }
  [[nodiscard]] const cluster_config& config() const { return cfg_; }
  [[nodiscard]] bool is_up(process_id p) const { return node_at(p).up; }
  [[nodiscard]] bool is_ready(process_id p) const;
  [[nodiscard]] proto::quorum_core& core_of(process_id p);
  [[nodiscard]] storage::stable_store& store_of(process_id p);
  /// The WAL engine behind `p`'s stable store, or nullptr when the cluster
  /// runs the plain map store (cfg.wal_storage == false). Corruption tests
  /// reach the raw log image through this.
  [[nodiscard]] storage::wal_store* wal_of(process_id p);
  [[nodiscard]] sim::network_model& network() { return net_; }
  /// Durable stable-storage writes per process (metrics).
  [[nodiscard]] std::uint64_t durable_stores(process_id p) const;
  /// Stores performed by recovery procedures (not attributed to any op).
  [[nodiscard]] std::uint64_t recovery_stores() const { return recovery_stores_; }
  /// Terminal state of an op: it completed, or it can never complete (queued
  /// op dropped behind a crash, or invoked op cut short by one). The shard
  /// router's migration waits on this before handing a key's state off.
  [[nodiscard]] bool op_terminal(op_handle h) const {
    const op_result& r = result(h);
    return r.completed || r.dropped || r.cut_short;
  }

  // ---- Register state transfer (shard rebalancing) ----
  //
  // The shard router moves a register between quorum groups by snapshotting
  // its state here and installing it there — an out-of-band transfer through
  // stable storage, not a protocol round (the router guarantees no operation
  // on the register is in flight on this cluster while it runs; see
  // shard_router.h for the window discipline that makes that sound).

  struct register_snapshot {
    register_id reg = default_register;
    /// Some process held state for the register (stable or volatile).
    bool has_state = false;
    /// Freshest (tag, value) any process holds — the max over every stable
    /// (written) record and every volatile replica slot. At least as fresh
    /// as the latest completed write (which is durable at a majority).
    tag written_ts;
    value written_val;
    /// Freshest pre-logged-but-unfinished write, when strictly newer than
    /// written_ts: a (writing) record whose round 2 never completed. The
    /// import finishes it, exactly like the source's own recovery would.
    bool has_pending = false;
    tag pending_ts;
    value pending_val;
  };

  /// Snapshot `reg`'s state across every process (up or crashed — stable
  /// storage survives crashes by definition). Read-only.
  [[nodiscard]] register_snapshot export_register(register_id reg) const;
  /// Install `snap` durably at EVERY process: (written) records adopt-if-
  /// newer in each stable store, live cores adopt volatile state (crashed
  /// ones restore it from the store on recovery). All n copies >= a
  /// majority, so an import is the two-phase read discipline's write-back
  /// round performed on the destination group. A pending write is finished
  /// (adopted as written) and its pre-log re-installed, mirroring Fig. 4's
  /// recovery. Idempotent; tags only advance.
  void import_register(const register_snapshot& snap);
  /// Drop `reg`'s state everywhere: volatile slots on live cores and the
  /// (writing)/(written)/(lease) records in every stable store. Called on
  /// the *source* group once the destination durably imported, so a later
  /// recovery here cannot resurrect a register this group stopped owning.
  /// Returns the number of lease-state entries (holdings and grantor
  /// records) dropped across the group — leases never survive a handoff,
  /// and the router records a nonzero drop in its migration log.
  std::uint32_t evict_register(register_id reg);
  /// Enumerate every register some process holds state for (stable records
  /// or volatile slots), deduplicated, ascending. Migration worklists.
  void for_each_register_with_state(const std::function<void(register_id)>& fn) const;

 private:
  struct context {
    time_ns busy_until = 0;
  };

  struct pending_invocation {
    op_handle handle = 0;
    // The registers (and a write's values) are read from
    // results_[handle].entries at invoke time — no per-invocation copy.
  };

  /// One simulated process, and the environment its host executes effects
  /// in: the disk model, the network model and the event queue's clock.
  struct node final : proto::host_env {
    node(cluster& owner, process_id p, std::unique_ptr<storage::stable_store> st,
         storage::wal_store* w, std::uint64_t epoch);

    void store(proto::log_request& lr, std::uint64_t incarnation) override;
    void send(process_id to, const proto::message& m) override;
    void broadcast(const proto::message& m) override;
    void arm(proto::deadline_kind k, const proto::timer_request& t,
             std::uint64_t incarnation) override;
    void completed(proto::op_outcome& oc) override;
    void recovered() override;

    cluster& c;
    const process_id self;
    std::unique_ptr<storage::stable_store> stable;
    /// Non-null iff `stable` is the WAL engine (cfg.wal_storage).
    storage::wal_store* wal = nullptr;
    proto::host host;
    sim::disk_model disk;
    /// A store issued to the disk and not yet durable: what its log_done
    /// event (which names only the token) applies to the stable store.
    struct inflight_store {
      std::uint64_t token = 0;
      storage::record_key key{};
      bytes record;
      std::vector<storage::record_key> obsoletes;
      time_ns done_at = 0;
    };
    /// In-flight stores, oldest first. The disk model completes a node's
    /// stores in issue order, so each live log_done applies the front; a
    /// crash empties the FIFO, and a completion for a dead incarnation
    /// never touches it. The newest entry is also what a crash before its
    /// `done_at` tears (WAL engine: do_crash frames it only then). Entries
    /// keep their buffers' capacity across stores.
    recycling_fifo<inflight_store> inflight;
    context client_ctx;
    context listener_ctx;
    bool up = true;  // the process is up, its core possibly still recovering
    std::deque<pending_invocation> op_queue;
    std::optional<op_handle> active_op;
    /// Metric attribution for the active op. Effects carry their op's
    /// (origin, epoch, seq) identity; counts for the origin's in-flight op
    /// land here, and anything else (stale retransmissions, recovery
    /// rounds) is unattributed — exactly what the per-op samples report,
    /// since a sample freezes at completion. This keeps attribution O(1)
    /// with no per-op map entry.
    std::uint32_t attr_messages = 0;
    std::uint32_t attr_logs = 0;
    std::uint64_t attr_net_bytes = 0;
  };

  [[nodiscard]] node& node_at(process_id p);
  [[nodiscard]] const node& node_at(process_id p) const;
  /// Unchecked access for event handlers: targets were validated when the
  /// event was submitted (node_at keeps the checks for the public surface).
  [[nodiscard]] node& nd_of(process_id p) noexcept { return *nodes_[p.index]; }
  context& ctx_of(node& nd, proto::exec_context c);

  void execute(sim::sim_event& ev) override;
  void handle_op_dispatch(const sim::sim_event& ev);
  void dispatch_next_op(process_id p);
  void deliver_message(process_id p, const proto::shared_message& mh);
  void deliver_log_done(process_id p, std::uint64_t token, std::uint64_t incarnation);
  void deliver_timer(process_id p, std::uint64_t token, std::uint64_t incarnation);
  void route_message(process_id from, const std::vector<process_id>& tos,
                     const proto::message& m);
  void do_crash(process_id p, crash_style style);
  void do_recover(process_id p);
  void finish_active_op(process_id p, const proto::op_outcome& oc);
  /// The node whose active op is (origin, epoch, seq), which an effect's
  /// cost is counted against; nullptr for stale traffic and recovery.
  node* op_owner(process_id origin, std::uint64_t epoch, std::uint64_t op_seq) {
    if (!origin.valid() || op_seq == 0) return nullptr;
    node& o = nd_of(origin);
    const proto::quorum_core& core = o.host.core();
    const bool active = o.active_op && core.current_op_seq() == op_seq &&
                        core.current_epoch() == epoch;
    return active ? &o : nullptr;
  }

  cluster_config cfg_;
  // The pool must outlive the queue: queued events hold message handles that
  // recycle into the pool when dropped (members destroy in reverse order).
  proto::message_pool msg_pool_;
  sim::event_queue queue_;
  sim::network_model net_;
  rng rng_;
  std::vector<std::unique_ptr<node>> nodes_;
  history::recorder recorder_;
  std::vector<op_result> results_;
  /// Invoked ops, in dispatch order (check_history_times).
  std::vector<op_handle> dispatched_;
  std::uint64_t recovery_stores_ = 0;

  // Single-consumer guard. A cluster is *shard-confined*: exactly one thread
  // may be inside its public surface at a time, but ownership may migrate —
  // the parallel shard driver hands a shard to a different worker each
  // window, with the barrier's release/acquire ordering making the handoff
  // race-free. Debug builds (and -DREMUS_SINGLE_CONSUMER_CHECKS, which the
  // TSan CI job sets so the RelWithDebInfo build keeps the checks) verify
  // the contract at every entry point: a second thread entering while one is
  // inside aborts with a diagnostic. Reentrant calls on the owning thread
  // nest (sync read/write re-enter the stepping path).
#if !defined(NDEBUG) || defined(REMUS_SINGLE_CONSUMER_CHECKS)
  struct consumer_guard {
    explicit consumer_guard(const cluster& c);
    ~consumer_guard();
    consumer_guard(const consumer_guard&) = delete;
    consumer_guard& operator=(const consumer_guard&) = delete;
    const cluster& c_;
  };
  mutable std::atomic<std::thread::id> consumer_{};
  mutable std::uint32_t consumer_depth_ = 0;
#else
  struct consumer_guard {
    explicit consumer_guard(const cluster&) {}
  };
#endif

  // Hot-path scratch (shard-confined like the cluster itself: only the
  // current consumer thread touches these, and none cross a reentrant call).
  std::vector<process_id> all_processes_;
  std::vector<process_id> unicast_to_;
  std::vector<sim::delivery> route_scratch_;
};

}  // namespace remus::core
