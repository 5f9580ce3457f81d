// shard_router: the composition layer above cluster — a sharded register
// namespace served by S *independent* quorum groups, reconfigurable online.
//
// The paper's emulation (and core::cluster) serves its whole namespace from
// one majority cluster, so capacity is capped by a single quorum's
// throughput. The router consistently hashes every register_id onto one of S
// clusters (hash_ring.h) and exposes the same keyed API; because
// linearizability is compositional per register and every register lives on
// exactly one shard, the sharded namespace is atomic as long as each shard's
// quorum emulation is — exactly what history::check_atomicity_per_key
// verifies on the merged history. This is the "compose crash-recovery
// building blocks into larger services" direction of Kozhaya et al., "You
// Only Live Multiple Times".
//
// Independence is total: each shard has its own n processes, protocol cores,
// stable-storage namespace, network/disk models, fault schedule, and event
// queue. No message, log record, or timer ever crosses a shard. The router
// contributes exactly four things:
//
//   * routing     — shard_of(reg) via the seed-independent hash ring;
//   * scheduling  — run_until_idle()/run_for() advance all S event queues in
//     merged virtual-time order (lockstep windows bounded by each queue's
//     next_event_time()), so the shards share one global clock and the
//     merged history's timestamps are comparable across shards;
//   * merging     — a batch over keys of several shards splits into one
//     sub-batch per shard (one quorum round per phase *per shard touched*),
//     completes when every sub-batch has, and reassembles per-key results in
//     the caller's original key order. Histories and tagged operations merge
//     with shard s's processes renumbered to s*n .. s*n+n-1 (global ids), so
//     cross-shard process identities never collide;
//   * reconfiguration — begin_add_shard()/finish_add_shard() grow the ring
//     S -> S+1 *while serving*, migrating the ~1/(S+1) moved keys online.
//
// # The migration window (dual-ring discipline)
//
// begin_add_shard() spins up shard S, stamps a new ring snapshot at
// epoch + 1, and computes hash_ring::diff(old, new) — the exact set of ring
// arcs (hence keys) whose owner changed, always old-shard -> new-shard.
// Until finish_add_shard(), a moved key is in one of two states:
//
//   un-migrated — the OLD shard stays authoritative. Reads route to it (and,
//     once the quorum read completes, its freshest (tag, value) is written
//     back durably onto the NEW shard via cluster::import_register — the
//     paper's two-phase read discipline stretched across shards: return only
//     what is anchored at a destination majority too, so a wholesale source
//     loss cannot roll the register back past anything already served).
//     Writes *hand the key off*: cluster::export_register snapshots the old
//     group's state (freshest written tag/value plus any pre-logged
//     unfinished write), import_register installs it durably at all n
//     destination processes, the source's records are evicted, and only then
//     is the write submitted to the new shard — whose sequence-number query
//     now sees the imported tag, so post-migration tags strictly dominate
//     pre-migration ones and per-key tag order survives the epoch change.
//   migrated — the NEW shard is authoritative; everything routes there.
//
// Handoff only happens at a *quiet point*: if the old shard still has
// in-flight operations on the key (tracked per key from the moment the
// window opens), writes keep routing to the old shard and the key is left
// for the drain. A background drain pump — driven off the same merged
// event-queue loop, a few keys per lockstep round — migrates the remaining
// moved keys (worklist built from the old shards' stable storage at window
// open, ascending key order, deterministically rate-limited), so the window
// closes even for keys the workload never writes. finish_add_shard()
// requires the worklist drained and retires the old ring.
//
// Atomicity across the reconfiguration is compositional again, but with one
// extra obligation the window discharges: for each moved key there is a
// single instant (its handoff) before which every completed operation
// executed on the old group and after which every one executes on the new
// group, and the handoff transfers a tag at least as large as any completed
// operation's. The merged two-epoch history therefore still passes
// history::check_atomicity_per_key unchanged — that is the acceptance oracle
// (shard_router_test's ShardRouterMigration cases, among them
// OpenWorkloadAcrossWindowLosesNothing, and the chaos tests assert it).
//
// Typical use:
//
//   core::shard_router_config cfg;
//   cfg.shards = 2;
//   cfg.base.n = 3;
//   core::shard_router r(cfg);
//   r.write(process_id{0}, /*reg=*/7, value_of_u32(1));
//   r.begin_add_shard();              // epoch+1 ring, window opens
//   r.write(process_id{0}, 7, value_of_u32(2));   // may hand 7 off
//   r.run_until_idle();               // drain pump migrates the rest
//   r.finish_add_shard();             // old ring retired
//   auto verdict = history::check_persistent_atomicity_per_key(r.events());
//
// Determinism: a run is a pure function of (shard_router_config, submitted
// workload, reconfiguration calls) — the migration schedule included
// (shard_router_test pins this). Key placement is additionally
// seed-independent (see hash_ring).
//
// # Parallel execution (cfg.workers)
//
// Because independence is total, the S event queues can be advanced by a
// worker pool (sim::worker_pool) instead of one thread — same histories,
// more cores. The discipline is *window barriers*: workers only ever run
// disjoint shards between two synchronization points, and every piece of
// cross-shard work (routing, handoff export/import/evict, drain pumping,
// write-backs, result merging) happens on the calling thread between
// run_indexed calls. Concretely:
//
//   * no window open — shards share nothing, so each drains its own queue
//     to idle in budgeted chunks with barriers only at budget checks;
//   * window open — the classic merged-virtual-time lockstep loop runs
//     unchanged, except the per-window "advance every shard to the target"
//     step fans out over the pool; pump_migration() runs at the barrier.
//
// Worker count is invisible to results: every scheduling decision (window
// targets, chunk boundaries, pump order) is computed at barriers from state
// that is identical under any worker count, and each shard's execution is a
// pure function of its own inputs. Hence same seed => bit-identical merged
// history, tagged operations, and migration_log at workers = 1, 2, or N —
// tests/parallel_driver_test.cpp pins exactly that. Each cluster asserts the
// confinement contract in debug builds (cluster.h, consumer_guard).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "core/cluster.h"
#include "core/hash_ring.h"
#include "sim/driver.h"

namespace remus::core {

struct shard_router_config {
  /// Number of independent quorum groups (>= 1) at construction. Each has
  /// 64 virtual nodes on the placement ring (see hash_ring.h).
  std::uint32_t shards = 1;
  /// Template for every shard's cluster. Shard s runs `base` with its seed
  /// offset by s times a fixed odd stride, so shards see independent random
  /// streams (jitter, epochs) while the whole router stays reproducible
  /// from base.seed. Shards added by begin_add_shard() follow the same
  /// formula, so a grown router equals a bigger one shard-for-shard.
  cluster_config base;
  /// Simulator worker threads (see "Parallel execution" in the file
  /// comment): 1 = every shard inline on the caller, k > 1 = pool of k
  /// threads advancing disjoint shards between window barriers, 0 = one per
  /// hardware thread.
  /// Any value produces bit-identical results; > 1 buys wall-clock speed
  /// once shard_count() > 1.
  std::uint32_t workers = 1;

  /// Deliberate migration-path bugs, injectable under test only: the
  /// scenario fuzzer's catch-and-minimize acceptance check plants one and
  /// requires the history checkers to reject the run.
  enum class injected_fault : std::uint8_t {
    none = 0,
    /// Handoff evicts the source but skips the destination import: the new
    /// shard answers from ⊥, rolling the key back past completed writes.
    drop_handoff_state = 1,
    /// Window reads skip the cross-shard write-back (the dual-ring read
    /// discipline with its second phase removed).
    skip_read_writeback = 2,
  };
  injected_fault test_fault = injected_fault::none;
};

class shard_router final {
 public:
  using op_handle = std::uint64_t;

  explicit shard_router(shard_router_config cfg);

  // ---- Routing ----
  /// Authoritative owner of `reg` *right now*: the target ring's owner,
  /// except that during a migration window a moved-but-not-yet-handed-off
  /// key still answers from its old shard.
  [[nodiscard]] std::uint32_t shard_of(register_id reg) const noexcept {
    if (migrating_ && delta_.moved(reg) && !is_migrated(reg)) {
      return prev_ring_->shard_of(reg);
    }
    return ring_.shard_of(reg);
  }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// The target topology (epoch-stamped; during a window this is already
  /// the *new* ring).
  [[nodiscard]] const hash_ring& ring() const noexcept { return ring_; }
  /// Direct access to one shard's cluster (faults, metrics, inspection).
  [[nodiscard]] cluster& shard(std::uint32_t s);
  [[nodiscard]] const cluster& shard(std::uint32_t s) const;
  /// Processes per shard (cfg.base.n); global process ids run to
  /// shard_count() * procs_per_shard().
  [[nodiscard]] std::uint32_t procs_per_shard() const noexcept { return cfg_.base.n; }
  /// Global identity of shard `s`'s local process `local` — the renumbering
  /// used by events() and tagged_operations().
  [[nodiscard]] process_id global_process(std::uint32_t s, process_id local) const {
    return process_id{s * cfg_.base.n + local.index};
  }

  // ---- Reconfiguration (live rebalancing) ----
  /// Opens a migration window growing the ring S -> S+1: spins up shard S
  /// (same config template, seed formula above), installs the epoch+1 ring,
  /// and starts routing under the dual-ring discipline described in the
  /// file comment. Returns the new shard's index. Requires no window open
  /// and a crash-recovery policy (handoff carries state through stable
  /// storage, which the crash-stop model lacks).
  std::uint32_t begin_add_shard();
  /// Retires the old ring and closes the window. Requires the moved-key
  /// worklist drained (run the router until migration_drained(); the drain
  /// pump rides the normal scheduling loop).
  void finish_add_shard();
  /// A migration window is open.
  [[nodiscard]] bool migration_active() const noexcept { return migrating_; }
  /// Every moved key handed off and every read write-back applied — i.e.
  /// finish_add_shard() would succeed.
  [[nodiscard]] bool migration_drained() const noexcept {
    return migrating_ && drain_worklist_.empty() && writebacks_.empty();
  }
  /// Keys enumerated for the background drain at window open (moved keys
  /// holding state, plus moved keys with in-flight old-shard operations).
  [[nodiscard]] std::size_t moved_key_count() const noexcept { return moved_total_; }
  /// Keys handed off so far (by write, by drain — not read write-backs).
  [[nodiscard]] std::size_t migrated_key_count() const noexcept { return migrated_total_; }

  /// One entry per migration action, in execution order — the migration
  /// schedule. Deterministic per (config, workload, reconfiguration calls);
  /// the determinism pin compares it across runs.
  struct migration_event {
    /// `lease_drop` entries are companions to a handoff entry for the same
    /// key at the same instant: the source group held read-lease state
    /// (active holdings and/or grantor records) that the eviction dropped —
    /// the old shard must never serve another leased read for the key.
    enum class cause : std::uint8_t { write_handoff, drain, read_writeback, lease_drop };
    register_id reg = default_register;
    std::uint32_t from_shard = 0;
    std::uint32_t to_shard = 0;
    time_ns at = 0;
    cause why = cause::drain;
  };
  [[nodiscard]] const std::vector<migration_event>& migration_log() const noexcept {
    return migration_log_;
  }

  // ---- Workload scheduling (virtual times, >= now()) ----
  //
  // `p` is a *local* process index, 0 .. procs_per_shard()-1: a router-level
  // client enters each shard through that shard's replica p (the classic
  // client-library model — the same logical client appears as a distinct
  // global process per shard, which is sound because well-formedness is
  // per process per shard).
  //
  // Every operation — single-key, batched or synchronous — takes one path:
  // submit() checks the list (non-empty, distinct registers) before routing
  // any key, routes each key under the dual-ring discipline (a write may
  // hand its key off here), hands a list whose keys all land on one shard
  // to that shard unsplit, and otherwise splits it into one cluster
  // operation per shard touched. The op completes when every sub-op has
  // (and, for a window read, once its write-back landed); result().entries
  // is in the caller's key order.
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
  /// Faults are per shard: crash/recover local process `p` of shard `s`.
  /// `style` picks what the crash leaves on the WAL engine's medium.
  void submit_crash(std::uint32_t s, process_id p, time_ns at,
                    crash_style style = crash_style::clean);
  void submit_recover(std::uint32_t s, process_id p, time_ns at);

  // ---- Execution ----
  /// Runs all shards until no events remain anywhere, advancing the S event
  /// queues in merged virtual-time order (and, during a migration window,
  /// pumping the drain between rounds). Returns false if `max_events`
  /// (total across shards) elapsed first.
  bool run_until_idle(std::uint64_t max_events = 50'000'000);
  /// Runs every shard's events with timestamps <= now()+d, then advances all
  /// clocks to now()+d.
  void run_for(time_ns d);

  // ---- Synchronous convenience ----
  /// submit() now, run the op's shard until the op is done
  /// (cluster::run_until_done), then advance the other shards to the same
  /// instant (so sequential cross-shard calls keep a meaningful global
  /// real-time order) and run one pump_migration round. A window read's
  /// write-back is therefore the one every asynchronous read gets: the
  /// (tag, value) the read returned, anchored at the new shard before
  /// read() returns. Throws driver_error if the op can never complete
  /// (dropped or cut short).
  value read(process_id p, register_id reg);
  void write(process_id p, register_id reg, value v);

  // ---- Results & introspection ----
  /// Mirror of cluster::op_result, merged across the op's sub-batches.
  struct op_result {
    bool submitted = false;
    bool completed = false;  // every sub-op completed (incl. any write-back)
    bool dropped = false;    // some sub-op was dropped behind a crash
    bool is_read = false;
    process_id p;  // local client index
    /// One (register, tag, value) per register, in the caller's key order;
    /// set once the sub-op carrying the register completed.
    std::vector<proto::batch_entry> entries;
    time_ns invoked_at = 0;   // min across sub-ops
    time_ns completed_at = 0; // max across sub-ops (and cross-shard write-backs)
  };
  [[nodiscard]] const op_result& result(op_handle h) const;

  /// Merged keyed history, processes renumbered to global ids and events
  /// ordered by the shared virtual clock (history::merge_shard_histories).
  [[nodiscard]] history::history_log events() const;
  /// Merged tagged operations (global process ids) for per-key tag-order
  /// verification.
  [[nodiscard]] std::vector<history::tagged_op> tagged_operations() const;
  /// The shared virtual clock: max over shard clocks (they stay aligned
  /// after every run_* call).
  [[nodiscard]] time_ns now() const;
  /// Total simulator events executed across all shards.
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::size_t events_pending() const;
  [[nodiscard]] const shard_router_config& config() const { return cfg_; }

 private:
  struct sub_op {
    std::uint32_t shard = 0;
    cluster::op_handle h = 0;
  };
  struct routed_op {
    bool is_read = false;
    process_id p;
    std::vector<sub_op> subs;
    /// Original position of each per-key result, in (sub, sub-batch-entry)
    /// flattening order — inverse of the split's grouping by shard; empty
    /// for an op that went to one shard unsplit.
    std::vector<std::uint32_t> original_pos;
    /// Outstanding cross-shard read write-backs gating completion.
    std::uint32_t writebacks_pending = 0;
    time_ns writeback_at = 0;
    /// Lazily (re)built merged view; valid once every sub-op completed.
    mutable op_result merged;
    mutable bool merged_final = false;
  };
  /// A window read routed to an old shard: once the quorum read completes,
  /// its per-key (tag, value) results are imported into the new shard.
  struct pending_writeback {
    std::uint32_t old_shard = 0;
    cluster::op_handle h = 0;
    std::size_t op_index = 0;
    std::vector<register_id> regs;  // the moved keys of this sub-op
  };
  struct reg_hash {
    std::size_t operator()(register_id r) const noexcept {
      return static_cast<std::size_t>(mix_u64(r));
    }
  };

  [[nodiscard]] bool is_migrated(register_id reg) const noexcept {
    return migrated_.find(reg) != nullptr;
  }
  /// Migration-aware routing for one key: returns the shard to submit to.
  /// A write may hand the key off first (at a quiet point); a read never
  /// migrates. *old_routed is set when a moved key still goes to its old
  /// shard: always for a window read, for a write while the old shard is
  /// busy with the key.
  std::uint32_t route_key(register_id reg, bool is_read, bool* old_routed);
  /// True when the old shard has no live operation touching `reg`.
  [[nodiscard]] bool old_shard_quiet(register_id reg);
  /// Records a still-live old-shard op on moved key `reg` (blocks handoff).
  void track_old_op(register_id reg, std::uint32_t shard, cluster::op_handle h);
  void add_to_worklist(register_id reg);
  /// Export-import-evict `reg` from its old to its new owner and flip its
  /// routing. Requires a quiet old shard.
  void handoff_key(register_id reg, migration_event::cause why, time_ns at);
  /// Drain-pump one scheduling round: apply completed read write-backs and
  /// hand off a few quiet worklist keys (drain_keys_per_pump).
  void pump_migration();
  /// Advances every shard's clock to `t` (no-op for shards already there).
  void sync_clocks_to(time_ns t);
  /// The synchronous calls' run: each of op `h`'s shards until its sub-op
  /// is done, then the other shards to the same instant and one
  /// pump_migration round. False (nothing synced) if a sub-op never
  /// completes.
  bool run_until_done(op_handle h);
  void merge_result(const routed_op& op) const;

  shard_router_config cfg_;
  /// Advances disjoint shards between barriers (inline at one worker — see
  /// cfg_.workers). All cross-shard state above is touched only between
  /// run_indexed calls, on the calling thread.
  sim::worker_pool pool_;
  /// Per-shard idle flags for the chunked drain (each worker writes only its
  /// own slot; read after the barrier).
  std::vector<std::uint8_t> idle_scratch_;
  hash_ring ring_;                        // target topology (current epoch)
  std::unique_ptr<hash_ring> prev_ring_;  // retiring topology during a window
  hash_ring::delta delta_;                // ownership changes old -> new
  bool migrating_ = false;
  std::vector<std::unique_ptr<cluster>> shards_;
  std::vector<routed_op> ops_;

  // Migration-window state (empty outside a window).
  flat_hash_map<register_id, bool, reg_hash> migrated_;
  std::vector<register_id> drain_worklist_;  // ascending, not yet handed off
  flat_hash_map<register_id, std::vector<sub_op>, reg_hash> old_inflight_;
  std::vector<pending_writeback> writebacks_;
  std::vector<migration_event> migration_log_;
  std::size_t moved_total_ = 0;
  std::size_t migrated_total_ = 0;
  /// begin_add_shard's in-flight scan starts here: every op before the
  /// watermark is known terminal (ops complete roughly in submission order,
  /// so repeated window opens never re-walk settled history).
  std::size_t scan_from_ = 0;

  // submit() scratch, empty between calls: each entry's shard, and per shard
  // (sized shard_count) a split op's entries, their caller positions and the
  // keys routed to that shard as their old owner.
  std::vector<std::uint32_t> route_shard_;
  std::vector<std::vector<proto::batch_entry>> split_;
  std::vector<std::vector<std::uint32_t>> split_pos_;
  std::vector<std::vector<register_id>> old_routed_;
};

}  // namespace remus::core
