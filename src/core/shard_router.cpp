#include "core/shard_router.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.h"
#include "history/keyed.h"

namespace remus::core {

namespace {
constexpr time_ns no_time = std::numeric_limits<time_ns>::max();
/// Lockstep window: after every scheduling round all shard clocks sit on a
/// common boundary at most this far past the earliest pending event. Small
/// enough that cross-shard timestamps stay comparable at protocol
/// granularity, large enough that a round retires a whole message exchange.
constexpr time_ns lockstep_window = 100 * 1000;  // 100 us
/// Chunk of the no-window drain fast path: events one shard runs between two
/// budget-check barriers. Big enough that barrier cost vanishes (tens of ms
/// of simulation per chunk), small enough that max_events stays enforced at
/// useful granularity.
constexpr std::uint64_t drain_chunk_events = 1u << 18;

/// Virtual nodes per shard on the placement ring.
constexpr std::uint32_t ring_vnodes = 64;
/// Background-drain rate while a migration window is open: moved keys
/// handed off per scheduling round. Lower stretches the window; higher
/// converges faster but bursts import work.
constexpr std::uint32_t drain_keys_per_pump = 4;

/// Shard s's cluster config: the template with an independent seed.
cluster_config shard_config(const cluster_config& base, std::uint32_t s) {
  cluster_config cfg = base;
  cfg.seed = base.seed + s * 0x9e3779b97f4a7c15ULL;
  return cfg;
}

std::uint32_t resolve_workers(std::uint32_t workers) {
  if (workers != 0) return workers;
  return std::max(1u, std::thread::hardware_concurrency());
}
}  // namespace

shard_router::shard_router(shard_router_config cfg)
    : cfg_(std::move(cfg)),
      pool_(resolve_workers(cfg_.workers)),
      ring_(cfg_.shards, ring_vnodes, /*epoch=*/0) {
  // (shards == 0 already rejected by ring_'s constructor.)
  shards_.reserve(cfg_.shards);
  split_.resize(cfg_.shards);
  split_pos_.resize(cfg_.shards);
  old_routed_.resize(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<cluster>(shard_config(cfg_.base, s)));
  }
}

cluster& shard_router::shard(std::uint32_t s) {
  if (s >= shards_.size()) throw driver_error("shard_router: bad shard index");
  return *shards_[s];
}

const cluster& shard_router::shard(std::uint32_t s) const {
  if (s >= shards_.size()) throw driver_error("shard_router: bad shard index");
  return *shards_[s];
}

// ---- Reconfiguration ---------------------------------------------------------

std::uint32_t shard_router::begin_add_shard() {
  if (migrating_) {
    throw driver_error("shard_router: a migration window is already open");
  }
  if (cfg_.base.policy.crash_stop) {
    // Handoff transfers a key's state through stable storage, which the
    // crash-stop model does not have: a completed write whose adopters all
    // crash-stop leaves nothing for export_register to find, so migrating
    // would convert the old shard's (legal) unavailability into a rollback
    // served by the new shard. Reconfiguration is a crash-recovery feature.
    throw driver_error(
        "shard_router: live rebalancing requires a crash-recovery policy "
        "(stable storage carries the migrated state)");
  }
  const std::uint32_t s = shard_count();

  // Spin up shard S with the same seed formula construction uses, so a
  // grown router is shard-for-shard identical to one built at S+1.
  shards_.push_back(std::make_unique<cluster>(shard_config(cfg_.base, s)));
  shards_.back()->run_for(now());  // align the newborn's clock to the fleet
  split_.resize(s + 1);
  split_pos_.resize(s + 1);
  old_routed_.resize(s + 1);

  // Install the epoch+1 topology; the retiring ring answers for moved keys
  // until their handoff.
  prev_ring_ = std::make_unique<hash_ring>(ring_);
  ring_ = prev_ring_->grow(s);
  delta_ = hash_ring::diff(*prev_ring_, ring_);
  migrating_ = true;
  cfg_.shards = s + 1;
  migrated_.clear();
  migrated_total_ = 0;

  // Drain worklist: every moved key holding state on its old shard. Keys
  // the workload writes migrate themselves; the pump moves the rest.
  drain_worklist_.clear();
  for (std::uint32_t sh = 0; sh < s; ++sh) {
    shards_[sh]->for_each_register_with_state([&](register_id reg) {
      if (delta_.moved(reg) && prev_ring_->shard_of(reg) == sh) {
        drain_worklist_.push_back(reg);
      }
    });
  }
  std::sort(drain_worklist_.begin(), drain_worklist_.end());
  drain_worklist_.erase(std::unique(drain_worklist_.begin(), drain_worklist_.end()),
                        drain_worklist_.end());

  // Operations already routed to an old shard and still live block their
  // keys' handoff until they settle (the quiet-point rule). The watermark
  // skips the all-terminal prefix so repeated window opens on a long-lived
  // router do not re-walk history that cannot contain live ops (completion
  // is roughly in submission order, so the prefix advances steadily).
  while (scan_from_ < ops_.size()) {
    const routed_op& op = ops_[scan_from_];
    bool terminal = true;
    for (const sub_op& so : op.subs) {
      if (!shards_[so.shard]->op_terminal(so.h)) terminal = false;
    }
    if (!terminal || op.writebacks_pending > 0) break;
    ++scan_from_;
  }
  for (std::size_t i = scan_from_; i < ops_.size(); ++i) {
    const routed_op& op = ops_[i];
    for (const sub_op& so : op.subs) {
      cluster& c = *shards_[so.shard];
      if (c.op_terminal(so.h)) continue;
      const cluster::op_result& res = c.result(so.h);
      const auto consider = [&](register_id reg) {
        if (!delta_.moved(reg) || prev_ring_->shard_of(reg) != so.shard) return;
        track_old_op(reg, so.shard, so.h);
        add_to_worklist(reg);
      };
      for (const proto::batch_entry& e : res.entries) consider(e.reg);
    }
  }
  moved_total_ = drain_worklist_.size();
  return s;
}

void shard_router::finish_add_shard() {
  if (!migrating_) throw driver_error("shard_router: no migration window open");
  if (!migration_drained()) {
    throw driver_error(
        "shard_router: migration window not drained — run the router until "
        "migration_drained() before finish_add_shard()");
  }
  migrating_ = false;
  prev_ring_.reset();
  delta_ = hash_ring::delta{};
  migrated_.clear();
  old_inflight_.clear();
}

bool shard_router::old_shard_quiet(register_id reg) {
  std::vector<sub_op>* live = old_inflight_.find(reg);
  if (live == nullptr) return true;
  for (const sub_op& so : *live) {
    if (!shards_[so.shard]->op_terminal(so.h)) return false;
  }
  old_inflight_.erase(reg);
  return true;
}

void shard_router::track_old_op(register_id reg, std::uint32_t shard,
                                cluster::op_handle h) {
  old_inflight_[reg].push_back({shard, h});
}

void shard_router::add_to_worklist(register_id reg) {
  const auto it =
      std::lower_bound(drain_worklist_.begin(), drain_worklist_.end(), reg);
  if (it != drain_worklist_.end() && *it == reg) return;
  drain_worklist_.insert(it, reg);
  moved_total_ += 1;
}

void shard_router::handoff_key(register_id reg, migration_event::cause why,
                               time_ns at) {
  const std::uint32_t from = prev_ring_->shard_of(reg);
  const std::uint32_t to = ring_.shard_of(reg);
  // A write-handoff can reach a moved key the worklist never enumerated (no
  // state, no in-flight ops at window open); count it so migrated_key_count
  // stays a subset of moved_key_count.
  if (!std::binary_search(drain_worklist_.begin(), drain_worklist_.end(), reg)) {
    moved_total_ += 1;
  }
  // Snapshot the old group's freshest state (written + any pending pre-log),
  // install it durably at every destination process, then strip it from the
  // source so no future source recovery resurrects a key it stopped owning.
  const cluster::register_snapshot snap = shards_[from]->export_register(reg);
  if (cfg_.test_fault != shard_router_config::injected_fault::drop_handoff_state) {
    shards_[to]->import_register(snap);
  }
  const std::uint32_t leases_dropped = shards_[from]->evict_register(reg);
  migrated_[reg] = true;
  migrated_total_ += 1;
  migration_log_.push_back({reg, from, to, at, why});
  if (leases_dropped > 0) {
    // The source group held read-lease state for the key; the eviction just
    // revoked it (holdings, grantor registries, and stable records alike).
    // Record the drop so migration schedules expose it — a leased read
    // served by the old shard after this instant would be a routing bug.
    migration_log_.push_back({reg, from, to, at, migration_event::cause::lease_drop});
  }
}

std::uint32_t shard_router::route_key(register_id reg, bool is_read, bool* old_routed) {
  *old_routed = false;
  if (!migrating_ || !delta_.moved(reg) || is_migrated(reg)) {
    return ring_.shard_of(reg);
  }
  if (!is_read && old_shard_quiet(reg)) {
    // Writes-to-new: hand the key off at this quiet point, then let the
    // write run on the destination — its sequence-number query sees the
    // imported tag, so the new epoch's tags strictly dominate the old's.
    handoff_key(reg, migration_event::cause::write_handoff, now());
    return ring_.shard_of(reg);
  }
  // Reads-from-old: the retiring shard stays authoritative until handoff.
  // A write goes there too while the old shard still has live operations
  // on the key (late handoff — the drain migrates the key at its next
  // quiet point); it creates state there, so the key must be on the drain
  // worklist even if it held nothing at window open.
  if (!is_read) add_to_worklist(reg);
  *old_routed = true;
  return prev_ring_->shard_of(reg);
}

void shard_router::pump_migration() {
  if (!migrating_) return;

  // 1. Read write-backs: once a window read's quorum round on the old shard
  //    completes, anchor its per-key (tag, value) at the new shard before
  //    the router-level operation reports completion.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < writebacks_.size(); ++i) {
    pending_writeback& wb = writebacks_[i];
    cluster& old_sh = *shards_[wb.old_shard];
    if (!old_sh.op_terminal(wb.h)) {
      if (kept != i) writebacks_[kept] = std::move(wb);
      kept += 1;
      continue;
    }
    const cluster::op_result& res = old_sh.result(wb.h);
    if (res.completed) {
      for (const register_id reg : wb.regs) {
        if (is_migrated(reg)) continue;  // handed off meanwhile: already fresh
        cluster::register_snapshot snap;
        snap.reg = reg;
        for (const proto::batch_entry& e : res.entries) {
          if (e.reg != reg) continue;
          snap.has_state = initial_tag < e.ts;
          snap.written_ts = e.ts;
          snap.written_val = e.val;
          break;
        }
        if (!snap.has_state) continue;  // never-written key: nothing to anchor
        if (cfg_.test_fault ==
            shard_router_config::injected_fault::skip_read_writeback) {
          continue;
        }
        const std::uint32_t to = ring_.shard_of(reg);
        shards_[to]->import_register(snap);
        migration_log_.push_back(
            {reg, wb.old_shard, to, now(), migration_event::cause::read_writeback});
      }
    }
    // Dropped / cut-short reads resolve with nothing to write back.
    routed_op& op = ops_[wb.op_index];
    if (op.writebacks_pending > 0) op.writebacks_pending -= 1;
    if (op.writebacks_pending == 0) {
      op.writeback_at = now();
      op.merged_final = false;  // re-merge with the write-back accounted
    }
  }
  writebacks_.resize(kept);

  // 2. Background drain: hand off up to drain_keys_per_pump quiet keys per
  //    scheduling round, ascending key order (deterministic schedule).
  std::uint32_t budget = drain_keys_per_pump;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < drain_worklist_.size(); ++i) {
    const register_id reg = drain_worklist_[i];
    if (is_migrated(reg)) continue;  // a write handed it off already
    if (budget == 0 || !old_shard_quiet(reg)) {
      drain_worklist_[keep++] = reg;
      continue;
    }
    handoff_key(reg, migration_event::cause::drain, now());
    budget -= 1;
  }
  drain_worklist_.resize(keep);
}

// ---- Workload scheduling ----------------------------------------------------

shard_router::op_handle shard_router::submit(process_id p, bool is_read,
                                             std::vector<proto::batch_entry> entries,
                                             time_ns at) {
  if (!p.valid() || p.index >= cfg_.base.n) {
    throw driver_error("shard_router: process id must be a local index < base.n");
  }
  if (entries.empty()) throw driver_error("shard_router: operation on no register");
  // Checked before any key is routed: routing a write's key may hand it off.
  if (!proto::distinct_registers(entries)) {
    throw driver_error("shard_router: an operation names a register twice");
  }
  route_shard_.clear();
  bool one_shard = true;
  for (const proto::batch_entry& e : entries) {
    bool old_routed = false;
    const std::uint32_t s = route_key(e.reg, is_read, &old_routed);
    if (old_routed) old_routed_[s].push_back(e.reg);
    one_shard = one_shard && (route_shard_.empty() || route_shard_.front() == s);
    route_shard_.push_back(s);
  }
  routed_op op;
  op.is_read = is_read;
  op.p = p;
  if (one_shard) {
    // Unsplit: the whole list goes to its shard, already in the caller's
    // order (so a single-key op allocates nothing here).
    const std::uint32_t s = route_shard_.front();
    op.subs.push_back({s, shards_[s]->submit(p, is_read, std::move(entries), at)});
  } else {
    for (std::uint32_t i = 0; i < entries.size(); ++i) {
      split_[route_shard_[i]].push_back(std::move(entries[i]));
      split_pos_[route_shard_[i]].push_back(i);
    }
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      if (split_[s].empty()) continue;
      op.subs.push_back({s, shards_[s]->submit(p, is_read, std::move(split_[s]), at)});
      split_[s].clear();  // moved-from: restore a known state
      op.original_pos.insert(op.original_pos.end(), split_pos_[s].begin(),
                             split_pos_[s].end());
      split_pos_[s].clear();
    }
  }
  // Keys routed to their old shard pin their handoff until their sub-op
  // settles; a read's also owe the new shard a write-back of what it read.
  const op_handle h = ops_.size();
  for (const sub_op& so : op.subs) {
    std::vector<register_id>& regs = old_routed_[so.shard];
    if (regs.empty()) continue;
    for (const register_id reg : regs) track_old_op(reg, so.shard, so.h);
    if (is_read) {
      op.writebacks_pending += 1;
      writebacks_.push_back({so.shard, so.h, h, std::move(regs)});
    }
    regs.clear();
  }
  ops_.push_back(std::move(op));
  return h;
}

void shard_router::submit_crash(std::uint32_t s, process_id p, time_ns at,
                                crash_style style) {
  shard(s).submit_crash(p, at, style);
}

void shard_router::submit_recover(std::uint32_t s, process_id p, time_ns at) {
  shard(s).submit_recover(p, at);
}

// ---- Execution ---------------------------------------------------------------

bool shard_router::run_until_idle(std::uint64_t max_events) {
  const std::uint64_t start = events_executed();
  const auto count = static_cast<std::uint32_t>(shards_.size());
  for (;;) {
    if (!migrating_) {
      // No window open: shards share nothing at all, so each drains its own
      // queue straight to idle — no lockstep, barriers only at budget
      // checks. Chunked so max_events stays enforced; each worker writes
      // only its own idle slot, read after the barrier. Clock alignment is
      // restored by the final sync_clocks_to (mid-run clock skew between
      // independent shards is unobservable).
      idle_scratch_.assign(count, 1);
      pool_.run_indexed(count, [&](std::uint32_t s) {
        if (!shards_[s]->run_until_idle(drain_chunk_events)) idle_scratch_[s] = 0;
      });
      if (events_executed() - start > max_events) return false;
      if (std::find(idle_scratch_.begin(), idle_scratch_.end(), 0) ==
          idle_scratch_.end()) {
        break;
      }
      continue;
    }
    // Merged-order scheduling: find the earliest pending event anywhere,
    // then run *every* shard through a lockstep window covering it. Shards
    // are independent, so intra-window interleaving cannot change any
    // shard's behavior; the window only keeps the clocks aligned — which
    // the migration machinery needs, because handoff timestamps and the
    // drain schedule read the shared clock. The per-window advance fans out
    // over the driver; pump_migration (all cross-shard work) runs at the
    // barrier, where every shard sits on the common boundary.
    time_ns next = no_time;
    for (const auto& s : shards_) next = std::min(next, s->next_event_time());
    if (next == no_time) {
      // Queues drained. With a window open the remaining worklist keys are
      // all quiet now; keep pumping (still budgeted per round) until the
      // drain converges or stalls (a stall is impossible by construction,
      // but guards against an unforeseen live-lock).
      if (!migration_drained()) {
        const std::size_t before = drain_worklist_.size() + writebacks_.size();
        pump_migration();
        if (drain_worklist_.size() + writebacks_.size() < before) continue;
      }
      break;
    }
    const time_ns target = next + lockstep_window;
    pool_.run_indexed(count, [&](std::uint32_t s) {
      cluster& c = *shards_[s];
      if (target > c.now()) c.run_for(target - c.now());
    });
    pump_migration();
    if (events_executed() - start > max_events) return false;
  }
  sync_clocks_to(now());
  return true;
}

void shard_router::run_for(time_ns d) {
  sync_clocks_to(now() + d);
  pump_migration();
}

void shard_router::sync_clocks_to(time_ns t) {
  pool_.run_indexed(static_cast<std::uint32_t>(shards_.size()), [&](std::uint32_t s) {
    cluster& c = *shards_[s];
    if (t > c.now()) c.run_for(t - c.now());
  });
}

bool shard_router::run_until_done(op_handle h) {
  time_ns t = 0;
  for (const sub_op& so : ops_[h].subs) {
    cluster& c = *shards_[so.shard];
    if (!c.run_until_done(so.h)) return false;
    t = std::max(t, c.now());
  }
  sync_clocks_to(t);
  pump_migration();
  return true;
}

value shard_router::read(process_id p, register_id reg) {
  const op_handle h = submit_read(p, reg, now());
  if (!run_until_done(h)) throw driver_error("shard_router: read did not complete");
  // One key, one sub-op: its result is the value (no merged copy needed).
  const sub_op& so = ops_[h].subs.front();
  return shards_[so.shard]->result(so.h).entries[0].val;
}

void shard_router::write(process_id p, register_id reg, value v) {
  if (!run_until_done(submit_write(p, reg, std::move(v), now()))) {
    throw driver_error("shard_router: write did not complete");
  }
}

// ---- Results & introspection -------------------------------------------------

const shard_router::op_result& shard_router::result(op_handle h) const {
  if (h >= ops_.size()) throw driver_error("shard_router: bad op handle");
  const routed_op& op = ops_[h];
  if (!op.merged_final) merge_result(op);
  return op.merged;
}

void shard_router::merge_result(const routed_op& op) const {
  op_result r;
  r.submitted = true;
  r.is_read = op.is_read;
  r.p = op.p;
  r.completed = true;
  r.invoked_at = no_time;
  // A split batch restores the caller's key order from original_pos; an
  // unsplit op has one sub-op, already in that order.
  if (!op.original_pos.empty()) r.entries.resize(op.original_pos.size());
  std::size_t flat = 0;  // position in the grouped-by-shard flattening
  bool all_terminal = true;  // every sub either completed or dropped
  for (const sub_op& so : op.subs) {
    const cluster::op_result& sub = shards_[so.shard]->result(so.h);
    if (sub.dropped) r.dropped = true;
    if (!sub.completed) {
      r.completed = false;
      if (!sub.dropped && !sub.cut_short) all_terminal = false;
    } else {
      r.invoked_at = std::min(r.invoked_at, sub.invoked_at);
      r.completed_at = std::max(r.completed_at, sub.completed_at);
    }
    if (op.original_pos.empty()) {
      r.entries = sub.entries;
      continue;
    }
    for (const proto::batch_entry& e : sub.entries) r.entries[op.original_pos[flat++]] = e;
  }
  // A window read is complete only once its cross-shard write-back landed
  // ("before returning" — the two-phase discipline across shards).
  if (op.writebacks_pending > 0) {
    r.completed = false;
    all_terminal = false;
  } else if (r.completed) {
    r.completed_at = std::max(r.completed_at, op.writeback_at);
  }
  if (r.invoked_at == no_time) r.invoked_at = 0;
  op.merged = std::move(r);
  // Cache only once every sub-op has reached a terminal state: a merge with
  // one sub dropped but another still in flight must keep refreshing, or
  // the in-flight sub-batch's results would freeze as defaults forever.
  op.merged_final = all_terminal;
}

history::history_log shard_router::events() const {
  std::vector<history::history_log> logs;
  logs.reserve(shards_.size());
  for (const auto& s : shards_) logs.push_back(s->events());
  return history::merge_shard_histories(logs, cfg_.base.n);
}

std::vector<history::tagged_op> shard_router::tagged_operations() const {
  std::vector<history::tagged_op> out;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    for (history::tagged_op top : shards_[s]->tagged_operations()) {
      top.p = global_process(s, top.p);
      out.push_back(std::move(top));
    }
  }
  return out;
}

time_ns shard_router::now() const {
  time_ns t = 0;
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

std::uint64_t shard_router::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->events_executed();
  return n;
}

std::size_t shard_router::events_pending() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->events_pending();
  return n;
}

}  // namespace remus::core
