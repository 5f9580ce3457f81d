#include "core/cluster.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.h"
#include "storage/corruption_injector.h"
#include "storage/wal_format.h"

namespace remus::core {

#if !defined(NDEBUG) || defined(REMUS_SINGLE_CONSUMER_CHECKS)
cluster::consumer_guard::consumer_guard(const cluster& c) : c_(c) {
  const std::thread::id me = std::this_thread::get_id();
  std::thread::id expected{};
  if (!c_.consumer_.compare_exchange_strong(expected, me,
                                            std::memory_order_acquire) &&
      expected != me) {
    // Two threads inside one cluster at once: a shard-confinement bug in
    // whoever drives this cluster (see the guard's contract in cluster.h).
    std::fprintf(stderr,
                 "remus: cluster single-consumer violation — a second thread "
                 "entered a cluster another thread is still driving\n");
    std::abort();
  }
  ++c_.consumer_depth_;  // owned by the consumer thread; plain is race-free
}

cluster::consumer_guard::~consumer_guard() {
  if (--c_.consumer_depth_ == 0) {
    c_.consumer_.store(std::thread::id{}, std::memory_order_release);
  }
}
#endif

cluster::cluster(cluster_config cfg)
    : cfg_(std::move(cfg)), net_(cfg_.net, rng(cfg_.seed ^ 0x6e657477ULL)),
      rng_(cfg_.seed) {
  if (cfg_.n == 0) throw driver_error("cluster: n must be >= 1");
  if (!cfg_.policy.coherent()) throw driver_error("cluster: incoherent policy");
  if (cfg_.policy.read_leases && cfg_.n > 64) {
    // Lease notes carry holders as a 64-bit mask.
    throw driver_error("cluster: read leases require n <= 64");
  }
  queue_.set_executor(this);
  nodes_.reserve(cfg_.n);
  all_processes_.reserve(cfg_.n);
  unicast_to_.resize(1);
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    all_processes_.push_back(process_id{i});
    std::unique_ptr<storage::stable_store> st;
    storage::wal_store* wal = nullptr;
    if (cfg_.wal_storage) {
      storage::wal_store_config wc;
      wc.compact_min_bytes = cfg_.wal_compact_min_bytes;
      auto w = std::make_unique<storage::wal_store>(
          std::make_unique<storage::memory_media>(), wc);
      wal = w.get();
      st = std::move(w);
    } else {
      st = std::make_unique<storage::memory_store>();
    }
    nodes_.push_back(
        std::make_unique<node>(*this, process_id{i}, std::move(st), wal, rng_.next_u64()));
    nodes_.back()->host.start();
  }
}

cluster::node::node(cluster& owner, process_id p, std::unique_ptr<storage::stable_store> st,
                    storage::wal_store* w, std::uint64_t epoch)
    : c(owner), self(p), stable(std::move(st)), wal(w),
      host(owner.cfg_.policy, p, owner.cfg_.n, *stable, epoch, *this), disk(owner.cfg_.disk) {}

cluster::node& cluster::node_at(process_id p) {
  if (!p.valid() || p.index >= nodes_.size()) throw driver_error("cluster: bad process id");
  return *nodes_[p.index];
}

const cluster::node& cluster::node_at(process_id p) const {
  if (!p.valid() || p.index >= nodes_.size()) throw driver_error("cluster: bad process id");
  return *nodes_[p.index];
}

cluster::context& cluster::ctx_of(node& nd, proto::exec_context c) {
  return c == proto::exec_context::client ? nd.client_ctx : nd.listener_ctx;
}

bool cluster::is_ready(process_id p) const {
  const node& nd = node_at(p);
  return nd.host.core().ready();
}

proto::quorum_core& cluster::core_of(process_id p) { return node_at(p).host.core(); }

storage::stable_store& cluster::store_of(process_id p) { return *node_at(p).stable; }

storage::wal_store* cluster::wal_of(process_id p) { return node_at(p).wal; }

std::uint64_t cluster::durable_stores(process_id p) const {
  return node_at(p).stable->store_count();
}

// ---- Workload scheduling ----------------------------------------------------

cluster::op_handle cluster::submit(process_id p, bool is_read,
                                   std::vector<proto::batch_entry> entries, time_ns at) {
  const consumer_guard guard(*this);
  (void)node_at(p);  // validate
  if (entries.empty()) throw driver_error("cluster: operation on no register");
  if (!proto::distinct_registers(entries)) {
    throw driver_error("cluster: an operation names a register twice");
  }
  op_result r;
  r.submitted = true;
  r.is_read = is_read;
  r.p = p;
  r.entries = std::move(entries);
  results_.push_back(std::move(r));
  // Grown with results_, so recording a dispatch never allocates.
  if (dispatched_.capacity() < results_.size()) dispatched_.reserve(results_.capacity());
  const op_handle h = results_.size() - 1;
  queue_.schedule_plain(std::max(at, now()), sim::event_kind::op_dispatch, p, h);
  return h;
}

void cluster::submit_crash(process_id p, time_ns at, crash_style style) {
  const consumer_guard guard(*this);
  (void)node_at(p);
  // The style rides in the event's `a` payload (POD tagged-union field).
  queue_.schedule_plain(std::max(at, now()), sim::event_kind::crash, p,
                        static_cast<std::uint64_t>(style));
}

void cluster::submit_recover(process_id p, time_ns at) {
  const consumer_guard guard(*this);
  if (cfg_.policy.crash_stop) {
    throw driver_error("cluster: recovery is impossible in the crash-stop model");
  }
  (void)node_at(p);
  queue_.schedule_plain(std::max(at, now()), sim::event_kind::recover, p);
}

void cluster::apply(const sim::fault_plan& plan, time_ns offset) {
  for (const auto& e : plan.events) {
    if (e.kind == sim::fault_kind::crash) {
      submit_crash(e.target, e.at + offset);
    } else {
      submit_recover(e.target, e.at + offset);
    }
  }
}

// ---- Execution ---------------------------------------------------------------

bool cluster::run_until_idle(std::uint64_t max_events) {
  const consumer_guard guard(*this);
  queue_.run(max_events);
  return queue_.empty();
}

void cluster::run_for(time_ns d) {
  const consumer_guard guard(*this);
  queue_.run_until(now() + d);
}

bool cluster::run_until_done(op_handle h) {
  const consumer_guard guard(*this);
  (void)result(h);  // validate
  while (!results_[h].completed && queue_.step()) {
  }
  return results_[h].completed;
}

value cluster::read(process_id p, register_id reg) {
  const consumer_guard guard(*this);
  const op_handle h = submit_read(p, reg, now());
  if (!run_until_done(h)) throw driver_error("cluster: read did not complete");
  return results_[h].entries[0].val;
}

void cluster::write(process_id p, register_id reg, value v) {
  const consumer_guard guard(*this);
  if (!run_until_done(submit_write(p, reg, std::move(v), now()))) {
    throw driver_error("cluster: write did not complete");
  }
}

const cluster::op_result& cluster::result(op_handle h) const {
  if (h >= results_.size()) throw driver_error("cluster: bad op handle");
  return results_[h];
}

std::vector<history::tagged_op> cluster::tagged_operations() const {
  std::vector<history::tagged_op> out;
  for (const op_result& r : results_) {
    if (!r.completed) continue;
    // One tagged_op per register the operation touched.
    for (const proto::batch_entry& e : r.entries) {
      history::tagged_op op;
      op.is_read = r.is_read;
      op.p = r.p;
      op.reg = e.reg;
      op.applied = e.ts;
      op.val = e.val;
      op.invoked_at = r.invoked_at;
      op.replied_at = r.completed_at;
      out.push_back(std::move(op));
    }
  }
  return out;
}

metrics::op_collector cluster::collect() const {
  metrics::op_collector col;
  for (const op_result& r : results_) {
    if (r.completed) col.add(r.sample);
  }
  return col;
}

std::string cluster::check_history_times() const {
  const consumer_guard guard(*this);
  const history::history_log h = recorder_.events();
  // Each process's invoke/reply events, in history order.
  std::vector<std::vector<const history::event*>> by_process(cfg_.n);
  for (const history::event& e : h) {
    if (e.is_invoke() || e.is_reply()) by_process[e.p.index].push_back(&e);
  }
  std::vector<std::size_t> next(cfg_.n, 0);
  const auto expect = [&](const op_result& r, bool reply, register_id reg,
                          time_ns at) -> std::string {
    const std::vector<const history::event*>& evs = by_process[r.p.index];
    std::size_t& i = next[r.p.index];
    const std::string what = std::string(reply ? "reply" : "invoke") + " of p" +
                             std::to_string(r.p.index) + " k" + std::to_string(reg) +
                             " at " + std::to_string(at);
    if (i == evs.size()) return what + ": missing from the history";
    const history::event& e = *evs[i++];
    if (e.is_reply() != reply || e.reg != reg || e.at != at) {
      return what + ": the history has " + history::to_string(e) + " at " +
             std::to_string(e.at);
    }
    return {};
  };
  for (const op_handle oh : dispatched_) {
    const op_result& r = results_[oh];
    for (const proto::batch_entry& e : r.entries) {
      if (std::string err = expect(r, false, e.reg, r.invoked_at); !err.empty()) return err;
    }
    if (!r.completed) continue;
    for (const proto::batch_entry& e : r.entries) {
      if (std::string err = expect(r, true, e.reg, r.completed_at); !err.empty()) return err;
    }
  }
  for (std::uint32_t p = 0; p < cfg_.n; ++p) {
    if (next[p] != by_process[p].size()) {
      return "p" + std::to_string(p) + ": history event " +
             history::to_string(*by_process[p][next[p]]) + " matches no invoked op";
    }
  }
  return {};
}

// ---- Event dispatch ----------------------------------------------------------

void cluster::execute(sim::sim_event& ev) {
  switch (ev.kind) {
    case sim::event_kind::message:
      deliver_message(ev.target, ev.msg);
      return;
    case sim::event_kind::log_done:
      deliver_log_done(ev.target, ev.a, ev.incarnation);
      return;
    case sim::event_kind::timer:
      deliver_timer(ev.target, ev.a, ev.incarnation);
      return;
    case sim::event_kind::lease_expiry:
      // No busy-context requeue: a deadline must never slip past its virtual
      // time — the fast path's safety rests on holders expiring no later
      // than their grantors' records — and expiry is pure bookkeeping (no
      // I/O, no blocking), so delivering it out-of-band is sound.
      nd_of(ev.target).host.on_lease_expiry(ev.a, ev.incarnation);
      return;
    case sim::event_kind::op_dispatch:
      handle_op_dispatch(ev);
      return;
    case sim::event_kind::crash:
      do_crash(ev.target, ev.a == sim::no_event_arg
                              ? crash_style::clean
                              : static_cast<crash_style>(ev.a));
      return;
    case sim::event_kind::recover:
      do_recover(ev.target);
      return;
    case sim::event_kind::none:
    case sim::event_kind::thunk:
      return;  // thunks run inside the queue; none is an empty slot
  }
}

// ---- Node mechanics ----------------------------------------------------------

void cluster::handle_op_dispatch(const sim::sim_event& ev) {
  node& nd = nd_of(ev.target);
  if (ev.a == sim::no_event_arg) {
    // Redispatch pump armed while the client context was busy; stale after a
    // crash (the queued ops it was pumping were dropped with the client).
    if (ev.incarnation == nd.host.incarnation()) dispatch_next_op(ev.target);
    return;
  }
  nd.op_queue.push_back(pending_invocation{ev.a});
  dispatch_next_op(ev.target);
}

void cluster::dispatch_next_op(process_id p) {
  node& nd = nd_of(p);
  if (!nd.host.core().ready() || !nd.host.core().idle()) return;
  if (nd.active_op || nd.op_queue.empty()) return;
  if (nd.client_ctx.busy_until > now()) {
    queue_.schedule_plain(nd.client_ctx.busy_until, sim::event_kind::op_dispatch, p,
                          sim::no_event_arg, nd.host.incarnation());
    return;
  }

  const pending_invocation inv = nd.op_queue.front();
  nd.op_queue.pop_front();
  nd.client_ctx.busy_until = now() + cfg_.process_step_cost;
  nd.active_op = inv.handle;
  dispatched_.push_back(inv.handle);

  op_result& r = results_[inv.handle];
  r.invoked_at = now();
  // One invoke event per register: each register's projection of the
  // history sees a plain single-register operation.
  for (const proto::batch_entry& e : r.entries) {
    if (r.is_read) {
      recorder_.invoke_read(p, e.reg, now());
    } else {
      recorder_.invoke_write(p, e.reg, e.val, now());
    }
  }
  // Fresh attribution window for this op (its identity is the core's
  // (epoch, op_seq) once invoked; the effects it emits match it).
  nd.attr_messages = 0;
  nd.attr_logs = 0;
  nd.attr_net_bytes = 0;
  nd.host.invoke(r.is_read, r.entries);
}

void cluster::deliver_message(process_id p, const proto::shared_message& mh) {
  node& nd = nd_of(p);
  if (!nd.host.core().is_up()) return;  // dropped at a dead host
  const proto::message& m = *mh;
  // Acks return to the client thread; requests hit the listener thread.
  context& ctx = proto::is_ack_kind(m.kind) ? nd.client_ctx : nd.listener_ctx;
  if (ctx.busy_until > now()) {
    // The owning thread is busy (e.g. blocked on a synchronous store); the
    // message waits in the socket buffer. Requeueing shares the same payload.
    queue_.schedule_message(ctx.busy_until, p, mh);
    return;
  }
  ctx.busy_until = now() + cfg_.process_step_cost;
  nd.host.on_message(m);
}

void cluster::deliver_log_done(process_id p, std::uint64_t token,
                               std::uint64_t incarnation) {
  node& nd = nd_of(p);
  if (!nd.host.live(incarnation)) {
    // The process crashed while the store was in flight: under the
    // conservative durability model the record never hit the platter.
    return;
  }
  if (nd.inflight.empty() || nd.inflight.front().token != token) {
    throw driver_error("cluster: a store completed out of issue order");
  }
  const node::inflight_store& st = nd.inflight.front();
  nd.stable->store_and_obsolete(st.key, st.record, st.obsoletes);  // durability point
  nd.inflight.pop_front();
  nd.host.on_log_done(token, incarnation);
}

void cluster::deliver_timer(process_id p, std::uint64_t token, std::uint64_t incarnation) {
  node& nd = nd_of(p);
  if (!nd.host.live(incarnation)) return;
  context& ctx = nd.client_ctx;
  if (ctx.busy_until > now()) {
    queue_.schedule_plain(ctx.busy_until, sim::event_kind::timer, p, token, incarnation);
    return;
  }
  ctx.busy_until = now() + cfg_.process_step_cost;
  nd.host.on_timer(token, incarnation);
}

void cluster::route_message(process_id from, const std::vector<process_id>& tos,
                            const proto::message& m) {
  route_scratch_.clear();
  net_.route(now(), from, tos, proto::wire_size(m), static_cast<std::uint8_t>(m.kind),
             m.op_seq, m.round, route_scratch_);
  if (route_scratch_.empty()) return;
  // One pooled payload for the whole broadcast; every delivery (and every
  // busy-requeue of one) shares it by refcount.
  proto::shared_message mh = msg_pool_.make(m);
  const std::size_t last = route_scratch_.size() - 1;
  for (std::size_t i = 0; i < last; ++i) {
    queue_.schedule_message(route_scratch_[i].deliver_at, route_scratch_[i].to, mh);
  }
  queue_.schedule_message(route_scratch_[last].deliver_at, route_scratch_[last].to,
                          std::move(mh));
}

// ---- The simulator as a host environment -------------------------------------

void cluster::node::store(proto::log_request& lr, std::uint64_t incarnation) {
  // The piggybacked tombstones ride the same synchronous store; charge
  // their key bytes against the same disk transfer.
  std::size_t size = lr.record.size() + lr.key.encoded_size();
  for (const storage::record_key& k : lr.obsoletes) size += k.encoded_size();
  const time_ns done_at = disk.issue(c.now(), size);
  c.ctx_of(*this, lr.ctx).busy_until = done_at;  // synchronous store blocks its thread
  if (lr.op_seq == 0) {
    c.recovery_stores_ += 1;
  } else if (node* o = c.op_owner(lr.origin, lr.epoch, lr.op_seq)) {
    o->attr_logs += 1;
  }
  // The one copy of the record: it waits here until its log_done applies
  // it, or a crash before done_at tears it (do_crash).
  inflight_store& st = inflight.push_slot();
  st.token = lr.token;
  st.key = lr.key;
  st.record.assign(lr.record.begin(), lr.record.end());
  st.obsoletes.assign(lr.obsoletes.begin(), lr.obsoletes.end());
  st.done_at = done_at;
  c.queue_.schedule_plain(done_at, sim::event_kind::log_done, self, lr.token, incarnation);
}

void cluster::node::broadcast(const proto::message& m) {
  // Acks are never broadcast, so the sender is the op's origin.
  if (node* o = c.op_owner(m.from, m.epoch, m.op_seq)) {
    o->attr_messages += c.cfg_.n;
    o->attr_net_bytes += static_cast<std::uint64_t>(proto::wire_size(m)) * c.cfg_.n;
  }
  c.route_message(self, c.all_processes_, m);
}

void cluster::node::send(process_id to, const proto::message& m) {
  // An ack's cost belongs to the op of its *recipient* (the invoker).
  if (node* o = c.op_owner(proto::is_ack_kind(m.kind) ? to : m.from, m.epoch, m.op_seq)) {
    o->attr_messages += 1;
    o->attr_net_bytes += proto::wire_size(m);
  }
  c.unicast_to_[0] = to;
  c.route_message(self, c.unicast_to_, m);
}

void cluster::node::arm(proto::deadline_kind k, const proto::timer_request& t,
                        std::uint64_t incarnation) {
  c.queue_.schedule_plain(c.now() + t.delay,
                          k == proto::deadline_kind::retransmit
                              ? sim::event_kind::timer
                              : sim::event_kind::lease_expiry,
                          self, t.token, incarnation);
}

void cluster::node::completed(proto::op_outcome& oc) { c.finish_active_op(self, oc); }

void cluster::node::recovered() { c.dispatch_next_op(self); }

void cluster::finish_active_op(process_id p, const proto::op_outcome& oc) {
  node& nd = nd_of(p);
  if (!nd.active_op) return;  // recovery round, not a client op
  const op_handle h = *nd.active_op;

  op_result& r = results_[h];
  r.completed = true;
  r.entries = oc.entries;  // copy-assign: the arguments' buffers are reused
  r.completed_at = now();
  r.sample.is_read = oc.is_read;
  r.sample.latency = now() - r.invoked_at;
  r.sample.causal_logs = oc.causal_logs;
  r.sample.round_trips = oc.round_trips;
  r.sample.total_logs = nd.attr_logs;
  r.sample.messages = nd.attr_messages;
  r.sample.net_bytes = nd.attr_net_bytes;

  // One reply event per register, mirroring the per-register invokes.
  for (const proto::batch_entry& e : r.entries) {
    if (oc.is_read) {
      recorder_.reply_read(p, e.reg, e.val, now());
    } else {
      recorder_.reply_write(p, e.reg, now());
    }
  }
  nd.active_op.reset();
  dispatch_next_op(p);
}

// ---- Register state transfer (shard rebalancing) -----------------------------

cluster::register_snapshot cluster::export_register(register_id reg) const {
  const consumer_guard guard(*this);
  register_snapshot snap;
  snap.reg = reg;
  for (const auto& nd : nodes_) {
    // Stable state survives crashes; read it regardless of up/down.
    if (const auto rec = nd->stable->retrieve(proto::written_key_of(reg))) {
      const auto tv = proto::decode_tagged_value(*rec);
      snap.has_state = true;
      if (snap.written_ts < tv.ts) {
        snap.written_ts = tv.ts;
        snap.written_val = tv.val;
      }
    }
    if (const auto rec = nd->stable->retrieve(proto::writing_key_of(reg))) {
      const auto tv = proto::decode_tagged_value(*rec);
      snap.has_state = true;
      if (snap.pending_ts < tv.ts) {
        snap.pending_ts = tv.ts;
        snap.pending_val = tv.val;
      }
    }
    // Volatile state can run ahead of stable (an adoption whose log is still
    // in flight) — and is all there is under policies that never log.
    const tag vt = nd->host.core().replica_tag(reg);
    if (initial_tag < vt) {
      snap.has_state = true;
      if (snap.written_ts < vt) {
        snap.written_ts = vt;
        snap.written_val = nd->host.core().replica_value(reg);
      }
    }
  }
  snap.has_pending = snap.written_ts < snap.pending_ts;
  if (!snap.has_pending) {
    snap.pending_ts = tag{};
    snap.pending_val = value{};
  }
  return snap;
}

void cluster::import_register(const register_snapshot& snap) {
  const consumer_guard guard(*this);
  if (!snap.has_state) return;
  // Finish a pending write on arrival (the migration plays the role of the
  // source writer's recovery): the installed state is the freshest of the
  // written and pre-logged tags.
  const bool finish_pending = snap.has_pending && snap.written_ts < snap.pending_ts;
  const tag& ts = finish_pending ? snap.pending_ts : snap.written_ts;
  const value& val = finish_pending ? snap.pending_val : snap.written_val;
  if (!(initial_tag < ts)) return;
  const bool log_stable = !cfg_.policy.crash_stop;
  bytes encoded;
  if (log_stable) encoded = proto::encode(proto::tagged_value_record{ts, val});
  for (std::uint32_t i = 0; i < cfg_.n; ++i) {
    node& nd = *nodes_[i];
    if (log_stable) {
      // Adopt-if-newer into the stable store: never regress a record.
      bool newer = true;
      if (const auto rec = nd.stable->retrieve(proto::written_key_of(snap.reg))) {
        newer = proto::decode_tagged_value(*rec).ts < ts;
      }
      if (newer) nd.stable->store(proto::written_key_of(snap.reg), encoded);
      if (snap.has_pending && i == 0) {
        // Re-install the pre-log at one process so a future recovery replays
        // the finish-write round, exactly as on the source group.
        bool prelog_newer = true;
        if (const auto rec = nd.stable->retrieve(proto::writing_key_of(snap.reg))) {
          prelog_newer = proto::decode_tagged_value(*rec).ts < snap.pending_ts;
        }
        if (prelog_newer) {
          nd.stable->store(proto::writing_key_of(snap.reg),
                          proto::encode(proto::tagged_value_record{snap.pending_ts,
                                                                  snap.pending_val}));
        }
      }
    }
    // Crashed cores skip the volatile install: their recovery restores it
    // from the records written above.
    if (nd.host.core().is_up()) nd.host.core().adopt_if_newer(snap.reg, ts, val);
  }
}

std::uint32_t cluster::evict_register(register_id reg) {
  const consumer_guard guard(*this);
  std::uint32_t leases_dropped = 0;
  for (const auto& nd : nodes_) {
    nd->stable->erase(proto::writing_key_of(reg));
    nd->stable->erase(proto::written_key_of(reg));
    // The stable grantor record goes regardless of liveness — a crashed
    // grantor's recovery must not resurrect a lease on a group that no
    // longer owns the register. A live core's evict() already counts its
    // volatile registry entry, so the record only counts when the core is
    // down (it is all the state that remains there).
    const bool live = nd->host.core().is_up();
    const bool had_record =
        static_cast<bool>(nd->stable->retrieve(proto::lease_key_of(reg)));
    nd->stable->erase(proto::lease_key_of(reg));
    if (live) {
      leases_dropped += nd->host.core().evict(reg);
    } else if (had_record) {
      leases_dropped += 1;
    }
  }
  return leases_dropped;
}

void cluster::for_each_register_with_state(
    const std::function<void(register_id)>& fn) const {
  const consumer_guard guard(*this);
  std::vector<register_id> regs;
  for (const auto& nd : nodes_) {
    const auto collect = [&regs](register_id reg, const bytes&) { regs.push_back(reg); };
    nd->stable->for_each(storage::record_area::written, collect);
    nd->stable->for_each(storage::record_area::writing, collect);
    nd->host.core().for_each_register([&regs](register_id reg) { regs.push_back(reg); });
  }
  std::sort(regs.begin(), regs.end());
  regs.erase(std::unique(regs.begin(), regs.end()), regs.end());
  for (const register_id reg : regs) fn(reg);
}

void cluster::do_crash(process_id p, crash_style style) {
  node& nd = nd_of(p);
  if (!nd.up) return;
  nd.up = false;
  nd.host.crash();
  nd.client_ctx.busy_until = 0;
  nd.listener_ctx.busy_until = 0;
  nd.disk.reset(now());
  if (nd.wal != nullptr) {
    // What the dying disk leaves behind. Only the non-durable tail is ever
    // touched: fsync-acked frames are sacred, so recovery's valid prefix
    // always contains every store the protocol was told is durable.
    if (!nd.inflight.empty() && nd.inflight.back().done_at > now()) {
      // Cold path (crash injection): a strictly partial prefix of the
      // newest in-flight store's frame image reached the medium. The image
      // is the record frame plus a tombstone for every obsoleted key other
      // than its own, absent keys included: its length feeds the rng draws
      // below, so it must not depend on what the store would skip.
      const node::inflight_store& st = nd.inflight.back();
      bytes torn;
      storage::append_wal_frame(torn, storage::wal_frame_kind::record, st.key, st.record);
      for (const storage::record_key& k : st.obsoletes) {
        if (k == st.key) continue;
        storage::append_wal_frame(torn, storage::wal_frame_kind::tombstone, k, {});
      }
      torn.resize(rng_.next_below(torn.size()));
      if (style == crash_style::corrupt_tail && !torn.empty() && rng_.chance(0.5)) {
        storage::flip_random_bit_after(torn, rng_, 0);
      }
      nd.wal->inject_tail_bytes(torn);
    }
    if (style == crash_style::corrupt_tail && rng_.chance(0.7)) {
      // Stray garbage past the last durable frame (e.g. a preallocated
      // region the crash never finished framing).
      bytes garbage;
      storage::append_garbage(garbage, rng_, 1 + rng_.next_below(24));
      nd.wal->inject_tail_bytes(garbage);
    }
  }
  nd.inflight.clear();  // the in-flight stores never become durable
  recorder_.crash(p, now());
  if (nd.active_op) {
    // Invoked but unfinished: the op can never complete (recovery does not
    // resume client operations). The history keeps the unmatched invoke —
    // the checkers' crash-recovery criteria allow either effect outcome.
    results_[*nd.active_op].cut_short = true;
  }
  nd.active_op.reset();
  for (const pending_invocation& inv : nd.op_queue) {
    results_[inv.handle].dropped = true;  // never invoked; client vanished
  }
  nd.op_queue.clear();
}

void cluster::do_recover(process_id p) {
  node& nd = nd_of(p);
  if (nd.up) return;
  nd.up = true;
  recorder_.recover(p, now());
  nd.client_ctx.busy_until = now() + cfg_.recovery_read_latency;
  const std::uint64_t inc = nd.host.incarnation();
  // retrieve() of the stable records costs one synchronous disk read. Cold
  // path: the generic-thunk fallback is fine here.
  queue_.schedule_at(now() + cfg_.recovery_read_latency, [this, p, inc] {
    node& nd2 = nd_of(p);
    if (nd2.host.incarnation() != inc) return;  // crashed again meanwhile
    if (nd2.wal != nullptr) {
      // Rebuild the live index from snapshot+log through the checksum
      // scanner; a torn or corrupted tail is discarded here, before the
      // protocol's Recover() reads a single record.
      nd2.wal->reopen();
    }
    nd2.host.recover(rng_.next_u64());
  });
}

}  // namespace remus::core
