#include "runtime/node.h"

#include <chrono>
#include <utility>

#include "common/error.h"

namespace remus::runtime {
namespace {

std::chrono::nanoseconds ns(time_ns t) { return std::chrono::nanoseconds(t); }

time_ns wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

node::node(proto::protocol_policy pol, process_id self, std::uint32_t n,
           storage::stable_store& store, transport& net, history::recorder& rec,
           node_options opt, std::uint64_t seed)
    : self_(self), n_(n), net_(net), recorder_(rec), opt_(opt),
      rng_(seed ^ (0x6e6f6465ULL + self.index)) {
  core_ = std::make_unique<proto::quorum_core>(std::move(pol), self_, n_, store,
                                               rng_.next_u64());
}

node::~node() {
  if (attached_) net_.detach(self_);
}

void node::start() {
  std::unique_lock lk(mu_);
  proto::outputs out;
  core_->start(out);
  pump(lk, out);
  net_.attach(self_, [this](const proto::message& m) { on_datagram(m); });
  attached_ = true;
}

bool node::is_up() const {
  std::lock_guard lk(mu_);
  return core_->is_up();
}

tag node::replica_tag() const {
  std::lock_guard lk(mu_);
  return core_->replica_tag();
}

void node::on_datagram(const proto::message& m) {
  std::unique_lock lk(mu_);
  if (!core_->is_up()) return;
  proto::outputs out;
  core_->on_message(m, out);
  pump(lk, out);
}

void node::pump(std::unique_lock<std::mutex>& lk, proto::outputs& out) {
  // Sends first (transport has its own locking; its pump thread never holds
  // our mutex while dispatching, so this cannot deadlock).
  for (const proto::broadcast_request& b : out.broadcasts) net_.broadcast(n_, b.msg);
  for (const proto::send_request& s : out.sends) net_.send(s.to, s.msg);
  for (const proto::timer_request& t : out.timers) {
    armed_timer_ = t.token;
    armed_delay_ = t.delay;
  }
  if (out.completion) {
    last_outcome_ = std::move(*out.completion);  // `out` is the caller's scratch
    cv_.notify_all();
  }
  if (out.recovery_complete) {
    recovery_done_ = true;
    cv_.notify_all();
  }

  // Synchronous stores: the executing thread blocks on the disk while other
  // threads keep serving (the paper's two-thread structure). The store runs
  // outside the core mutex; completion feeds back in afterwards.
  remus::recycling_vector<proto::log_request> logs = std::move(out.logs);
  out.logs.clear();
  for (proto::log_request& lr : logs) {
    auto& store = core_->stable_storage();
    const std::uint64_t epoch_at_issue = core_->current_epoch();
    lk.unlock();
    // Retire the obsoleted (writing) records in the same store, as the
    // simulator does (cluster::deliver_log_done): a recovering process
    // re-finishes only the writes that were still in flight.
    store.store_and_obsolete(lr.key, lr.record, lr.obsoletes);
    lk.lock();
    // If the process crashed (and possibly recovered) while we were writing,
    // the completion belongs to a dead incarnation: drop it.
    if (!core_->is_up() || core_->current_epoch() != epoch_at_issue) continue;
    proto::outputs next;
    core_->on_log_done(lr.token, next);
    pump(lk, next);
  }
}

void node::await_completion(std::unique_lock<std::mutex>& lk, std::uint64_t op_seq) {
  const time_ns start = wall_now();
  const std::uint64_t epoch = core_->current_epoch();
  while (true) {
    if (!core_->is_up() || core_->current_epoch() != epoch) {
      throw operation_aborted("node: process crashed during the operation");
    }
    if (last_outcome_ && last_outcome_->op_seq == op_seq) return;
    if (opt_.op_timeout > 0 && wall_now() - start > opt_.op_timeout) {
      throw driver_error("node: operation timed out (majority unreachable?)");
    }
    const time_ns delay = armed_delay_ > 0 ? armed_delay_ : opt_.retransmit_check;
    if (cv_.wait_for(lk, ns(delay)) == std::cv_status::timeout) {
      if (!core_->is_up()) continue;
      proto::outputs out;
      core_->on_timer(armed_timer_, out);  // stale tokens are ignored
      pump(lk, out);
    }
  }
}

proto::op_outcome node::run_op(std::unique_lock<std::mutex>& lk, bool is_read,
                               register_id reg, const value& v) {
  if (!core_->ready() || !core_->idle()) {
    throw precondition_error("node: operation while not ready/idle");
  }
  op_entries_.resize(1);
  op_entries_[0].reg = reg;
  op_entries_[0].val = v;
  proto::outputs out;
  if (is_read) {
    recorder_.invoke_read(self_, reg, wall_now);
    core_->invoke_read(op_entries_, out);
  } else {
    recorder_.invoke_write(self_, reg, v, wall_now);
    core_->invoke_write(op_entries_, out);
  }
  const std::uint64_t seq = core_->current_op_seq();
  pump(lk, out);
  await_completion(lk, seq);
  proto::op_outcome oc = std::move(*last_outcome_);
  last_outcome_.reset();
  return oc;
}

value node::read(register_id reg) {
  std::unique_lock lk(mu_);
  proto::op_outcome oc = run_op(lk, /*is_read=*/true, reg, initial_value());
  recorder_.reply_read(self_, reg, oc.entries[0].val, wall_now);
  return std::move(oc.entries[0].val);
}

void node::write(register_id reg, const value& v) {
  std::unique_lock lk(mu_);
  (void)run_op(lk, /*is_read=*/false, reg, v);
  recorder_.reply_write(self_, reg, wall_now);
}

void node::crash() {
  {
    std::lock_guard lk(mu_);
    if (!core_->is_up()) return;
  }
  // Off the transport before taking mu_ for the crash: detach waits out a
  // delivery in progress, and that delivery may be waiting for mu_.
  net_.detach(self_);
  std::lock_guard lk(mu_);
  if (!core_->is_up()) return;  // an overlapping crash() got here first
  attached_ = false;
  core_->crash();
  recorder_.crash(self_, wall_now);
  cv_.notify_all();  // wake any waiter; it observes the crash and aborts
}

void node::recover() {
  std::unique_lock lk(mu_);
  if (core_->is_up()) throw precondition_error("node: recover() while up");
  recorder_.recover(self_, wall_now);
  recovery_done_ = false;
  net_.attach(self_, [this](const proto::message& m) { on_datagram(m); });
  attached_ = true;
  proto::outputs out;
  core_->recover(rng_.next_u64(), out);
  pump(lk, out);

  const time_ns start = wall_now();
  while (!recovery_done_) {
    if (opt_.op_timeout > 0 && wall_now() - start > opt_.op_timeout) {
      throw driver_error("node: recovery timed out (majority unreachable?)");
    }
    const time_ns delay = armed_delay_ > 0 ? armed_delay_ : opt_.retransmit_check;
    if (cv_.wait_for(lk, ns(delay)) == std::cv_status::timeout) {
      proto::outputs out2;
      core_->on_timer(armed_timer_, out2);
      pump(lk, out2);
    }
  }
}

}  // namespace remus::runtime
