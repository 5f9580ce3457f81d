#include "runtime/node.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/error.h"

namespace remus::runtime {
namespace {

constexpr time_ns forever = std::numeric_limits<time_ns>::max();

time_ns wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

node::node(proto::protocol_policy pol, process_id self, std::uint32_t n,
           storage::stable_store& store, transport& net, history::recorder& rec,
           node_options opt, std::uint64_t seed)
    : self_(self), n_(n), store_(store), net_(net), recorder_(rec), opt_(opt),
      rng_(seed ^ (0x6e6f6465ULL + self.index)),
      host_(std::move(pol), self_, n_, store, rng_.next_u64(), *this), wake_at_(forever) {}

node::~node() {
  if (attached_) net_.detach(self_);
}

void node::start() {
  std::unique_lock lk(mu_);
  host_.start();
  net_.attach(self_, [this](const proto::message& m) { on_datagram(m); });
  attached_ = true;
}

bool node::is_up() const {
  std::lock_guard lk(mu_);
  return host_.core().is_up();
}

void node::on_datagram(const proto::message& m) {
  std::unique_lock lk(mu_);
  feed(lk, [&] { host_.on_message(m); });
}

void node::store(proto::log_request& lr, std::uint64_t incarnation) {
  stores_->push_back({std::move(lr), incarnation});  // run by feed(), after the sends
}

void node::send(process_id to, const proto::message& m) { net_.send(to, m); }

void node::broadcast(const proto::message& m) { net_.broadcast(n_, m); }

void node::arm(proto::deadline_kind k, const proto::timer_request& t,
               std::uint64_t incarnation) {
  const deadline d{now_ + t.delay, t.token, incarnation};
  if (k == proto::deadline_kind::lease_expiry) {
    leases_.push(d);
    return;
  }
  retransmit_ = d;  // the core's latest token supersedes every earlier one
  if (d.at < wake_at_) cv_.notify_all();  // a blocked caller sleeps past it
}

void node::completed(proto::op_outcome& oc) {
  for (const proto::batch_entry& e : oc.entries) {
    if (oc.is_read) {
      recorder_.reply_read(self_, e.reg, e.val, wall_now);
    } else {
      recorder_.reply_write(self_, e.reg, wall_now);
    }
  }
  outcome_ = std::move(oc);
  op_running_ = false;
  cv_.notify_all();
}

void node::recovered() {
  recovery_done_ = true;
  cv_.notify_all();
}

void node::begin_input(std::vector<pending_store>& stores) {
  stores_ = &stores;
  now_ = wall_now();
  if (leases_.empty() || leases_.top().at > now_) return;
  std::lock_guard io(store_mu_);  // a grantor's expiry erases its record
  while (!leases_.empty() && leases_.top().at <= now_) {
    const deadline d = leases_.top();
    leases_.pop();
    host_.on_lease_expiry(d.token, d.incarnation);
  }
}

template <class Input>
void node::feed(std::unique_lock<std::mutex>& lk, Input&& input) {
  std::vector<pending_store> stores;
  begin_input(stores);
  input();
  // Other threads keep serving while this one blocks on the disk (the
  // paper's two-thread structure). A crashed process writes nothing more.
  for (std::size_t i = 0; i < stores.size(); ++i) {
    pending_store ps = std::move(stores[i]);
    if (!host_.live(ps.incarnation)) continue;
    lk.unlock();
    {
      std::lock_guard io(store_mu_);
      store_.store_and_obsolete(ps.lr.key, ps.lr.record, ps.lr.obsoletes);
    }
    lk.lock();
    begin_input(stores);
    host_.on_log_done(ps.lr.token, ps.incarnation);
  }
}

template <class Done>
void node::wait(std::unique_lock<std::mutex>& lk, time_ns until, Done&& done) {
  const std::uint64_t incarnation = host_.incarnation();
  while (true) {
    if (!host_.live(incarnation)) {
      throw operation_aborted("node: process crashed during the operation");
    }
    if (done()) return;
    const time_ns now = wall_now();
    if (retransmit_.token != 0 && retransmit_.at <= now) {
      const deadline d = std::exchange(retransmit_, deadline{});
      feed(lk, [&] { host_.on_timer(d.token, d.incarnation); });
      continue;
    }
    if (now >= until) throw driver_error("node: timed out (majority unreachable?)");
    wake_at_ = std::min({wake_at_, until, retransmit_.token != 0 ? retransmit_.at : until});
    if (wake_at_ == forever) {
      cv_.wait(lk);
    } else {
      using std::chrono::nanoseconds;
      cv_.wait_until(lk, std::chrono::steady_clock::time_point(nanoseconds(wake_at_)));
    }
    wake_at_ = forever;
  }
}

proto::op_outcome node::run_op(std::unique_lock<std::mutex>& lk, bool is_read,
                               register_id reg, const value& v) {
  if (!host_.core().is_up()) throw precondition_error("node: operation while crashed");
  const time_ns until = opt_.op_timeout > 0 ? wall_now() + opt_.op_timeout : forever;
  // An earlier operation whose caller gave up, or a recovery, may still be
  // running: this call waits for it within its own timeout.
  wait(lk, until, [this] { return host_.core().ready() && host_.core().idle(); });
  op_entries_.resize(1);
  op_entries_[0].reg = reg;
  op_entries_[0].val = v;
  if (is_read) {
    recorder_.invoke_read(self_, reg, wall_now);
  } else {
    recorder_.invoke_write(self_, reg, v, wall_now);
  }
  op_running_ = true;  // a leased read completes inside the invocation
  feed(lk, [&] { host_.invoke(is_read, op_entries_); });
  wait(lk, until, [this] { return !op_running_; });
  return std::move(outcome_);
}

value node::read(register_id reg) {
  std::unique_lock lk(mu_);
  return std::move(run_op(lk, /*is_read=*/true, reg, initial_value()).entries[0].val);
}

void node::write(register_id reg, const value& v) {
  std::unique_lock lk(mu_);
  (void)run_op(lk, /*is_read=*/false, reg, v);
}

void node::crash() {
  {
    std::lock_guard lk(mu_);
    if (!host_.core().is_up()) return;
  }
  // Off the transport before taking mu_ for the crash: detach waits out a
  // delivery in progress, and that delivery may be waiting for mu_.
  net_.detach(self_);
  std::lock_guard lk(mu_);
  if (!host_.core().is_up()) return;  // an overlapping crash() got here first
  attached_ = false;
  host_.crash();  // its deadlines and stores now name a dead incarnation
  recorder_.crash(self_, wall_now);
  cv_.notify_all();  // wake any waiter; it observes the crash and aborts
}

void node::recover() {
  std::unique_lock lk(mu_);
  if (host_.core().is_up()) throw precondition_error("node: recover() while up");
  const time_ns until = opt_.op_timeout > 0 ? wall_now() + opt_.op_timeout : forever;
  recorder_.recover(self_, wall_now);
  recovery_done_ = false;
  net_.attach(self_, [this](const proto::message& m) { on_datagram(m); });
  attached_ = true;
  feed(lk, [&] {
    std::lock_guard io(store_mu_);  // recovery reads the stable records
    host_.recover(rng_.next_u64());
  });
  wait(lk, until, [this] { return recovery_done_; });
}

}  // namespace remus::runtime
