#include "proto/host.h"

#include <utility>

#include "common/error.h"

namespace remus::proto {

host::host(protocol_policy pol, process_id self, std::uint32_t n,
           storage::stable_store& store, std::uint64_t initial_epoch, host_env& env)
    : core_(std::move(pol), self, n, store, initial_epoch), env_(env) {}

template <class Input>
void host::run(Input&& input) {
  if (depth_ == pool_.size()) pool_.push_back(std::make_unique<outputs>());
  outputs& out = *pool_[depth_++];
  struct release {
    host& h;
    outputs& out;
    ~release() {
      out.clear();  // keeps buffer capacity for the next input
      --h.depth_;
    }
  } guard{*this, out};
  input(out);
  execute(out);
}

void host::execute(outputs& out) {
  const std::uint64_t inc = incarnation_;
  for (log_request& lr : out.logs) env_.store(lr, inc);
  for (const broadcast_request& b : out.broadcasts) env_.broadcast(b.msg);
  for (const send_request& s : out.sends) env_.send(s.to, s.msg);
  for (const timer_request& t : out.timers) env_.arm(deadline_kind::retransmit, t, inc);
  for (const timer_request& t : out.lease_timers) {
    env_.arm(deadline_kind::lease_expiry, t, inc);
  }
  if (out.completion) env_.completed(*out.completion);
  if (out.recovery_complete) env_.recovered();
}

void host::start() {
  run([this](outputs& out) {
    core_.start(out);
    if (!out.empty()) throw driver_error("host: start() must not emit effects");
  });
}

void host::invoke(bool is_read, const std::vector<batch_entry>& entries) {
  run([&](outputs& out) {
    if (is_read) {
      core_.invoke_read(entries, out);
    } else {
      core_.invoke_write(entries, out);
    }
  });
}

void host::on_message(const message& m) {
  if (!core_.is_up()) return;  // lost at a dead host
  run([&](outputs& out) { core_.on_message(m, out); });
}

void host::on_log_done(std::uint64_t token, std::uint64_t incarnation) {
  if (!live(incarnation)) return;
  run([&](outputs& out) { core_.on_log_done(token, out); });
}

void host::on_timer(std::uint64_t token, std::uint64_t incarnation) {
  if (!live(incarnation)) return;
  run([&](outputs& out) { core_.on_timer(token, out); });
}

void host::on_lease_expiry(std::uint64_t token, std::uint64_t incarnation) {
  if (!live(incarnation)) return;
  run([&](outputs& out) { core_.on_lease_expiry(token, out); });
}

void host::crash() {
  incarnation_ += 1;
  core_.crash();
}

void host::recover(std::uint64_t new_epoch) {
  run([&](outputs& out) { core_.recover(new_epoch, out); });
}

}  // namespace remus::proto
