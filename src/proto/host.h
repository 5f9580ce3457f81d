// One process host: a protocol core plus the one interpreter of its effects.
//
// A quorum_core never performs I/O: each input appends effects to an
// `outputs` batch (effects.h). The host owns one process's core and turns
// every batch into actions, in one fixed order — logs, broadcasts, sends,
// retransmission timers, lease deadlines, the completion, the end of
// recovery — by calling its `host_env`. The simulator's core::cluster and
// the threaded runtime::node are the two environments, so both worlds run
// exactly the effects the checkers and the determinism pins judge.
//
// The host also owns the process's incarnation: crash() starts a new one,
// and a store completion, a retransmission timer or a lease deadline that
// names an older incarnation is dropped, as is every input to a crashed
// process. Environments tag what they schedule with the incarnation the host
// hands them and feed it back unchanged.
//
// Batches come from a LIFO pool, so a steady stream of inputs allocates
// nothing, and an environment may feed the host a new input from inside a
// callback (the simulator dispatches its next queued op from `completed`):
// the nested input gets a batch of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "proto/effects.h"
#include "proto/quorum_core.h"

namespace remus::proto {

/// Which clock a host_env::arm deadline belongs to.
enum class deadline_kind : std::uint8_t { retransmit, lease_expiry };

/// What a host needs from its world. Every call runs inside the host input
/// that produced the effect.
class host_env {
 public:
  /// Make `lr` durable, then feed host::on_log_done(lr.token, incarnation).
  /// The environment may move from `lr`.
  virtual void store(log_request& lr, std::uint64_t incarnation) = 0;
  virtual void send(process_id to, const message& m) = 0;
  /// Send `m` to every process, this one included.
  virtual void broadcast(const message& m) = 0;
  /// After `t.delay`, feed host::on_timer (retransmit) or
  /// host::on_lease_expiry (lease_expiry) with (t.token, incarnation).
  virtual void arm(deadline_kind k, const timer_request& t, std::uint64_t incarnation) = 0;
  /// The client operation in flight completed. The environment may move
  /// from `oc`.
  virtual void completed(op_outcome& oc) = 0;
  /// The recovery procedure finished: invocations may resume.
  virtual void recovered() = 0;

 protected:
  ~host_env() = default;
};

class host final {
 public:
  /// `store` and `env` must outlive the host.
  host(protocol_policy pol, process_id self, std::uint32_t n, storage::stable_store& store,
       std::uint64_t initial_epoch, host_env& env);

  host(const host&) = delete;
  host& operator=(const host&) = delete;

  /// Installs a fresh process (quorum_core::start); it must emit no effects.
  void start();
  /// Invokes a read of the entries' registers or a write of their values.
  void invoke(bool is_read, const std::vector<batch_entry>& entries);
  void on_message(const message& m);
  void on_log_done(std::uint64_t token, std::uint64_t incarnation);
  void on_timer(std::uint64_t token, std::uint64_t incarnation);
  void on_lease_expiry(std::uint64_t token, std::uint64_t incarnation);
  /// Loses the core's volatile state and starts a new incarnation.
  void crash();
  /// Runs the policy's Recover() with epoch `new_epoch`.
  void recover(std::uint64_t new_epoch);

  [[nodiscard]] quorum_core& core() noexcept { return core_; }
  [[nodiscard]] const quorum_core& core() const noexcept { return core_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept { return incarnation_; }
  /// The process is up in `incarnation`: its inputs are still wanted.
  [[nodiscard]] bool live(std::uint64_t incarnation) const noexcept {
    return incarnation == incarnation_ && core_.is_up();
  }

 private:
  /// Runs `input` on a pooled batch and executes what it emitted.
  template <class Input>
  void run(Input&& input);
  void execute(outputs& out);

  quorum_core core_;
  host_env& env_;
  std::uint64_t incarnation_ = 0;
  std::vector<std::unique_ptr<outputs>> pool_;
  std::size_t depth_ = 0;  // batches in use; inputs nest strictly LIFO
};

}  // namespace remus::proto
