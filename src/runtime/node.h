// One process of the emulation running on real threads.
//
// Mirrors the paper's per-workstation process (section V-A): a listener
// serving protocol messages (here: transport callbacks) and a client thread
// invoking operations (here: the caller of read()/write(), which blocks until
// the operation completes — the "repeat until majority acks" loop). Stores
// are synchronous on the executing thread, so a listener writing its log
// blocks exactly like the paper's implementation.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "history/recorder.h"
#include "proto/quorum_core.h"
#include "runtime/transport.h"
#include "storage/stable_store.h"

namespace remus::runtime {

struct node_options {
  /// Client retransmission period (bounded so lossy transports make progress).
  time_ns retransmit_check = 20 * 1000 * 1000;
  /// Give up on an operation after this long (0 = wait forever).
  time_ns op_timeout = 10ll * 1000 * 1000 * 1000;
};

class node {
 public:
  /// `store` must outlive the node. The recorder may be shared (thread-safe).
  node(proto::protocol_policy pol, process_id self, std::uint32_t n,
       storage::stable_store& store, transport& net, history::recorder& rec,
       node_options opt = {}, std::uint64_t seed = 1);
  ~node();

  node(const node&) = delete;
  node& operator=(const node&) = delete;

  /// Attach to the transport and (fresh install) write initial records.
  void start();

  /// Blocking operations; one caller at a time per node (the model's
  /// processes are sequential). The unkeyed forms target the default
  /// register (the paper's single register).
  [[nodiscard]] value read() { return read(default_register); }
  void write(const value& v) { write(default_register, v); }
  [[nodiscard]] value read(register_id reg);
  void write(register_id reg, const value& v);

  /// Crash: drop off the transport, lose volatile state.
  void crash();
  /// Recover: run the algorithm's recovery procedure; blocks until the
  /// process may invoke operations again.
  void recover();

  [[nodiscard]] bool is_up() const;
  [[nodiscard]] process_id id() const { return self_; }
  [[nodiscard]] tag replica_tag() const;

 private:
  void on_datagram(const proto::message& m);
  /// Executes one effect batch; performs stores synchronously and feeds the
  /// resulting on_log_done back into the core. Must be called with mu_ held;
  /// may unlock around network sends.
  void pump(std::unique_lock<std::mutex>& lk, proto::outputs& out);
  void await_completion(std::unique_lock<std::mutex>& lk, std::uint64_t op_seq);
  /// Invokes a one-register read or write (`v` ignored for reads), records
  /// its invocation, and blocks until its outcome.
  proto::op_outcome run_op(std::unique_lock<std::mutex>& lk, bool is_read, register_id reg,
                           const value& v);

  const process_id self_;
  const std::uint32_t n_;
  transport& net_;
  history::recorder& recorder_;
  node_options opt_;
  rng rng_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<proto::quorum_core> core_;
  std::optional<proto::op_outcome> last_outcome_;
  std::vector<proto::batch_entry> op_entries_;  // the invocation's one entry
  bool recovery_done_ = false;
  bool attached_ = false;
  std::uint64_t armed_timer_ = 0;  // latest timer token requested by the core
  time_ns armed_delay_ = 0;
};

}  // namespace remus::runtime
