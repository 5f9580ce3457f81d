// One process of the emulation running on real threads.
//
// Mirrors the paper's per-workstation process (section V-A): a listener
// serving protocol messages (here: transport callbacks) and a client thread
// invoking operations (here: the caller of read()/write(), which blocks until
// the operation completes — the "repeat until majority acks" loop). The node
// is the threaded environment of a proto::host, as the simulator's nodes are:
// stores run after their batch's sends, outside the node mutex, on the thread
// whose input issued them; passed lease deadlines fire before the next input;
// a blocked caller services the retransmission deadline. op_timeout ends a
// caller's wait, not its operation: the reply is recorded at completion, and
// the node's next call waits for it first.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "history/recorder.h"
#include "proto/host.h"
#include "runtime/transport.h"
#include "storage/stable_store.h"

namespace remus::runtime {

struct node_options {
  /// A call stops waiting after this long (0 = wait forever).
  time_ns op_timeout = 10ll * 1000 * 1000 * 1000;
};

class node final : private proto::host_env {
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

 private:
  struct deadline {
    time_ns at = 0;
    std::uint64_t token = 0;  // 0 = none
    std::uint64_t incarnation = 0;
    friend bool operator>(const deadline& a, const deadline& b) { return a.at > b.at; }
  };
  struct pending_store {
    proto::log_request lr;
    std::uint64_t incarnation = 0;
  };

  // proto::host_env, called under mu_ from inside a host input.
  void store(proto::log_request& lr, std::uint64_t incarnation) override;
  void send(process_id to, const proto::message& m) override;
  void broadcast(const proto::message& m) override;
  void arm(proto::deadline_kind k, const proto::timer_request& t,
           std::uint64_t incarnation) override;
  void completed(proto::op_outcome& oc) override;
  void recovered() override;

  /// Feeds the host `input` under `lk`, then runs the stores it issued,
  /// unlocking around each and feeding back its completion.
  template <class Input>
  void feed(std::unique_lock<std::mutex>& lk, Input&& input);
  /// Before each host input: collect its stores into `stores`, read the
  /// clock, and fire the lease deadlines that have passed.
  void begin_input(std::vector<pending_store>& stores);
  /// Blocks until `done()`, servicing the retransmission deadline. Throws
  /// operation_aborted on a crash and driver_error at `until`.
  template <class Done>
  void wait(std::unique_lock<std::mutex>& lk, time_ns until, Done&& done);
  /// Invokes a one-register read or write (`v` ignored for reads) and
  /// blocks until its outcome.
  proto::op_outcome run_op(std::unique_lock<std::mutex>& lk, bool is_read, register_id reg,
                           const value& v);
  void on_datagram(const proto::message& m);

  const process_id self_;
  const std::uint32_t n_;
  storage::stable_store& store_;
  transport& net_;
  history::recorder& recorder_;
  node_options opt_;
  rng rng_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Stores run outside mu_, and a core reads or erases records directly in
  /// recover() and at a lease expiry: this serializes them.
  std::mutex store_mu_;
  proto::host host_;
  std::vector<pending_store>* stores_ = nullptr;  // set by begin_input()
  /// Read before each input; its deadlines count from it, so a holder's lease
  /// starts before its grant is sent and outlives no grantor's record.
  time_ns now_ = 0;
  deadline retransmit_;
  std::priority_queue<deadline, std::vector<deadline>, std::greater<>> leases_;
  time_ns wake_at_;               // earliest time a blocked caller wakes
  std::vector<proto::batch_entry> op_entries_;  // the invocation's one entry
  proto::op_outcome outcome_;
  bool op_running_ = false;
  bool recovery_done_ = false;
  bool attached_ = false;
};

}  // namespace remus::runtime
