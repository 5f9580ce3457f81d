// Effects emitted by protocol cores (sans-I/O discipline).
//
// A core never touches the network, the disk, or a clock: handling one input
// appends requests to an `outputs` batch, and its proto::host (host.h)
// executes them in the simulator's world or the threaded runtime. This keeps
// every algorithm deterministic and lets the simulator charge the paper's
// delta/lambda costs precisely.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/recycling_vector.h"
#include "common/time.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "proto/message.h"
#include "storage/stable_store.h"

namespace remus::proto {

/// Which of the process's two execution contexts performs an effect. The
/// paper's implementation (section V-A) runs one client thread and one
/// listener thread per workstation; a synchronous store blocks its context.
enum class exec_context : std::uint8_t { client, listener };

struct send_request {
  process_id to;
  message msg;
};

struct broadcast_request {
  message msg;  // delivered to every process, including the sender's listener
};

struct log_request {
  /// Record key: (area, register). Trivially copyable, so the hot path
  /// stays string-free even with per-register keys.
  storage::record_key key;
  bytes record;
  /// Completion token: the driver calls on_log_done(token) once durable.
  std::uint64_t token = 0;
  /// Context that blocks on this store.
  exec_context ctx = exec_context::client;
  /// Causal-log depth *after* this store (tracing; see message::log_depth).
  std::uint32_t depth_after = 0;
  /// Operation this store is attributable to (metrics; 0 = recovery/install),
  /// identified by the invoker, its incarnation epoch, and its op counter.
  std::uint64_t op_seq = 0;
  process_id origin;
  std::uint64_t epoch = 0;
  /// Records made obsolete by this store, erased in the same durable step
  /// (stable_store::store_and_obsolete). The paper's "writing record
  /// obsolete" compaction: a writer's next pre-log piggybacks the
  /// obsolescence of its settled predecessors, so recovery replay tracks
  /// the live write set, not every register ever pre-logged. Drivers must
  /// treat key ordering as irrelevant and entries equal to `key` as inert.
  std::vector<storage::record_key> obsoletes;
};

struct timer_request {
  std::uint64_t token = 0;
  time_ns delay = 0;
};

/// Completion of one read or write operation at its invoking process.
struct op_outcome {
  std::uint64_t op_seq = 0;
  bool is_read = false;
  /// Causal-log count observed on the completion path (paper section I-B).
  std::uint32_t causal_logs = 0;
  /// Round-trips used (communication steps = 2x this).
  std::uint32_t round_trips = 0;
  /// One (register, tag, value) per register, in invocation order: the tag
  /// a read returned or a write applied, and the value read or written.
  std::vector<batch_entry> entries;
};

/// Optional-like completion slot whose reset() keeps the outcome's entry
/// buffers alive, so a pooled `outputs` completes operations allocation-free.
class completion_slot {
 public:
  [[nodiscard]] explicit operator bool() const noexcept { return set_; }
  [[nodiscard]] bool has_value() const noexcept { return set_; }
  op_outcome& emplace() noexcept {
    set_ = true;
    return v_;
  }
  [[nodiscard]] op_outcome& operator*() noexcept { return v_; }
  [[nodiscard]] const op_outcome& operator*() const noexcept { return v_; }
  [[nodiscard]] op_outcome* operator->() noexcept { return &v_; }
  [[nodiscard]] const op_outcome* operator->() const noexcept { return &v_; }
  void reset() noexcept { set_ = false; }

 private:
  op_outcome v_;  // retains the entries' capacity across reset()
  bool set_ = false;
};

struct outputs {
  // Recycling batches: clear() retires entries without freeing their message
  // payload / record buffers, so a pooled `outputs` refills allocation-free.
  recycling_vector<send_request> sends;
  recycling_vector<broadcast_request> broadcasts;
  recycling_vector<log_request> logs;
  recycling_vector<timer_request> timers;
  /// Lease-expiry deadlines: like `timers` but delivered through the typed
  /// lease_expiry event so the driver can keep retransmission timers and
  /// lease clocks distinct (and cancel neither on the hot path).
  recycling_vector<timer_request> lease_timers;
  completion_slot completion;
  /// Set when a recovery procedure finished and invocations may resume.
  bool recovery_complete = false;

  void clear() {
    sends.clear();
    broadcasts.clear();
    logs.clear();
    timers.clear();
    lease_timers.clear();
    completion.reset();
    recovery_complete = false;
  }
  [[nodiscard]] bool empty() const {
    return sends.empty() && broadcasts.empty() && logs.empty() && timers.empty() &&
           lease_timers.empty() && !completion && !recovery_complete;
  }
};

}  // namespace remus::proto
