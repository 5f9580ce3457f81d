// worker_pool: the parallel-for that advances the simulator's independent
// shards.
//
// The protocol layers are pure state machines driven by delivered inputs
// (proto::quorum_core consumes messages/log-completions/timers and emits
// effect batches; core::cluster folds one shard's worth of cores over a
// deterministic event queue). What *advances* them is one of:
//
//   * the deterministic simulator (core::cluster::run_* on one thread) — the
//     original, still the default;
//   * the multi-threaded simulator (core::shard_router on a worker_pool of
//     more than one worker): S independent shards advanced concurrently,
//     meeting only at virtual-time window barriers (see shard_router.h,
//     "Parallel execution");
//   * the real runtime (runtime::node over a runtime::transport — in-process
//     datagrams or loopback TCP), where the clock is the wall clock.
//
// This header owns the pool: one class, a minimal parallel-for with barrier
// semantics. At one worker (or fewer) it starts no thread and runs every
// index inline, in order, on the caller — the sequential simulator is that
// degenerate case, not a second implementation. The contract:
//
//   * each index in [0, count) is claimed by exactly one thread and fn runs
//     for it exactly once;
//   * run_indexed returns only after every fn call finished (a full barrier:
//     all writes made by the workers happen-before the return);
//   * fn must touch only state owned by its index (shard s's cluster) — the
//     caller performs all cross-index work between run_indexed calls, which
//     is exactly the shard router's window-barrier rule;
//   * with threads, exceptions thrown by fn are captured and one of them is
//     rethrown from run_indexed after the barrier (the others are dropped;
//     remaining indices still run so the pool stays in a defined state).
//     Inline, an exception propagates at once.
//
// Determinism: the assignment of indices to threads is racy by design, but
// no observable state depends on it — each index's work is confined to that
// index's objects, so any schedule produces bit-identical per-shard results.
// That is what makes `same seed => same merged history` hold at every worker
// count (tests/parallel_driver_test.cpp pins it).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace remus::sim {

class worker_pool {
 public:
  /// `workers - 1` threads plus the calling thread cooperate on each
  /// run_indexed call (so workers == hardware_concurrency uses every core
  /// without oversubscribing); `workers` <= 1 starts no thread.
  explicit worker_pool(std::uint32_t workers);
  ~worker_pool();
  worker_pool(worker_pool&&) noexcept;
  worker_pool& operator=(worker_pool&&) noexcept;

  /// Invoke fn(i) once for every i in [0, count), from at most workers()
  /// threads, returning after all calls completed (barrier). A single index
  /// runs inline on the caller. See the file comment for the contract.
  void run_indexed(std::uint32_t count, const std::function<void(std::uint32_t)>& fn);

  /// Max threads that may run fn concurrently (>= 1; 1 = inline, no thread).
  [[nodiscard]] std::uint32_t workers() const noexcept;

 private:
  /// The threads and the round they share; absent at one worker. Index
  /// claiming is a single counter under its lock — work-stealing
  /// granularity of one shard.
  struct threads;
  std::unique_ptr<threads> threads_;
};

}  // namespace remus::sim
