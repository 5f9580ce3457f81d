// YCSB-style keyed workload generation for the multi-register namespace.
//
// Produces a deterministic operation stream over `key_count` registers:
// uniform or Zipf-skewed key popularity (the YCSB "zipfian" generator with
// parameter theta; theta 0.99 is YCSB's default hot-key skew), a read/write
// mix, optional multi-key batches (distinct keys per batch), and write
// values that are globally unique — the atomicity checkers require unique
// write values per register, and globally unique satisfies every projection.
//
// This header only *generates* the schedule; drivers (benches, tests) submit
// it to a core::cluster themselves, keeping sim/ independent of core/.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/time.h"
#include "common/value.h"
#include "proto/message.h"

namespace remus::sim {

/// Zipf(theta) sampler over {0, .., n-1} (rank 0 most popular), using the
/// standard YCSB/Gray et al. construction. theta == 0 degenerates to
/// uniform. Precomputes the harmonic normalizer once (O(n) setup).
class zipf_sampler {
 public:
  zipf_sampler(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t sample(rng& r) const;
  [[nodiscard]] double theta() const noexcept { return theta_; }

 private:
  std::uint64_t n_ = 1;
  double theta_ = 0.0;
  double zetan_ = 1.0;   // sum_{i=1..n} 1/i^theta
  double alpha_ = 0.0;   // 1 / (1 - theta)
  double eta_ = 0.0;
};

struct kv_workload_config {
  std::uint32_t n = 3;              // cluster size (ops round-robin processes)
  std::uint32_t key_count = 64;     // registers 0 .. key_count-1
  double zipf_theta = 0.0;          // 0 = uniform; 0.99 = YCSB default skew
  double read_fraction = 0.5;       // P(op is a read)
  std::uint32_t batch_size = 1;     // keys per operation (>1 = batched ops)
  std::uint32_t ops = 1000;         // total operations generated
  time_ns mean_gap = 200 * 1000;    // mean inter-arrival per process
  std::uint64_t seed = 1;

  /// Phase support for multi-stage drivers (e.g. shard_router_test's
  /// ShardRouterMigration.OpenWorkloadAcrossWindowLosesNothing generating
  /// before/during/after-reconfiguration traffic as separate calls): every
  /// generated arrival time is offset by `start_at`, and write values start
  /// at `value_base` — pass a value past anything the previous phase could
  /// mint (its `value_base + ops * batch_size`) so the concatenated phases
  /// keep globally unique write values (the atomicity checkers reject
  /// duplicates).
  time_ns start_at = 0;
  std::uint64_t value_base = 1;
  /// Write-value payload size in bytes (>= 8; the leading 8 bytes carry the
  /// unique counter, the rest is deterministic filler — YCSB's field-length
  /// knob, relevant wherever message bytes are measured).
  std::uint32_t value_bytes = 8;

  /// Shard-aware batching. `shard_map` names the shard owning each register
  /// (e.g. core::hash_ring::shard_of, passed as a function so sim/ stays
  /// independent of core/). When `shard_local_batches` is set, every batch's
  /// keys come from one shard — the shard of the batch's first sampled key —
  /// so a batched operation never splits across quorum groups (the split
  /// costs one quorum round *per shard touched*; shard-local clients avoid
  /// it). If a shard's key population runs out before `batch_size` distinct
  /// keys are found, the batch is emitted smaller rather than looping
  /// forever. Ignored when shard_map is empty or batch_size == 1.
  std::function<std::uint32_t(register_id)> shard_map;
  bool shard_local_batches = false;
};

/// One generated operation: `entries` lists the distinct target registers
/// (writes carry their unique values; reads leave values empty).
struct kv_op {
  process_id p;
  time_ns at = 0;
  bool is_read = false;

  struct entry {
    register_id reg = default_register;
    value val;  // writes only
  };
  std::vector<entry> entries;
};

/// Generates the full deterministic schedule for `cfg`.
[[nodiscard]] std::vector<kv_op> make_kv_workload(const kv_workload_config& cfg);

/// `op`'s register list as the drivers' submit() takes it.
[[nodiscard]] std::vector<proto::batch_entry> entries_of(const kv_op& op);

}  // namespace remus::sim
