#include "sim/kv_workload.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace remus::sim {

zipf_sampler::zipf_sampler(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n == 0) throw precondition_error("zipf_sampler: empty domain");
  if (theta < 0.0 || theta >= 1.0) {
    throw precondition_error("zipf_sampler: theta must be in [0, 1)");
  }
  if (theta_ == 0.0) return;  // uniform fast path
  zetan_ = 0.0;
  for (std::uint64_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::uint64_t zipf_sampler::sample(rng& r) const {
  if (theta_ == 0.0) return r.next_below(n_);
  // Gray et al. "Quickly generating billion-record synthetic databases",
  // as used by YCSB's ZipfianGenerator.
  const double u = r.next_unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const double frac = eta_ * u - eta_ + 1.0;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(frac, alpha_));
  return std::min(rank, n_ - 1);
}

std::vector<kv_op> make_kv_workload(const kv_workload_config& cfg) {
  if (cfg.n == 0) throw precondition_error("kv_workload: n must be >= 1");
  if (cfg.key_count == 0) throw precondition_error("kv_workload: key_count must be >= 1");
  if (cfg.batch_size == 0) throw precondition_error("kv_workload: batch_size must be >= 1");
  if (cfg.batch_size > cfg.key_count) {
    throw precondition_error("kv_workload: batch_size exceeds key_count");
  }
  if (cfg.value_bytes < 8) {
    throw precondition_error("kv_workload: value_bytes must be >= 8");
  }

  rng r(cfg.seed ^ 0x6b76776bULL);
  const zipf_sampler keys(cfg.key_count, cfg.zipf_theta);

  std::vector<kv_op> ops;
  ops.reserve(cfg.ops);
  std::vector<time_ns> next_at(cfg.n, cfg.start_at);
  std::uint64_t next_value = cfg.value_base;  // globally unique write values
  std::vector<register_id> scratch;

  for (std::uint32_t i = 0; i < cfg.ops; ++i) {
    kv_op op;
    op.p = process_id{static_cast<std::uint32_t>(r.next_below(cfg.n))};
    // Poisson-ish arrivals per process keep every client busy without the
    // schedule collapsing into one burst.
    next_at[op.p.index] +=
        static_cast<time_ns>(r.next_exponential(static_cast<double>(cfg.mean_gap)));
    op.at = next_at[op.p.index];
    op.is_read = r.chance(cfg.read_fraction);

    // Distinct keys per batch: rejection-sample against the batch so far
    // (total because batch_size <= key_count is enforced above). Shard-local
    // batching additionally rejects keys outside the first key's shard, and
    // *that* filter needs the attempt cap: an adversarial placement could
    // leave a shard with fewer than batch_size keys, so the batch is emitted
    // smaller rather than looping forever.
    const bool shard_local =
        cfg.shard_local_batches && cfg.shard_map && cfg.batch_size > 1;
    scratch.clear();
    std::uint32_t home_shard = 0;
    std::uint32_t attempts = 0;
    const std::uint32_t max_attempts = 64 * cfg.batch_size;
    while (scratch.size() < cfg.batch_size) {
      if (shard_local && !scratch.empty() && ++attempts > max_attempts) break;
      const auto reg = static_cast<register_id>(keys.sample(r));
      if (std::find(scratch.begin(), scratch.end(), reg) != scratch.end()) continue;
      if (shard_local) {
        const std::uint32_t s = cfg.shard_map(reg);
        if (scratch.empty()) {
          home_shard = s;
        } else if (s != home_shard) {
          continue;
        }
      }
      scratch.push_back(reg);
    }
    op.entries.reserve(scratch.size());
    for (const register_id reg : scratch) {
      kv_op::entry e;
      e.reg = reg;
      if (!op.is_read) {
        e.val = value_of_u64(next_value++);
        if (cfg.value_bytes > 8) {
          // Deterministic filler after the unique counter (field padding).
          e.val.data.resize(cfg.value_bytes,
                            static_cast<std::uint8_t>(0xa5 ^ (reg & 0xff)));
        }
      }
      op.entries.push_back(std::move(e));
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<proto::batch_entry> entries_of(const kv_op& op) {
  std::vector<proto::batch_entry> entries;
  entries.reserve(op.entries.size());
  for (const kv_op::entry& e : op.entries) entries.push_back({e.reg, {}, e.val});
  return entries;
}

}  // namespace remus::sim
