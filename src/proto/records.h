// Stable-storage record formats.
//
// The algorithms log three kinds of records (paper Figures 4 and 5):
//   * "writing"   — the writer's pre-log of (tag, value) before round 2
//                   (persistent emulation only; enables finish-on-recovery);
//   * "written"   — a replica's adopted (tag, value) (both emulations);
//   * "recovered" — the recovery counter (transient emulation only).
// In the multi-register namespace the "writing" and "written" areas are keyed
// per register (recovery replays every register's records); the recovery
// counter is per-process. Records overwrite in place; recovery reads the
// latest of each key.
#pragma once

#include <cstdint>

#include "common/codec.h"
#include "common/ids.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "storage/stable_store.h"

namespace remus::proto {

[[nodiscard]] constexpr storage::record_key writing_key_of(register_id reg) noexcept {
  return {storage::record_area::writing, reg};
}
[[nodiscard]] constexpr storage::record_key written_key_of(register_id reg) noexcept {
  return {storage::record_area::written, reg};
}
[[nodiscard]] constexpr storage::record_key lease_key_of(register_id reg) noexcept {
  return {storage::record_area::lease, reg};
}

/// Default-register keys (the paper's single-register records), kept for the
/// single-key call sites and tests.
inline constexpr storage::record_key writing_key = writing_key_of(default_register);
inline constexpr storage::record_key written_key = written_key_of(default_register);
inline constexpr storage::record_key recovered_key{storage::record_area::recovered,
                                                   default_register};

struct tagged_value_record {
  tag ts;
  value val;

  friend bool operator==(const tagged_value_record&, const tagged_value_record&) = default;
};

[[nodiscard]] bytes encode(const tagged_value_record& r);
[[nodiscard]] tagged_value_record decode_tagged_value(const bytes& b);
/// decode_tagged_value() into `ts` and `val`, reusing `val`'s capacity (the
/// allocation-free path for restoring replica slots at recovery).
void decode_tagged_value_into(const bytes& b, tag& ts, value& val);

/// Encode (ts, val) into `out`, reusing its capacity — the allocation-free
/// path for the per-operation "writing"/"written" logs (no record temporary,
/// no fresh buffer).
void encode_tagged_value_into(bytes& out, const tag& ts, const value& val);

/// A grantor's durable note of who may serve this register locally: one bit
/// per holder process index (leases require n <= 64). The record survives the
/// grantor's crash — recovery restores the registry, which is conservative:
/// a restored holder only makes writers wait for that holder's ack; the
/// holder itself forgets its (volatile) holding on crash, which is what binds
/// the lease to the holder's incarnation.
struct lease_record {
  std::uint64_t holder_mask = 0;

  friend bool operator==(const lease_record&, const lease_record&) = default;
};

[[nodiscard]] bytes encode(const lease_record& r);
[[nodiscard]] lease_record decode_lease(const bytes& b);

struct recovery_record {
  std::int64_t recoveries = 0;

  friend bool operator==(const recovery_record&, const recovery_record&) = default;
};

[[nodiscard]] bytes encode(const recovery_record& r);
[[nodiscard]] recovery_record decode_recovery(const bytes& b);

}  // namespace remus::proto
