// WAL frame codec: the on-media format of the append-only log engine.
//
// Every durable mutation is one self-checking frame:
//
//   [u32 len][u8 kind][u8 area][u32 reg][payload...][u32 crc32]
//
// `len` counts every byte after the length field (kind through crc32
// inclusive), so a frame occupies len + 4 bytes and the minimum frame
// (empty payload) is wal_frame_overhead = 14 bytes. The CRC32 (IEEE
// reflected, the zlib/ethernet polynomial) covers the length field and
// the body — a frame whose length field was bitten by corruption fails
// its checksum instead of misleading the scanner into a bogus resync.
//
// Recovery scans the log front to back and stops at the first frame that
// is torn (extends past the end of the medium), fails its CRC, or carries
// an impossible header. Everything before the stop point is the valid
// prefix; everything after is discarded. A crash mid-append therefore
// loses at most the in-flight suffix — never an already-fsynced frame —
// which is exactly the conservative crash model the simulator's disk
// charges for.
//
// All integers are little-endian fixed-width, matching common/codec.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "common/value.h"
#include "storage/stable_store.h"

namespace remus::storage {

/// What a frame means to the replaying index.
enum class wal_frame_kind : std::uint8_t {
  record = 1,     // (key, payload) replaces any previous record for key
  tombstone = 2,  // key's record is obsolete; payload must be empty
};

/// Fixed bytes around the payload: len(4) + kind(1) + area(1) + reg(4) +
/// crc(4).
inline constexpr std::size_t wal_frame_overhead = 14;

/// Bytes of a full frame carrying `payload_size` payload bytes.
[[nodiscard]] constexpr std::size_t wal_frame_size(std::size_t payload_size) noexcept {
  return wal_frame_overhead + payload_size;
}

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the zlib `crc32`.
/// Seeded/finalized internally: crc32_of("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32_of(std::span<const std::uint8_t> data) noexcept;

/// Incremental form for split buffers; start from crc32_init and finish
/// with crc32_final. Runs crc32_kernels::folding on a CPU that supports it
/// (checked once per process) and crc32_kernels::sliced elsewhere.
inline constexpr std::uint32_t crc32_init = 0xFFFFFFFFu;
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::span<const std::uint8_t> data) noexcept;
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
  return state ^ 0xFFFFFFFFu;
}

/// The two kernels behind crc32_update, public so that tests check each one
/// on every host that can run it. Both take and return the same state as
/// crc32_update, and they agree bit for bit.
namespace crc32_kernels {

/// Slicing-by-8 table lookups: the portable kernel.
[[nodiscard]] std::uint32_t sliced(std::uint32_t state,
                                   std::span<const std::uint8_t> data) noexcept;

/// Whether this CPU can run `folding` (x86-64 with PCLMULQDQ).
[[nodiscard]] bool folding_supported() noexcept;

/// Carry-less-multiply folding over the 16-byte blocks of a span of 32
/// bytes or more; `sliced` takes the tail and any shorter span.
/// Precondition: folding_supported().
[[nodiscard]] std::uint32_t folding(std::uint32_t state,
                                    std::span<const std::uint8_t> data) noexcept;

}  // namespace crc32_kernels

/// Appends one framed record to `out` (existing contents untouched).
void append_wal_frame(bytes& out, wal_frame_kind kind, record_key key,
                      std::span<const std::uint8_t> payload);

/// One decoded frame, viewing the scanned buffer (no payload copy).
struct wal_frame {
  wal_frame_kind kind = wal_frame_kind::record;
  record_key key{};
  std::span<const std::uint8_t> payload{};
  std::size_t offset = 0;  // byte offset of the frame's length field
  std::size_t size = 0;    // total frame bytes (len + 4)
};

/// Why a scan stopped where it did.
enum class wal_scan_stop : std::uint8_t {
  clean_end = 0,   // consumed the whole buffer, every frame intact
  torn_frame = 1,  // final frame extends past the end (crash mid-append)
  bad_crc = 2,     // checksum mismatch (bit rot or a torn header)
  bad_frame = 3,   // impossible header: undersized len, unknown kind/area,
                   // or a tombstone carrying payload
};

[[nodiscard]] std::string to_string(wal_scan_stop s);

struct wal_scan_result {
  wal_scan_stop stop = wal_scan_stop::clean_end;
  std::size_t consumed = 0;  // bytes of valid prefix (frame-aligned)
  std::uint64_t frames = 0;  // intact frames delivered to the callback
};

namespace wal_detail {

/// Little-endian load from bytes, independent of the host's byte order
/// (compilers fold it into one load on little-endian targets).
[[nodiscard]] inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] constexpr bool valid_area(std::uint8_t a) noexcept {
  return a == static_cast<std::uint8_t>(record_area::writing) ||
         a == static_cast<std::uint8_t>(record_area::written) ||
         a == static_cast<std::uint8_t>(record_area::recovered) ||
         a == static_cast<std::uint8_t>(record_area::lease);
}

/// The callback of a pure validation scan: `scan_wal(log, {})`.
struct ignore_frame {
  void operator()(const wal_frame&) const noexcept {}
};

}  // namespace wal_detail

/// Scans `log` front to back, invoking `fn` for each intact frame, and
/// stops at the first torn/corrupt/impossible frame. Never throws on any
/// input (unless `fn` does): arbitrary garbage classifies as one of the
/// stop reasons. `fn` is called directly, so replay pays no indirect call
/// per frame; `{}` scans for validation only.
template <typename Fn = wal_detail::ignore_frame>
wal_scan_result scan_wal(std::span<const std::uint8_t> log, Fn&& fn = {}) {
  using wal_detail::load_le32;
  wal_scan_result r;
  std::size_t at = 0;
  while (at < log.size()) {
    // A partial length field is itself a torn frame (crash during the very
    // first bytes of an append).
    if (log.size() - at < 4) {
      r.stop = wal_scan_stop::torn_frame;
      break;
    }
    const std::uint32_t len = load_le32(log.data() + at);
    if (len < wal_frame_overhead - 4) {
      r.stop = wal_scan_stop::bad_frame;
      break;
    }
    if (len > log.size() - at - 4) {
      r.stop = wal_scan_stop::torn_frame;
      break;
    }
    const std::size_t frame_size = static_cast<std::size_t>(len) + 4;
    const std::uint32_t stored_crc = load_le32(log.data() + at + frame_size - 4);
    if (stored_crc != crc32_of(log.subspan(at, frame_size - 4))) {
      r.stop = wal_scan_stop::bad_crc;
      break;
    }
    const std::uint8_t kind = log[at + 4];
    const std::uint8_t area = log[at + 5];
    const bool kind_ok = kind == static_cast<std::uint8_t>(wal_frame_kind::record) ||
                         kind == static_cast<std::uint8_t>(wal_frame_kind::tombstone);
    const std::size_t payload_size = frame_size - wal_frame_overhead;
    const bool shape_ok =
        kind_ok && wal_detail::valid_area(area) &&
        (kind != static_cast<std::uint8_t>(wal_frame_kind::tombstone) ||
         payload_size == 0);
    if (!shape_ok) {
      r.stop = wal_scan_stop::bad_frame;
      break;
    }
    wal_frame f;
    f.kind = static_cast<wal_frame_kind>(kind);
    f.key = record_key{static_cast<record_area>(area), load_le32(log.data() + at + 6)};
    f.payload = log.subspan(at + 10, payload_size);
    f.offset = at;
    f.size = frame_size;
    std::forward<Fn>(fn)(f);
    at += frame_size;
    r.frames += 1;
  }
  r.consumed = at;
  return r;
}

}  // namespace remus::storage
