#include "storage/wal_format.h"

#include <array>

namespace remus::storage {

namespace {

// Slicing-by-8 tables: crc32_tables[0] is the bytewise table for the
// reflected IEEE polynomial, and crc32_tables[k][b] is the CRC state after
// byte b followed by k zero bytes, so eight lookups fold eight input bytes
// at once. The checksums are exactly the bytewise ones.
using crc32_table = std::array<std::uint32_t, 256>;

constexpr std::array<crc32_table, 8> make_crc32_tables() {
  std::array<crc32_table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<crc32_table, 8> crc32_tables = make_crc32_tables();

/// Little-endian load from bytes, independent of the host's byte order
/// (compilers fold it into one load on little-endian targets).
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u32(bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

bool valid_area(std::uint8_t a) {
  return a == static_cast<std::uint8_t>(record_area::writing) ||
         a == static_cast<std::uint8_t>(record_area::written) ||
         a == static_cast<std::uint8_t>(record_area::recovered) ||
         a == static_cast<std::uint8_t>(record_area::lease);
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) noexcept {
  const auto& t = crc32_tables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

std::uint32_t crc32_of(std::span<const std::uint8_t> data) noexcept {
  return crc32_final(crc32_update(crc32_init, data));
}

void append_wal_frame(bytes& out, wal_frame_kind kind, record_key key,
                      std::span<const std::uint8_t> payload) {
  const std::size_t start = out.size();
  const std::size_t len = wal_frame_overhead - 4 + payload.size();
  out.reserve(start + len + 4);
  put_u32(out, static_cast<std::uint32_t>(len));
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(static_cast<std::uint8_t>(key.area));
  put_u32(out, key.reg);
  out.insert(out.end(), payload.begin(), payload.end());
  // CRC over everything appended so far (length field + body).
  const std::uint32_t crc =
      crc32_of(std::span<const std::uint8_t>(out.data() + start, out.size() - start));
  put_u32(out, crc);
}

std::string to_string(wal_scan_stop s) {
  switch (s) {
    case wal_scan_stop::clean_end: return "clean_end";
    case wal_scan_stop::torn_frame: return "torn_frame";
    case wal_scan_stop::bad_crc: return "bad_crc";
    case wal_scan_stop::bad_frame: return "bad_frame";
  }
  return "unknown";
}

wal_scan_result scan_wal(std::span<const std::uint8_t> log,
                         const std::function<void(const wal_frame&)>& fn) {
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
    const std::uint32_t computed =
        crc32_of(log.subspan(at, frame_size - 4));
    if (stored_crc != computed) {
      r.stop = wal_scan_stop::bad_crc;
      break;
    }
    const std::uint8_t kind = log[at + 4];
    const std::uint8_t area = log[at + 5];
    const bool kind_ok = kind == static_cast<std::uint8_t>(wal_frame_kind::record) ||
                         kind == static_cast<std::uint8_t>(wal_frame_kind::tombstone);
    const std::size_t payload_size = frame_size - wal_frame_overhead;
    const bool shape_ok =
        kind_ok && valid_area(area) &&
        (kind != static_cast<std::uint8_t>(wal_frame_kind::tombstone) ||
         payload_size == 0);
    if (!shape_ok) {
      r.stop = wal_scan_stop::bad_frame;
      break;
    }
    if (fn) {
      wal_frame f;
      f.kind = static_cast<wal_frame_kind>(kind);
      f.key = record_key{static_cast<record_area>(area), load_le32(log.data() + at + 6)};
      f.payload = log.subspan(at + 10, payload_size);
      f.offset = at;
      f.size = frame_size;
      fn(f);
    }
    at += frame_size;
    r.frames += 1;
  }
  r.consumed = at;
  return r;
}

}  // namespace remus::storage
