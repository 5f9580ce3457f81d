#include "storage/wal_format.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace remus::storage {

namespace {

using wal_detail::load_le32;

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

#if defined(__x86_64__)

/// Spans shorter than this gain nothing from folding: the final reduction
/// costs about what slicing 32 bytes does.
constexpr std::size_t fold_min_bytes = 32;

// Folding constants of the reflected IEEE polynomial P (Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
// Intel, 2009), each bit-reflected and shifted left by one: k1/k2 fold a
// 128-bit lane 512 bits ahead (x^(512+32) and x^(512-32) mod P), k3/k4 fold
// it 128 bits ahead (x^(128+32), x^(128-32)), k5 folds 64 bits down to 32
// (x^64), and P' = P and mu = floor(x^64 / P) drive the Barrett reduction.
constexpr long long k1 = 0x154442bd4, k2 = 0x1c6e41596;
constexpr long long k3 = 0x1751997d0, k4 = 0x0ccaa009e;
constexpr long long k5 = 0x163cd6124;
constexpr long long p_prime = 0x1db710641, mu = 0x1f7011641;

/// acc * x^distance, folded onto `next`: the low and high halves of the lane
/// each multiply their constant (lo by the low, hi by the high half of k).
__attribute__((target("pclmul"))) inline __m128i fold_lane(__m128i acc, __m128i k,
                                                          __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__attribute__((target("pclmul"))) inline __m128i load_lane(const std::uint8_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The CRC state after `n` bytes at `p`; `n` is a multiple of 16 and at
/// least fold_min_bytes. Four lanes fold 64 bytes per step while 64 or more
/// bytes remain, then one lane folds 16 bytes per step, then the lane
/// reduces to 32 bits.
__attribute__((target("pclmul"))) std::uint32_t fold_blocks(std::uint32_t state,
                                                             const std::uint8_t* p,
                                                             std::size_t n) noexcept {
  const __m128i k34 = _mm_set_epi64x(k4, k3);
  __m128i x = _mm_xor_si128(load_lane(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 16;
  n -= 16;
  if (n >= 48) {
    const __m128i k12 = _mm_set_epi64x(k2, k1);
    __m128i x1 = load_lane(p), x2 = load_lane(p + 16), x3 = load_lane(p + 32);
    p += 48;
    n -= 48;
    for (; n >= 64; p += 64, n -= 64) {
      x = fold_lane(x, k12, load_lane(p));
      x1 = fold_lane(x1, k12, load_lane(p + 16));
      x2 = fold_lane(x2, k12, load_lane(p + 32));
      x3 = fold_lane(x3, k12, load_lane(p + 48));
    }
    x = fold_lane(fold_lane(fold_lane(x, k34, x1), k34, x2), k34, x3);
  }
  for (; n >= 16; p += 16, n -= 16) x = fold_lane(x, k34, load_lane(p));

  // 128 -> 64 bits: the low half times k4 onto the high half; then the low
  // 32 bits times k5 onto the rest.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k34, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                                         _mm_set_epi64x(0, k5), 0x00));
  // Barrett: t = (x mod x^32) * mu, then (t mod x^32) * P' cancels all but
  // the remainder, which lands in bits 32..63.
  const __m128i poly = _mm_set_epi64x(mu, p_prime);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif

// Checked once, at static initialization. A checksum taken before then
// (another file's static initializer) runs the sliced kernel, which gives
// the same value.
const bool use_folding = crc32_kernels::folding_supported();

void put_u32(bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

namespace crc32_kernels {

std::uint32_t sliced(std::uint32_t state, std::span<const std::uint8_t> data) noexcept {
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

bool folding_supported() noexcept {
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run before the runtime's own initializer
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

std::uint32_t folding(std::uint32_t state, std::span<const std::uint8_t> data) noexcept {
#if defined(__x86_64__)
  if (data.size() >= fold_min_bytes) {
    const std::size_t blocks = data.size() & ~std::size_t{15};
    state = fold_blocks(state, data.data(), blocks);
    data = data.subspan(blocks);
  }
#endif
  return sliced(state, data);
}

}  // namespace crc32_kernels

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) noexcept {
  return use_folding ? crc32_kernels::folding(state, data)
                     : crc32_kernels::sliced(state, data);
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

}  // namespace remus::storage
