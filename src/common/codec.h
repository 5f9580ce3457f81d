// Bounds-checked byte-level encoder/decoder used for wire messages and
// stable-storage records. Little-endian fixed-width integers; byte strings
// are u32-length-prefixed. Decoding failures throw codec_error rather than
// reading out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/ids.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace remus {

/// Appends primitive values to a growing byte buffer.
class byte_writer {
 public:
  byte_writer() = default;
  explicit byte_writer(bytes initial) : buf_(std::move(initial)) {}

  /// Pre-size the buffer (hot encoders know their exact wire size).
  void reserve(std::size_t n) { buf_.reserve(n); }
  void clear() noexcept { buf_.clear(); }

  void put_u8(std::uint8_t x) { buf_.push_back(x); }
  void put_u32(std::uint32_t x);
  void put_u64(std::uint64_t x);
  void put_i64(std::int64_t x) { put_u64(static_cast<std::uint64_t>(x)); }
  void put_bytes(std::span<const std::uint8_t> b);
  void put_string(std::string_view s);
  void put_process(process_id p) { put_u32(p.index); }
  void put_tag(const tag& t);
  void put_value(const value& v) { put_bytes(v.data); }

  [[nodiscard]] const bytes& buffer() const noexcept { return buf_; }
  [[nodiscard]] bytes take() && noexcept { return std::move(buf_); }

 private:
  bytes buf_;
};

/// Reads primitive values from a byte buffer, throwing codec_error on
/// truncation. The reader does not own the bytes.
class byte_reader {
 public:
  explicit byte_reader(std::span<const std::uint8_t> b) : buf_(b) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  [[nodiscard]] bytes get_bytes();
  /// get_bytes() into `out`, reusing its capacity.
  void get_bytes_into(bytes& out);
  [[nodiscard]] std::string get_string();
  [[nodiscard]] process_id get_process() { return process_id{get_u32()}; }
  [[nodiscard]] tag get_tag();
  [[nodiscard]] value get_value() { return value{get_bytes()}; }

  [[nodiscard]] std::size_t remaining() const noexcept { return buf_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return remaining() == 0; }

  /// Throws codec_error unless the whole buffer was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace remus
