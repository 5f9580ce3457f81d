#include "common/codec.h"

namespace remus {

void byte_writer::put_u32(std::uint32_t x) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void byte_writer::put_u64(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void byte_writer::put_bytes(std::span<const std::uint8_t> b) {
  put_u32(static_cast<std::uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void byte_writer::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void byte_writer::put_tag(const tag& t) {
  put_i64(t.sn);
  put_i64(t.rec);
  put_process(t.writer);
}

void byte_reader::need(std::size_t n) const {
  if (remaining() < n) throw codec_error("byte_reader: truncated input");
}

std::uint8_t byte_reader::get_u8() {
  need(1);
  return buf_[pos_++];
}

std::uint32_t byte_reader::get_u32() {
  need(4);
  std::uint32_t x = 0;
  for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
  return x;
}

std::uint64_t byte_reader::get_u64() {
  need(8);
  std::uint64_t x = 0;
  for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
  return x;
}

bytes byte_reader::get_bytes() {
  bytes out;
  get_bytes_into(out);
  return out;
}

void byte_reader::get_bytes_into(bytes& out) {
  const auto n = get_u32();
  need(n);
  out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
             buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
}

std::string byte_reader::get_string() {
  const auto n = get_u32();
  need(n);
  std::string out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

tag byte_reader::get_tag() {
  tag t;
  t.sn = get_i64();
  t.rec = get_i64();
  t.writer = get_process();
  return t;
}

void byte_reader::expect_done() const {
  if (!done()) throw codec_error("byte_reader: trailing bytes");
}

}  // namespace remus
