#include "proto/records.h"

namespace remus::proto {

bytes encode(const tagged_value_record& r) {
  byte_writer w;
  w.reserve(24 + r.val.size());
  w.put_tag(r.ts);
  w.put_value(r.val);
  return std::move(w).take();
}

void encode_tagged_value_into(bytes& out, const tag& ts, const value& val) {
  byte_writer w(std::move(out));
  w.clear();
  w.reserve(24 + val.size());
  w.put_tag(ts);
  w.put_value(val);
  out = std::move(w).take();
}

tagged_value_record decode_tagged_value(const bytes& b) {
  tagged_value_record rec;
  decode_tagged_value_into(b, rec.ts, rec.val);
  return rec;
}

void decode_tagged_value_into(const bytes& b, tag& ts, value& val) {
  byte_reader r(b);
  ts = r.get_tag();
  r.get_bytes_into(val.data);
  r.expect_done();
}

bytes encode(const lease_record& r) {
  byte_writer w;
  w.put_u64(r.holder_mask);
  return std::move(w).take();
}

lease_record decode_lease(const bytes& b) {
  byte_reader r(b);
  lease_record rec;
  rec.holder_mask = r.get_u64();
  r.expect_done();
  return rec;
}

bytes encode(const recovery_record& r) {
  byte_writer w;
  w.put_i64(r.recoveries);
  return std::move(w).take();
}

recovery_record decode_recovery(const bytes& b) {
  byte_reader r(b);
  recovery_record rec;
  rec.recoveries = r.get_i64();
  r.expect_done();
  return rec;
}

}  // namespace remus::proto
