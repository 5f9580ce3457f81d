#include "proto/message.h"

#include <utility>

namespace remus::proto {

std::vector<batch_entry> single_entry(register_id reg, value v) {
  std::vector<batch_entry> entries(1);
  entries[0].reg = reg;
  entries[0].val = std::move(v);
  return entries;
}

std::vector<batch_entry> write_entries(std::vector<write_op> ops) {
  std::vector<batch_entry> entries;
  entries.reserve(ops.size());
  for (write_op& op : ops) entries.push_back({op.reg, {}, std::move(op.val)});
  return entries;
}

std::vector<batch_entry> read_entries(const std::vector<register_id>& regs) {
  std::vector<batch_entry> entries;
  entries.reserve(regs.size());
  for (const register_id reg : regs) entries.push_back({reg, {}, {}});
  return entries;
}

std::string to_string(msg_kind k) {
  switch (k) {
    case msg_kind::sn_query: return "SN";
    case msg_kind::sn_ack: return "SN_ack";
    case msg_kind::write: return "W";
    case msg_kind::write_ack: return "W_ack";
    case msg_kind::read_query: return "R";
    case msg_kind::read_ack: return "R_ack";
    case msg_kind::writeback: return "WB";
    case msg_kind::lease_grant_ack: return "L_ack";
    case msg_kind::lease_grant: return "L";
  }
  return "?";
}

namespace {

// The header's register slot, left empty by a message of several entries.
const batch_entry no_entry{};

/// The entry the header's register slot carries (see message.h).
const batch_entry& header_entry(const message& m) {
  return m.entries.size() == 1 ? m.entries.front() : no_entry;
}

/// Entries listed after the count: none when the header carries the one.
std::size_t listed_entries(const message& m) {
  return m.entries.size() == 1 ? 0 : m.entries.size();
}

}  // namespace

bytes encode(const message& m) {
  const batch_entry& head = header_entry(m);
  byte_writer w;
  w.put_u8(static_cast<std::uint8_t>(m.kind));
  w.put_process(m.from);
  w.put_u64(m.op_seq);
  w.put_u32(m.round);
  w.put_u64(m.epoch);
  w.put_tag(head.ts);
  w.put_value(head.val);
  w.put_u32(m.log_depth);
  w.put_u32(head.reg);
  w.put_u32(static_cast<std::uint32_t>(listed_entries(m)));
  if (listed_entries(m) > 0) {
    for (const batch_entry& e : m.entries) {
      w.put_u32(e.reg);
      w.put_tag(e.ts);
      w.put_value(e.val);
    }
  }
  w.put_u32(static_cast<std::uint32_t>(m.leases.size()));
  for (const lease_note& n : m.leases) {
    w.put_u32(n.reg);
    w.put_u64(n.holder_mask);
  }
  return std::move(w).take();
}

message decode_message(std::span<const std::uint8_t> wire) {
  byte_reader r(wire);
  message m;
  const auto k = r.get_u8();
  if (k < 1 || k > 9) throw codec_error("message: bad kind");
  m.kind = static_cast<msg_kind>(k);
  m.from = r.get_process();
  m.op_seq = r.get_u64();
  m.round = r.get_u32();
  m.epoch = r.get_u64();
  batch_entry head;
  head.ts = r.get_tag();
  head.val = r.get_value();
  m.log_depth = r.get_u32();
  head.reg = r.get_u32();
  const std::uint32_t count = r.get_u32();
  // Every entry occupies >= 28 wire bytes; an unsatisfiable count is a
  // malformed message (reject before reserving anything count-sized).
  if (static_cast<std::size_t>(count) * 28 > r.remaining()) {
    throw codec_error("message: bad entry count");
  }
  if (count == 0) {
    m.entries.push_back(std::move(head));
  } else {
    m.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      batch_entry e;
      e.reg = r.get_u32();
      e.ts = r.get_tag();
      e.val = r.get_value();
      m.entries.push_back(std::move(e));
    }
  }
  const std::uint32_t lease_count = r.get_u32();
  // Every lease note occupies exactly 12 wire bytes.
  if (static_cast<std::size_t>(lease_count) * 12 > r.remaining()) {
    throw codec_error("message: bad lease count");
  }
  m.leases.reserve(lease_count);
  for (std::uint32_t i = 0; i < lease_count; ++i) {
    lease_note n;
    n.reg = r.get_u32();
    n.holder_mask = r.get_u64();
    m.leases.push_back(n);
  }
  r.expect_done();
  return m;
}

std::size_t wire_size(const message& m) {
  // kind(1) + from(4) + op_seq(8) + round(4) + epoch(8)
  // + tag(8 + 8 + 4) + value(4 + n) + depth(4) + reg(4) + entry count(4)
  // + lease count(4)
  std::size_t sz = 1 + 4 + 8 + 4 + 8 + 20 + 4 + header_entry(m).val.size() + 4 + 4 + 4 + 4;
  if (listed_entries(m) > 0) {
    for (const batch_entry& e : m.entries) sz += 4 + 20 + 4 + e.val.size();
  }
  sz += m.leases.size() * 12;  // reg(4) + holder_mask(8)
  return sz;
}

std::string to_string(const message& m) {
  std::string out = to_string(m.kind);
  out += " from p" + std::to_string(m.from.index);
  out += " op" + std::to_string(m.op_seq) + "/r" + std::to_string(m.round);
  out += " [";
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    if (i > 0) out += ", ";
    out += "k" + std::to_string(m.entries[i].reg) + ":" + remus::to_string(m.entries[i].ts);
    if (!m.entries[i].val.is_initial()) out += "=" + remus::to_string(m.entries[i].val);
  }
  out += "]";
  out += " d=" + std::to_string(m.log_depth);
  return out;
}

}  // namespace remus::proto
