// Wire messages of the shared-memory emulations.
//
// All algorithms in the paper use six message kinds (Figures 4 and 5):
// sequence-number query/ack (the write's first round), write/ack (the second
// round of writes, the second round of reads, and the recovery round), and
// read query/ack (the read's first round). A `writeback` kind is transmitted
// for the read's second round: servers treat it exactly like `write`
// (adopt-if-newer and log), but keeping it distinct lets tests and flawed
// policy variants target it.
//
// A message concerns one or more registers and carries one entry per
// register: queries list registers, update rounds and read acks carry each
// register's (tag, value), and update acks list the registers they cover. A
// single-key operation's messages carry one entry.
//
// Two metadata fields ride along:
//  * `epoch`: a per-incarnation nonce, echoed in acks, so that
//    acknowledgements from before a crash can never satisfy a phase started
//    after recovery (request/response matching, not algorithmic state);
//  * `log_depth`: causal-log tracing (paper section I-B). A message carries
//    the number of causally-ordered stable-storage writes that precede it
//    within the current operation; acks after a server log carry depth + 1.
//
// Wire layout: the header (kind, from, op_seq, round, epoch), one register
// slot (tag, value, log_depth, register), an entry count and the entries,
// then the lease notes. A one-entry message puts its entry in the header's
// register slot and writes count 0; a message of several entries leaves
// that slot empty and lists them all. So a single-key message costs no
// entry framing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/ids.h"
#include "common/timestamp.h"
#include "common/value.h"

namespace remus::proto {

enum class msg_kind : std::uint8_t {
  sn_query = 1,   // paper: send(SN)
  sn_ack = 2,     // paper: send(SN_ack, sn)
  write = 3,      // paper: send(W, [sn, i], v)
  write_ack = 4,  // paper: send(W_ack)
  read_query = 5, // paper: send(R)
  read_ack = 6,   // paper: send(R_ack, [sn, pid], v)
  writeback = 7,  // read round 2; server-side identical to `write`
  lease_grant_ack = 8,  // R_ack + "your lease is durably recorded here"
  lease_grant = 9,      // read round 1 that also installs a read lease
};

[[nodiscard]] std::string to_string(msg_kind k);

/// Acknowledgements are exactly the even-valued kinds — the hot paths
/// classify messages with one parity test.
[[nodiscard]] constexpr bool is_ack_kind(msg_kind k) noexcept {
  return (static_cast<std::uint8_t>(k) & 1u) == 0;
}
static_assert(is_ack_kind(msg_kind::sn_ack) && is_ack_kind(msg_kind::write_ack) &&
              is_ack_kind(msg_kind::read_ack) && !is_ack_kind(msg_kind::sn_query) &&
              !is_ack_kind(msg_kind::write) && !is_ack_kind(msg_kind::read_query) &&
              !is_ack_kind(msg_kind::writeback) &&
              is_ack_kind(msg_kind::lease_grant_ack) &&
              !is_ack_kind(msg_kind::lease_grant));

/// One register's share of a message. Queries list registers (ts/val
/// defaulted); read acks and update rounds carry the register's (tag,
/// value); update acks name a register they cover.
struct batch_entry {
  register_id reg = default_register;
  tag ts;
  value val;

  friend bool operator==(const batch_entry&, const batch_entry&) = default;
};

/// An operation's register list names each register at most once: the one
/// rule the core (precondition_error) and every driver (driver_error, before
/// anything is recorded, routed or scheduled) enforce on an invocation.
/// Quadratic: operations carry a handful of registers.
[[nodiscard]] inline bool distinct_registers(std::span<const batch_entry> entries) noexcept {
  for (std::size_t i = 1; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (entries[j].reg == entries[i].reg) return false;
    }
  }
  return true;
}

/// One register's share of a write invocation (the submit API's argument).
struct write_op {
  register_id reg = default_register;
  value val;
};

/// The register lists the drivers' submit wrappers build: a single-key op
/// is a list of one; a write's entries carry its values.
[[nodiscard]] std::vector<batch_entry> single_entry(register_id reg, value v = {});
[[nodiscard]] std::vector<batch_entry> write_entries(std::vector<write_op> ops);
[[nodiscard]] std::vector<batch_entry> read_entries(const std::vector<register_id>& regs);

/// A replica's note, attached to an update-round ack, that it holds a
/// durable lease record for `reg`: bit h of `holder_mask` set means process
/// h may be serving leased reads of `reg`. The writer merges these masks
/// into the set of processes whose acks the operation must wait for — the
/// quorum-intersection step that makes leased reads linearizable (see
/// quorum_core.h, "Read leases").
struct lease_note {
  register_id reg = default_register;
  std::uint64_t holder_mask = 0;

  friend bool operator==(const lease_note&, const lease_note&) = default;
};

struct message {
  msg_kind kind = msg_kind::sn_query;
  process_id from;
  /// Phase correlation: invoking op + round within it + incarnation nonce.
  std::uint64_t op_seq = 0;
  std::uint32_t round = 0;
  std::uint64_t epoch = 0;
  /// Causal-log tracing metadata (see file comment).
  std::uint32_t log_depth = 0;
  /// One entry per register the message concerns (at least one on the
  /// wire: a message built with none encodes as one default entry).
  std::vector<batch_entry> entries;
  /// Lease notes riding on update-round acks (empty everywhere else).
  std::vector<lease_note> leases;

  friend bool operator==(const message&, const message&) = default;
};

/// Serialize for the threaded runtime's wire (and for size accounting in the
/// simulator: the simulated network charges exactly these bytes).
[[nodiscard]] bytes encode(const message& m);
[[nodiscard]] message decode_message(std::span<const std::uint8_t> wire);

/// Size in bytes of the encoded form, without materializing it.
[[nodiscard]] std::size_t wire_size(const message& m);

[[nodiscard]] std::string to_string(const message& m);

}  // namespace remus::proto
