// In-memory spans for the traced run.
//
// A span is a named wall-clock interval recorded around a call into one
// layer, with the span that caused it (its parent on the same thread) and a
// request id shared by every span of one protocol operation. Spans nest per
// thread, so a span's self time is its duration minus its children's.
// Recording is off unless enabled; a disabled span_scope costs one relaxed
// load. Spans stay in memory until write_tsv() at exit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct span {
  const char* name = "";
  std::int64_t start_ns = 0;  // steady_clock
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;   // duration minus child spans
  std::int64_t parent = -1;   // index into the same thread's spans, -1 = root
  std::uint64_t req = 0;      // request id, 0 = none
  std::uint32_t thread = 0;   // recording thread's slot
};

/// Request id of one protocol operation, from its messages' (op_seq, epoch).
[[nodiscard]] std::uint64_t request_id(std::uint64_t op_seq, std::uint64_t epoch);

void enable(bool on);
[[nodiscard]] bool enabled();
/// Drops every recorded span (threads that recorded may still be alive).
void reset();
/// Every recorded span, all threads. Call only while no thread records.
[[nodiscard]] std::vector<span> collect();
/// Writes collect() as tab-separated lines; returns spans written.
std::size_t write_tsv(const std::string& path);

/// Sets the request id of the innermost open span on this thread when it
/// has none yet (a client span learns its id from its first message).
void adopt_request(std::uint64_t req);

/// RAII span. `req` 0 inherits the enclosing span's request id.
class span_scope {
 public:
  explicit span_scope(const char* name, std::uint64_t req = 0);
  ~span_scope();
  span_scope(const span_scope&) = delete;
  span_scope& operator=(const span_scope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace perfbench::trace
