// Typed simulator events.
//
// The pre-refactor event queue stored one heap-allocated `std::function`
// closure per scheduled event. Virtually all simulator traffic falls into a
// handful of shapes, so events are a tagged union executed by the world
// driver (the cluster) through the `sim_executor` interface; the closure form
// survives as the `thunk` fallback for tests and cold paths, its closure kept
// in the queue's side table (the event holds only the table index).
//
// The payload fields are a union-by-convention: each kind reads only its own
// fields (documented below) and leaves the rest defaulted. No event owns a
// buffer: a message delivery holds a refcounted `shared_message` handle
// shared by every delivery of one broadcast, and a store completion names
// only its token and incarnation (the store's key and bytes wait in the
// issuing node's in-flight FIFO, see core::cluster). An event is 32 bytes,
// so a queue slot with its links and sort key fills one cache line.
//
// Layering note: sim/ deliberately depends on proto/message here — the
// simulator's whole workload is protocol messages, and typing them is what
// removes the per-event allocation.
#pragma once

#include <cstdint>

#include "common/ids.h"
#include "proto/shared_message.h"

namespace remus::sim {

enum class event_kind : std::uint8_t {
  none = 0,     // empty slot
  thunk,        // generic fallback: run the queue's closure number `a`
  message,      // deliver `msg` to `target`'s core
  log_done,     // store durable at `target`: token `a`, guarded by `incarnation`
  timer,        // protocol timer at `target`: token `a`, guarded by `incarnation`
  op_dispatch,  // client pump at `target`: op handle `a` (or redispatch)
  crash,        // fault injection at `target`
  recover,
  lease_expiry, // lease deadline at `target`: token `a`, guarded by `incarnation`
};

/// Sentinel for `sim_event::a` / `incarnation` meaning "no handle / no
/// incarnation guard".
inline constexpr std::uint64_t no_event_arg = ~0ULL;

struct sim_event {
  event_kind kind = event_kind::none;
  process_id target{};
  std::uint64_t a = no_event_arg;            // token, op handle or thunk index
  std::uint64_t incarnation = no_event_arg;  // guard; no_event_arg = unguarded
  proto::shared_message msg{};               // message
};
static_assert(sizeof(sim_event) == 32, "an event slot must fit one cache line");

/// Executes typed events popped by the event queue. Implemented by the world
/// driver (core::cluster); the queue runs `thunk` events itself.
class sim_executor {
 public:
  virtual void execute(sim_event& ev) = 0;

 protected:
  ~sim_executor() = default;
};

}  // namespace remus::sim
