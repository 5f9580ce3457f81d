// History recorder: drivers report invocation/reply/crash/recovery events
// as they happen; the recorder appends them in real-time order. Thread-safe
// (the threaded runtime reports from many threads; the simulator from one).
//
// A reported time is never rewritten: an event earlier than the last one
// appended throws driver_error. The simulator reports its virtual clock,
// which never runs backwards. The runtime's threads race, so they pass a
// clock instead of a time: the recorder reads it under its lock, and events
// from racing threads append in time order with the times they really had.
//
// Events are keyed by register: the keyed overloads record which register of
// the namespace an operation targets (a batched operation reports one
// invoke/reply pair per register), and the unkeyed overloads default to the
// paper's single register 0.
#pragma once

#include <mutex>

#include "history/event.h"

namespace remus::history {

class recorder {
 public:
  void invoke_read(process_id p, time_ns at) {
    invoke_read(p, default_register, at);
  }
  void invoke_write(process_id p, const value& v, time_ns at) {
    invoke_write(p, default_register, v, at);
  }
  void reply_read(process_id p, const value& v, time_ns at) {
    reply_read(p, default_register, v, at);
  }
  void reply_write(process_id p, time_ns at) {
    reply_write(p, default_register, at);
  }

  void invoke_read(process_id p, register_id reg, time_ns at);
  void invoke_write(process_id p, register_id reg, const value& v, time_ns at);
  void reply_read(process_id p, register_id reg, const value& v, time_ns at);
  void reply_write(process_id p, register_id reg, time_ns at);
  void crash(process_id p, time_ns at);
  void recover(process_id p, time_ns at);

  /// The same events stamped with `clock()`, read under the recorder's lock.
  using clock_fn = time_ns (*)();
  void invoke_read(process_id p, register_id reg, clock_fn clock);
  void invoke_write(process_id p, register_id reg, const value& v, clock_fn clock);
  void reply_read(process_id p, register_id reg, const value& v, clock_fn clock);
  void reply_write(process_id p, register_id reg, clock_fn clock);
  void crash(process_id p, clock_fn clock);
  void recover(process_id p, clock_fn clock);

  /// Snapshot of the history so far.
  [[nodiscard]] history_log events() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  /// Appends `e`, stamped with `clock()` first when one is given.
  void push(event e, clock_fn clock = nullptr);

  mutable std::mutex mu_;
  history_log log_;
};

}  // namespace remus::history
