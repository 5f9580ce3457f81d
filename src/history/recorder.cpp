#include "history/recorder.h"

#include "common/error.h"

namespace remus::history {

void recorder::push(event e, clock_fn clock) {
  std::lock_guard lk(mu_);
  if (clock != nullptr) e.at = clock();
  if (!log_.empty() && e.at < log_.back().at) {
    throw driver_error("recorder: " + to_string(e) + " is earlier than the last event, " +
                       to_string(log_.back()));
  }
  log_.push_back(std::move(e));
}

void recorder::invoke_read(process_id p, register_id reg, time_ns at) {
  push(event{event_kind::invoke_read, p, {}, at, reg});
}

void recorder::invoke_write(process_id p, register_id reg, const value& v, time_ns at) {
  push(event{event_kind::invoke_write, p, v, at, reg});
}

void recorder::reply_read(process_id p, register_id reg, const value& v, time_ns at) {
  push(event{event_kind::reply_read, p, v, at, reg});
}

void recorder::reply_write(process_id p, register_id reg, time_ns at) {
  push(event{event_kind::reply_write, p, {}, at, reg});
}

void recorder::crash(process_id p, time_ns at) {
  push(event{event_kind::crash, p, {}, at});
}

void recorder::recover(process_id p, time_ns at) {
  push(event{event_kind::recover, p, {}, at});
}

void recorder::invoke_read(process_id p, register_id reg, clock_fn clock) {
  push(event{event_kind::invoke_read, p, {}, 0, reg}, clock);
}

void recorder::invoke_write(process_id p, register_id reg, const value& v, clock_fn clock) {
  push(event{event_kind::invoke_write, p, v, 0, reg}, clock);
}

void recorder::reply_read(process_id p, register_id reg, const value& v, clock_fn clock) {
  push(event{event_kind::reply_read, p, v, 0, reg}, clock);
}

void recorder::reply_write(process_id p, register_id reg, clock_fn clock) {
  push(event{event_kind::reply_write, p, {}, 0, reg}, clock);
}

void recorder::crash(process_id p, clock_fn clock) {
  push(event{event_kind::crash, p, {}, 0}, clock);
}

void recorder::recover(process_id p, clock_fn clock) {
  push(event{event_kind::recover, p, {}, 0}, clock);
}

history_log recorder::events() const {
  std::lock_guard lk(mu_);
  return log_;
}

std::size_t recorder::size() const {
  std::lock_guard lk(mu_);
  return log_.size();
}

void recorder::clear() {
  std::lock_guard lk(mu_);
  log_.clear();
}

}  // namespace remus::history
