// Open-loop keyed workloads in tests: one submit path and one run path over
// a core::cluster or a core::shard_router (both take submit(p, is_read,
// entries, at) and report result(h)).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/kv_workload.h"

namespace remus::sim {

/// Submits every op of `wc`'s schedule to `system`; one handle per op.
template <class System>
std::vector<typename System::op_handle> submit_workload(System& system,
                                                        const kv_workload_config& wc) {
  std::vector<typename System::op_handle> handles;
  for (const kv_op& op : make_kv_workload(wc)) {
    handles.push_back(system.submit(op.p, op.is_read, entries_of(op), op.at));
  }
  return handles;
}

/// Submits `wc`'s schedule, runs `system` to idle, and expects every op to
/// have completed (none dropped behind a crash).
template <class System>
std::vector<typename System::op_handle> run_workload(System& system,
                                                     const kv_workload_config& wc) {
  auto handles = submit_workload(system, wc);
  EXPECT_TRUE(system.run_until_idle(200'000'000));
  for (const auto h : handles) {
    const auto& res = system.result(h);
    EXPECT_TRUE(res.completed && !res.dropped) << "op " << h;
  }
  return handles;
}

}  // namespace remus::sim
