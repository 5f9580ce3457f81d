// The runtime workload, rt_tcp_kv: three runtime::node replicas in one
// process, each on its own runtime::tcp_transport (loopback) and its own
// storage::wal_store over storage::file_media (appends reach the files, not
// fsync). One closed-loop client thread on node 0 reads and writes uniformly
// over the key space; after every segment of ops it waits for quiescence and
// restarts node 0 from its WAL files (crash, reopen, recover).
//
// The only workload that exercises real sockets, the wire codec, WAL files
// and runtime recovery; the simulator layers do nothing here.
#pragma once

#include "common.h"

namespace perfbench {

/// Measures for `opt.seconds` of segment time. WAL files live in a fresh
/// directory under `opt.scratch_dir`, removed afterwards.
[[nodiscard]] pass_result run_rt_pass(const run_options& opt, bool traced);

}  // namespace perfbench
