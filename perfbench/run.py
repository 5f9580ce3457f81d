#!/usr/bin/env python3
"""Build and run the remus benchmark (workloads and metrics: README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds this directory's CMake project, which compiles the
library from ../src unchanged, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench at the repository root), then runs the perfbench
program. Build output goes to standard error. The program's last line of
standard output maps metric names to values; this script checks the names
against BENCHMARK.json, adds the units, and prints the result as the last
line. Exits non-zero, printing no result, when the build or the run fails or
a metric is missing.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload does not run; they read 0 there.
NOT_EXERCISED = {
    "sim_kv_faults": [
        # The simulator's stores sit inside core::cluster, where no
        # decorator can reach them.
        "storage.store_us", "storage.append_us", "storage.append_bytes_per_op",
        "storage.snapshot_us",
        "core.failed_by_cause.aborted", "core.failed_by_cause.timeout",
        "runtime.frames_per_op", "runtime.wire_bytes_per_op", "runtime.send_us_per_op",
        "runtime.handler_self_us", "runtime.wait_us_per_op", "runtime.ctx_switches_per_op",
        "runtime.cpu_us_per_op", "runtime.drops", "runtime.read_p99_us",
        "runtime.write_p99_us",
    ],
    "rt_tcp_kv": [
        "sim.events_per_op", "sim.allocs_per_event", "sim.retained_bytes_per_op",
        "sim.msgs_per_op", "sim.net_bytes_per_op", "sim.read_p99_us", "sim.write_p99_us",
        "sim.msgs_by_kind.sn_query",
        "sim.msgs_by_kind.sn_ack", "sim.msgs_by_kind.write", "sim.msgs_by_kind.write_ack",
        "sim.msgs_by_kind.read_query", "sim.msgs_by_kind.read_ack",
        "sim.msgs_by_kind.writeback",
        # Counted per op by the simulator's op collector and branch stats,
        # which the runtime does not keep.
        "proto.round_trips_per_read", "proto.round_trips_per_write",
        "proto.causal_logs_per_write", "proto.retransmits_per_kop",
        "proto.recovery_finish_writes_per_recovery",
        "core.submit_us_per_op", "core.failed_by_cause.dropped",
        "core.failed_by_cause.cut_short", "core.failed_by_cause.never_completed",
    ],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def run_logged(cmd):
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(bdir):
    """Configures on first use, then builds incrementally; returns the binary."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        if not os.path.exists(os.path.join(bdir, "build.ninja")) and not os.path.exists(
                os.path.join(bdir, "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if not run_logged(cmd):
                shutil.rmtree(os.path.join(bdir, "CMakeFiles"), ignore_errors=True)
                try:
                    os.remove(os.path.join(bdir, "CMakeCache.txt"))
                except FileNotFoundError:
                    pass
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if not run_logged(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]):
            return None
    return os.path.join(bdir, "perfbench")


def to_result(line, spec, workload, trace):
    """The contract's result object from the program's last line; raises
    ValueError naming what is wrong with it."""
    try:
        res = json.loads(line)
    except ValueError:
        raise ValueError("last line is not JSON")
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are not correct/attempted/failed/metrics")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    got = res["metrics"]
    defs = spec["per_layer" if trace else "end_to_end"]
    absent = set(NOT_EXERCISED[workload]) if trace else set()
    unknown = set(got) - {m["name"] for m in defs}
    if unknown:
        raise ValueError("metrics not in BENCHMARK.json: %s" % sorted(unknown))
    filled = set(got) & absent
    if filled:
        raise ValueError("metrics listed as not exercised were reported: %s" % sorted(filled))
    missing = [m["name"] for m in defs if m["name"] not in got and m["name"] not in absent]
    if missing:
        raise ValueError("metrics missing: %s" % missing)
    res["metrics"] = {m["name"]: {"value": got.get(m["name"], 0), "unit": m["unit"]}
                      for m in defs}
    return res


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = build_root()
    exe = build(os.path.join(root, "perfbench"))
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--scratch-dir", os.path.join(root, "perfbench-run")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        print("perfbench: program exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        res = to_result(lines[-1], spec, args.workload, args.trace)
    except ValueError as e:
        print("perfbench: invalid result: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(res))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
