#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads w1,w2] [--runs 10] [--seed0 1]
                                [--out set.json] [--compare earlier.json]

Runs perfbench/run.py once per seed (seed0 .. seed0+runs-1) on each workload
with BENCHMARK.json's run_seconds, then prints per end-to-end metric the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread is
flagged when it reaches the metric's bound; with --compare, a median worse
than the earlier set's by more than the bound is flagged too. Exits 1 if
anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, proc.returncode,
                                                       lines[-3:]))
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    flagged = False
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed0 + i, spec["run_seconds"]))
            print("  %s seed %d done" % (workload, args.seed0 + i), file=sys.stderr)
        results[workload] = runs
        print("%s (%d runs)" % (workload, len(runs)))
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            note = ""
            if spread >= m["bound"]:
                note, flagged = "  SPREAD OVER BOUND", True
            if workload in earlier:
                prev = statistics.median(r[m["name"]] for r in earlier[workload])
                worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
                note += "  vs earlier %+.1f%%" % (100 * worse)
                if worse > m["bound"]:
                    note, flagged = note + " OVER BOUND", True
            print("  %-13s median %14.4f %-5s spread %6.3f  bound %.2f  (1/3 bound %.3f)%s" %
                  (m["name"], med, m["unit"], spread, m["bound"], m["bound"] / 3, note))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as e:
        print("spread: %s" % e, file=sys.stderr)
        sys.exit(1)
