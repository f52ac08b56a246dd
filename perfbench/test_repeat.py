#!/usr/bin/env python3
"""Exact-repeat guard for the benchmark's work counts.

Run from the repository root:

    python3 perfbench/test_repeat.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs perfbench/run.py twice per workload and mode (--trace 0 and 1)
with the same seed. Exits 1 if any metric that must repeat exactly
differs between the two runs, if a run fails a correctness check, or if
a run's metric names and units differ from BENCHMARK.json's lists. A
difference in a repeat-exact metric is nondeterminism in rtgen, not
timing noise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

EXACT_TRACED = [
    "heuristic.branches", "heuristic.created", "heuristic.dedup_hits",
    "heuristic.merges", "heuristic.evictions", "heuristic.weakenings",
    "heuristic.end_dedup", "heuristic.nonminimal", "heuristic.survivor_ratio",
    "codec.checkpoint_bytes", "daemon.checkpoints", "daemon.periods",
    "store.blobs", "store.ref_bytes_max", "trace.events", "trace.candidate_pairs",
]


def exact_untraced(workload):
    names = ["store_mb"]
    if WORKLOADS[workload]["kind"] == "learn":
        names.append("alloc_mb")
    return names


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(trace):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        doc = json.load(f)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    problems = []
    for w in args.workloads:
        for trace, names in ((0, exact_untraced(w)), (1, EXACT_TRACED)):
            a, b = (run(w, args.seed, args.seconds, trace) for _ in range(2))
            for r in (a, b):
                if r["failed"] or not r["correct"]:
                    problems.append(f"{w} --trace {trace}: {r['failed']} failed checks")
                units = {n: m["unit"] for n, m in r["metrics"].items()}
                if units != declared(trace):
                    problems.append(f"{w} --trace {trace}: metrics differ from BENCHMARK.json")
            for n in names:
                va, vb = a["metrics"][n]["value"], b["metrics"][n]["value"]
                status = "ok" if va == vb else "DIFFERS"
                print(f"{w:14s} trace={trace} {n:26s} {va!r:>22} {vb!r:>22} {status}")
                if va != vb:
                    problems.append(f"{w} --trace {trace}: {n} {va!r} != {vb!r}")
    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
