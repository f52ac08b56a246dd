#!/usr/bin/env python3
"""CI perf gate: a fresh bench payload against the committed baseline.

bench/main.exe (with RTGEN_BENCH_JSON set) writes each gated row as two
sample lists taken on one host in interleaved rounds, one sample per
side per round:

    table1 bound=B      Heuristic.run                / Reference.run
    sharded K=k ...     K-shard session, one domain  / monolithic run
    recorder bound=B    engine feed, recorder on     / recorder off

The second side is the first's yardstick. Both sides of a round run
next to each other, so their ratio cancels the host's speed at that
moment; a row's ratio is the median of its per-round ratios. (A ratio
of the two sides' medians does not cancel it: on a shared host whose
speed flips between two modes, each side's median lands in whichever
mode most of its samples hit.) A row's slowdown is the fresh ratio
over the baseline's, and the row fails when it exceeds its band

    band = min(1.25, 1 + spread(fresh) + spread(baseline))

where spread() is the interquartile range of one payload's per-round
ratios over their median. So a quiet pair of payloads gets a tight
band, and a noisy one never more than 25%.

Both payloads must carry the same rows, each with at least five
samples per side, paired by round; anything else is refused, never
skipped. The gated sharded rows are the one-domain runs, which every
payload has whatever its RTGEN_BENCH_JOBS: the parallel runs measure
how many free cores the host has, and CI's multicore criterion reads
those. A fast-mode payload has other rows and is refused against a
full one.

Standard library only (CI containers have no extra packages).

Usage: scripts/check_bench.py FRESH.json [BASELINE.json]
BASELINE defaults to the committed BENCH_heuristic.json at the repo
root. Exit 0 when every row is within its band; otherwise print each
failure or refusal and exit 1.
"""

import json
import statistics
import sys
from pathlib import Path

MAX_BAND = 1.25
MIN_SAMPLES = 5


class Refused(Exception):
    """A payload the gate cannot compare."""


def gated_rows(doc):
    """Map each gated row's name to its (subject, yardstick) samples."""
    rows = {}
    for r in doc.get("table1", []):
        rows[f"table1 bound={r['bound']}"] = (
            r.get("heuristic_samples"), r.get("reference_samples"))
    sh = doc.get("sharded")
    if sh:
        for run in sh.get("runs", []):
            if run.get("jobs") == 1:
                rows[f"sharded K={run['shards']} bound={sh['bound']}"] = (
                    run.get("samples"), sh.get("monolithic_samples"))
    rec = doc.get("recorder")
    if rec:
        rows[f"recorder bound={rec['bound']}"] = (
            rec.get("on_samples"), rec.get("off_samples"))
    return rows


def round_ratios(name, sides):
    subject, yardstick = sides
    for side in sides:
        if not side or len(side) < MIN_SAMPLES:
            raise Refused(f"{name}: {len(side or [])} samples on a side, "
                          f"need at least {MIN_SAMPLES}")
        if min(side) <= 0:
            raise Refused(f"{name}: a sample is not positive")
    if len(subject) != len(yardstick):
        raise Refused(f"{name}: {len(subject)} and {len(yardstick)} "
                      "samples are not paired by round")
    return [s / y for s, y in zip(subject, yardstick)]


def spread(ratios):
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return (q3 - q1) / median


def band(fresh_ratios, base_ratios):
    """The largest slowdown the two payloads' own noise cannot tell
    from a regression, capped at MAX_BAND."""
    return min(MAX_BAND, 1 + spread(fresh_ratios) + spread(base_ratios))


def compare(name, fresh_sides, base_sides):
    """Print one row's verdict; return its failure message or None."""
    fresh_ratios = round_ratios(name, fresh_sides)
    base_ratios = round_ratios(name, base_sides)
    limit = band(fresh_ratios, base_ratios)
    fresh = statistics.median(fresh_ratios)
    base = statistics.median(base_ratios)
    slowdown = fresh / base
    failed = slowdown > limit
    print(f"{name}: {fresh:.3f} vs baseline {base:.3f} -> "
          f"{slowdown:.2f}x (band {limit:.2f}x) "
          f"[{'FAIL' if failed else 'ok'}]")
    if failed:
        return (f"{name}: slowed down {slowdown:.2f}x against the baseline "
                f"(band {limit:.2f}x)")
    return None


def check(fresh, base):
    """Gate FRESH against BASE; return the failure messages."""
    fresh_rows, base_rows = gated_rows(fresh), gated_rows(base)
    if not base_rows:
        raise Refused("the baseline has no gated rows")
    if fresh_rows.keys() != base_rows.keys():
        missing = sorted(base_rows.keys() - fresh_rows.keys())
        extra = sorted(fresh_rows.keys() - base_rows.keys())
        raise Refused(
            f"rows differ: missing from fresh {missing}, not in baseline "
            f"{extra} (a fast-mode payload?)")
    failures = [compare(name, fresh_rows[name], sides)
                for name, sides in base_rows.items()]
    return [f for f in failures if f]


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    fresh_path = Path(argv[1])
    base_path = (
        Path(argv[2]) if len(argv) == 3
        else Path(__file__).resolve().parent.parent / "BENCH_heuristic.json"
    )
    try:
        failures = check(json.loads(fresh_path.read_text()),
                         json.loads(base_path.read_text()))
    except Refused as e:
        sys.exit(f"check_bench: refused {fresh_path.name} against "
                 f"{base_path.name}: {e}")
    if failures:
        sys.exit("\n".join(failures))
    print(f"{fresh_path.name}: every row within its band of "
          f"{base_path.name}")


if __name__ == "__main__":
    main(sys.argv)
