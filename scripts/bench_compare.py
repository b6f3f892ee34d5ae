#!/usr/bin/env python3
"""Compare a fresh benchmark snapshot against a committed baseline.

    go test -bench . -benchmem -benchtime 100ms -count 3 -run '^$' ./... \
        | python3 scripts/bench_baseline.py > /tmp/bench_current.json
    python3 scripts/bench_compare.py BENCH_baseline.json /tmp/bench_current.json

Both files may be in either snapshot format bench_baseline.py has produced:
the legacy single-sample format ({"metrics": {"ns/op": 123.0}}) or the
aggregate format ({"metrics": {"ns/op": {"min":..,"mean":..,"max":..}}}).
Comparison is on min ns/op — the most repeatable statistic of a benchmark,
immune to one-off scheduler hiccups in either snapshot.

Benchmark names are compared without Go's "-P" GOMAXPROCS suffix
(BenchmarkFoo-8 and BenchmarkFoo are the same benchmark), so snapshots
recorded on hosts with different core counts line up.

Exit status is non-zero iff any benchmark regresses beyond its FAIL
threshold or a baselined benchmark is missing from the current run (a
renamed or deleted benchmark must not pass the gate silently). Drift
between the warn and fail thresholds prints a WARN line but does not fail
the gate (benchmarks on shared CI runners jitter); speedups never fail. Per-benchmark thresholds: sub-10µs benchmarks get wider bands
(a single descheduling tick is a large relative error there), and OVERRIDES
pins explicit bands for benchmarks known to be noisy.
"""
import argparse
import json
import re
import sys

# Default regression thresholds on the current/baseline min-ns/op ratio.
WARN_RATIO = 1.15
FAIL_RATIO = 1.60

# Wider bands for very fast benchmarks: at sub-10µs per op, one scheduler
# tick or cache-migration in the harness swamps the signal.
MICRO_NS = 10_000.0
MICRO_WARN = 1.50
MICRO_FAIL = 3.00

# Explicit per-benchmark overrides (name -> (warn, fail)). These take
# precedence over the magnitude-based defaults.
OVERRIDES = {
    # Single-digit-nanosecond kernel; timer granularity dominates.
    "BenchmarkFixedPointNCO": (2.0, 5.0),
    # Spawns goroutine fleets; highly sensitive to machine load.
    "BenchmarkTracedShardOverhead/off": (1.3, 2.0),
    "BenchmarkTracedShardOverhead/on": (1.3, 2.0),
}


# Go appends "-P" to a benchmark's name when GOMAXPROCS is P > 1.
PROCS_SUFFIX = re.compile(r"-\d+$")


def load(path):
    """Return {(package, name): min ns/op} for either snapshot format, with
    the GOMAXPROCS suffix stripped from every name."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for rec in doc.get("benchmarks", []):
        m = rec.get("metrics", {}).get("ns/op")
        if m is None:
            continue
        if isinstance(m, dict):
            val = float(m["min"])
        else:
            val = float(m)  # legacy single sample
        key = (rec.get("package", ""), PROCS_SUFFIX.sub("", rec["name"]))
        out[key] = min(val, out.get(key, val))
    return out


def thresholds(name, base_ns):
    if name in OVERRIDES:
        return OVERRIDES[name]
    if base_ns < MICRO_NS:
        return MICRO_WARN, MICRO_FAIL
    return WARN_RATIO, FAIL_RATIO


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed snapshot (e.g. BENCH_baseline.json)")
    ap.add_argument("current", help="fresh snapshot from scripts/bench_baseline.py")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    failures = warnings = improvements = 0
    rows = []
    for key in sorted(base):
        pkg, name = key
        if key not in cur:
            rows.append((name, "MISSING", "-", "benchmark absent from current run", "FAIL"))
            failures += 1
            continue
        b, c = base[key], cur[key]
        ratio = c / b if b > 0 else float("inf")
        warn, fail = thresholds(name, b)
        if ratio > fail:
            status, note = "FAIL", f"regressed beyond {fail:.2f}x"
            failures += 1
        elif ratio > warn:
            status, note = "WARN", f"drift beyond {warn:.2f}x (non-blocking)"
            warnings += 1
        elif ratio < 1 / warn:
            status, note = "FAST", "improved — consider refreshing the baseline"
            improvements += 1
        else:
            status, note = "ok", ""
        rows.append((name, f"{ratio:5.2f}x", f"{b:>12.0f} -> {c:>12.0f} ns/op", note, status))
    for key in sorted(set(cur) - set(base)):
        rows.append((key[1], "NEW", "-", "not in baseline; refresh to track it", "info"))

    width = max((len(r[0]) for r in rows), default=20)
    for name, ratio, detail, note, status in rows:
        print(f"{status:>4}  {name:<{width}}  {ratio:>7}  {detail}  {note}")

    print(f"\n{len(base)} baselined, {failures} fail, {warnings} warn, {improvements} improved")
    if failures:
        print("bench-compare: FAIL — a benchmark regressed beyond threshold or is missing", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
