#!/usr/bin/env python3
"""Convert `go test -bench` output on stdin into a benchmark snapshot JSON.

Run the benchmarks with repetition so the snapshot carries real statistics,
e.g.:

    go test -bench . -benchmem -benchtime 100ms -count 3 -run '^$' ./... \
        | python3 scripts/bench_baseline.py > BENCH_baseline.json

Every `BenchmarkName-P  N  T ns/op [extra unit]...` line becomes one sample;
samples of the same (package, benchmark) are aggregated into per-unit
min/mean/max. A single `-benchtime 1x -count 1` run still works — it simply
yields samples=1 with min == mean == max. The output is sorted by
(package, name) so regeneration diffs cleanly.

Snapshot schema (the "aggregate" format):

    {"benchmarks": [
        {"package": "qisim", "name": "BenchmarkFoo/workers=1",
         "samples": 3, "iterations": 123,
         "metrics": {"ns/op": {"min": ..., "mean": ..., "max": ...}, ...}}
    ]}

scripts/bench_compare.py reads this format as well as the legacy
single-sample format ({"metrics": {"ns/op": 123.0}}).
"""
import json
import sys


def main() -> None:
    # (package, name) -> {"iterations": max, "units": {unit: [samples...]}}
    agg = {}
    pkg = ""
    for line in sys.stdin:
        line = line.rstrip("\n")
        if line.startswith("pkg: "):
            pkg = line[len("pkg: "):].strip()
            continue
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        if len(fields) < 4 or "ns/op" not in fields:
            continue
        name = fields[0]
        try:
            iterations = int(fields[1])
        except (IndexError, ValueError):
            continue
        rec = agg.setdefault((pkg, name), {"iterations": 0, "units": {}})
        rec["iterations"] = max(rec["iterations"], iterations)
        rest = fields[2:]
        for value, unit in zip(rest[0::2], rest[1::2]):
            try:
                rec["units"].setdefault(unit, []).append(float(value))
            except ValueError:
                continue

    records = []
    for (rpkg, name), rec in agg.items():
        metrics = {}
        nsamples = 0
        for unit, samples in rec["units"].items():
            nsamples = max(nsamples, len(samples))
            metrics[unit] = {
                "min": min(samples),
                "mean": sum(samples) / len(samples),
                "max": max(samples),
            }
        records.append({
            "package": rpkg,
            "name": name,
            "samples": nsamples,
            "iterations": rec["iterations"],
            "metrics": metrics,
        })

    records.sort(key=lambda r: (r["package"], r["name"]))
    json.dump({"benchmarks": records}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
