#!/usr/bin/env python3
"""Tests for scripts/bench_compare.py: names match across GOMAXPROCS
suffixes, and a baselined benchmark missing from the current run fails the
gate.

    python3 scripts/test_bench_compare.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")


def snapshot(names, ns=100_000.0):
    return {"benchmarks": [
        {"package": "qisim", "name": n, "samples": 1, "iterations": 1,
         "metrics": {"ns/op": {"min": ns, "mean": ns, "max": ns}}}
        for n in names]}


class BenchCompareTest(unittest.TestCase):
    def compare(self, base, cur):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for label, doc in (("base", base), ("cur", cur)):
                p = os.path.join(d, label + ".json")
                with open(p, "w") as f:
                    json.dump(doc, f)
                paths.append(p)
            return subprocess.run([sys.executable, SCRIPT, *paths],
                                  capture_output=True, text=True)

    def test_procs_suffix_is_ignored(self):
        base = snapshot(["BenchmarkFig19MultiRound", "BenchmarkDecoder/workers=4"])
        cur = snapshot(["BenchmarkFig19MultiRound-2", "BenchmarkDecoder/workers=4-2"])
        r = self.compare(base, cur)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("MISSING", r.stdout)
        self.assertIn("2 baselined, 0 fail", r.stdout)

    def test_missing_benchmark_fails(self):
        base = snapshot(["BenchmarkFig19MultiRound", "BenchmarkFig20FastDriving"])
        cur = snapshot(["BenchmarkFig19MultiRound-2"])
        r = self.compare(base, cur)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("MISSING", r.stdout)
        self.assertIn("1 fail", r.stdout)

    def test_regression_still_fails(self):
        r = self.compare(snapshot(["BenchmarkFig19MultiRound"]),
                         snapshot(["BenchmarkFig19MultiRound-2"], ns=200_000.0))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
