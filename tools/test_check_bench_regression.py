#!/usr/bin/env python3
"""Unit tests for tools/check_bench_regression.py (run directly).

With repetitions the gate must read each variant's `median` aggregate, not
the last repetition or the mean (here both would fail), and a baseline
variant missing from the current run must fail it.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as gate  # noqa: E402


def repeated(variant, values, median):
    """--benchmark_repetitions JSON for one variant: runs + aggregates."""
    name = variant + "/process_time/real_time"
    runs = [{"name": name, "run_name": name, "run_type": "iteration",
             "events/s": v} for v in values]
    for kind, v in (("mean", sum(values) / len(values)), ("median", median)):
        runs.append({"name": f"{name}_{kind}", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": kind,
                     "events/s": v})
    return runs


def run_gate(*variants):
    """Gates the variants against a BM_MergeParallel/1=100, /2=200 baseline."""
    with tempfile.TemporaryDirectory() as tmp:
        base, cur = Path(tmp) / "base.json", Path(tmp) / "cur.json"
        base.write_text(json.dumps({"families": {"BM_MergeParallel": {
            "metric": "events/s",
            "variants": {"BM_MergeParallel/1": 100.0,
                         "BM_MergeParallel/2": 200.0}}}}))
        cur.write_text(json.dumps({"benchmarks": sum(variants, [])}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = gate.main(["gate", "--baseline", str(base),
                                "--current", str(cur)])
    return status, out.getvalue()


class Gate(unittest.TestCase):
    def test_slow_last_repetition_passes_on_median(self):
        status, out = run_gate(
            repeated("BM_MergeParallel/1", [98, 99, 97, 101, 10], 98.0),
            repeated("BM_MergeParallel/2", [199, 201, 198, 202, 20], 199.0))
        self.assertEqual(status, 0, out)

    def test_missing_variant_fails(self):
        status, out = run_gate(
            repeated("BM_MergeParallel/1", [100] * 5, 100.0))
        self.assertEqual(status, 1, out)
        self.assertIn("MISSING", out)


if __name__ == "__main__":
    unittest.main()
