#!/usr/bin/env python3
"""Self-test for compare.py (stdlib unittest only).

    python3 benchmark/test_compare.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.01},
    ],
}


def record(rate, lat, trace=0, correct=True):
    return {"workload": "w", "seed": 1, "trace": trace, "result": {
        "correct": correct, "attempted": 10, "failed": 0 if correct else 10,
        "metrics": {"rate": {"value": rate, "unit": "1/s"},
                    "lat_ms": {"value": lat, "unit": "ms"}}}}


class VerdictTest(unittest.TestCase):
    def test_direction_decides_better_or_worse(self):
        same = (100.0, 99.0, 101.0)
        self.assertEqual(compare.verdict(same, (120.0, 119.0, 121.0), "higher", 0.1), "better")
        self.assertEqual(compare.verdict(same, (120.0, 119.0, 121.0), "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(same, (80.0, 79.0, 81.0), "higher", 0.1), "worse")
        self.assertEqual(compare.verdict(same, (80.0, 79.0, 81.0), "lower", 0.1), "better")

    def test_within_bound_is_unchanged(self):
        self.assertEqual(
            compare.verdict((100.0, 99.0, 101.0), (105.0, 104.0, 106.0), "higher", 0.1),
            "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        # A 50% drop would be "worse", but the new side's quartiles span 30%.
        self.assertEqual(
            compare.verdict((100.0, 99.0, 101.0), (50.0, 40.0, 55.0), "higher", 0.1),
            "unresolved")

    def test_exact_metrics_must_match_within_bound(self):
        exact = (10.0, 10.0, 10.0)
        self.assertEqual(compare.verdict(exact, exact, "lower", 0.0), "unchanged")
        self.assertEqual(compare.verdict(exact, (10.05, 10.05, 10.05), "lower", 0.01),
                         "unchanged")
        self.assertEqual(compare.verdict(exact, (10.2, 10.2, 10.2), "lower", 0.01), "worse")

    def test_summary_uses_statistics_quartiles(self):
        med, q1, q3 = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))
        self.assertEqual(compare.summary([7.0]), (7.0, 7.0, 7.0))


class MainTest(unittest.TestCase):
    def run_main(self, old_records, new_records):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, recs in (("old.jsonl", old_records), ("new.jsonl", new_records)):
                p = pathlib.Path(d) / name
                p.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
                paths.append(str(p))
            spec = pathlib.Path(d) / "BENCHMARK.json"
            spec.write_text(json.dumps(SPEC), encoding="utf-8")
            out = io.StringIO()
            argv = ["compare.py", *paths, "--spec", str(spec)]
            with mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(out):
                code = compare.main()
        return code, out.getvalue()

    def test_agreeing_sets_exit_zero(self):
        old = [record(100 + i, 5.0) for i in range(5)]
        new = [record(101 + i, 5.0) for i in range(5)]
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("unchanged"), 2)

    def test_regression_exits_one(self):
        old = [record(100 + i, 5.0) for i in range(5)]
        new = [record(100 + i, 5.5) for i in range(5)]
        code, out = self.run_main(old, new)
        self.assertEqual(code, 1)
        self.assertIn("worse", out)

    def test_traced_runs_are_ignored_and_failures_counted(self):
        old = [record(100, 5.0), record(1.0, 99.0, trace=1)]
        new = [record(100, 5.0, correct=False)]
        code, out = self.run_main(old, new)
        self.assertEqual(code, 0, out)
        self.assertIn("new: 10 of 10 sessions failed", out)

    def test_missing_metric_exits_one(self):
        code, out = self.run_main([record(100, 5.0)], [])
        self.assertEqual(code, 1)
        self.assertIn("missing", out)


if __name__ == "__main__":
    unittest.main()
