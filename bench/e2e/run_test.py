#!/usr/bin/env python3
"""Unit tests for run.py's statistics and compare rule.

  python3 bench/e2e/run_test.py
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ next to run.py
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ],
    "per_layer": [
        {"name": "storage.scan_share", "unit": "fraction", "better": "lower"},
        {"name": "exec.sort_runs", "unit": "count", "better": "lower"},
    ],
}
LATENCY = SPEC["end_to_end"][0]
THROUGHPUT = SPEC["end_to_end"][1]


def write_results(directory, workload, metric, unit, values, seeds=None,
                  smoke=False, seconds=20, prefix=""):
    """One result file per value, in the format run.py writes; the i-th
    value ran at seeds[i] (default: all at seed 7)."""
    for i, value in enumerate(values):
        record = {"stamp": f"{prefix}{i:03d}",
                  "seed": seeds[i] if seeds else 7,
                  "seconds": seconds, "smoke": smoke, "runs": [{
                      "workload": workload, "trace": 0, "correct": True,
                      "attempted": 1, "failed": 0, "errors": [],
                      "metrics": {metric: {"value": value, "unit": unit,
                                           "samples": 100}}}]}
        Path(directory, f"{prefix}{i:03d}.json").write_text(
            json.dumps(record))
    # A chrome-trace file in the same directory is ignored.
    Path(directory, "000-w-trace.json").write_text('{"traceEvents": []}')


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [35, 20, 15, 50, 40]
        self.assertEqual(run.percentile(values, 0), 15)
        self.assertEqual(run.percentile(values, 5), 15)
        self.assertEqual(run.percentile(values, 30), 20)
        self.assertEqual(run.percentile(values, 40), 20)
        self.assertEqual(run.percentile(values, 50), 35)
        self.assertEqual(run.percentile(values, 100), 50)

    def test_tail_of_hundred_samples(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 99), 99)

    def test_summary_quartiles(self):
        s = run.summary([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2, 4, 6))
        self.assertEqual(s["iqr"], 4)
        self.assertEqual(s["runs"], 8)


class LabelTest(unittest.TestCase):
    def test_within_bound_is_no_worse(self):
        parent = [100, 101, 99, 100, 100]
        change = [105, 106, 104, 105, 105]  # 5% slower, bound 10%
        self.assertEqual(run.label_pair(parent, change, LATENCY), "no worse")

    def test_beyond_bound_regresses(self):
        parent = [100, 101, 99, 100, 100]
        change = [115, 116, 114, 115, 115]  # 15% slower
        self.assertEqual(run.label_pair(parent, change, LATENCY),
                         "regressed")

    def test_direction_follows_better(self):
        parent = [100, 101, 99, 100, 100]
        lower = [85, 86, 84, 85, 85]
        self.assertEqual(run.label_pair(parent, lower, THROUGHPUT),
                         "regressed")
        self.assertEqual(run.label_pair(parent, lower, LATENCY), "no worse")

    def test_wide_spread_is_unresolved(self):
        parent = [80, 90, 100, 110, 120]  # IQR 20% of the median
        change = [82, 92, 101, 112, 121]
        self.assertEqual(run.label_pair(parent, change, LATENCY),
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        parent = [150, 170, 190, 210, 230]
        change = [50, 60, 70, 80, 90]
        self.assertEqual(run.label_pair(parent, change, LATENCY), "no worse")


class ClaimTest(unittest.TestCase):
    PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]

    def test_nine_wins_and_clear_gap_holds(self):
        change = [90, 91, 89, 92, 90, 88, 91, 90, 105, 89]
        holds, reason = run.claim_holds(self.PARENT, change, "lower")
        self.assertTrue(holds, reason)

    def test_eight_wins_fail(self):
        change = [90, 91, 89, 92, 90, 88, 91, 90, 105, 106]
        holds, reason = run.claim_holds(self.PARENT, change, "lower")
        self.assertFalse(holds)
        self.assertIn("won 8 of 10", reason)

    def test_ties_count_for_neither(self):
        change = [90, 91, 89, 92, 90, 88, 91, 90, 100, 101]
        holds, reason = run.claim_holds(self.PARENT, change, "lower")
        self.assertFalse(holds)
        self.assertIn("won 8 of 10", reason)

    def test_gap_within_parent_iqr_fails(self):
        change = [v - 1.5 for v in self.PARENT]  # wins all, tiny gap
        holds, reason = run.claim_holds(self.PARENT, change, "lower")
        self.assertFalse(holds)
        self.assertIn("IQR", reason)

    def test_fewer_than_ten_pairs_fail(self):
        holds, reason = run.claim_holds(self.PARENT[:9],
                                        [50] * 9, "lower")
        self.assertFalse(holds)
        self.assertIn("at least 10", reason)

    def test_higher_is_better(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertTrue(run.claim_holds(self.PARENT, change, "higher")[0])
        self.assertFalse(run.claim_holds(self.PARENT, change, "lower")[0])


def binary_run(trace, metrics):
    """A run as reldiv_e2e prints it: measured metrics, without units."""
    return {"workload": "w", "trace": trace, "correct": True, "attempted": 3,
            "failed": 0, "errors": [],
            "metrics": {name: {"value": v, "samples": 3}
                        for name, v in metrics.items()}}


class SpecTest(unittest.TestCase):
    def test_units_and_order_come_from_the_spec(self):
        r = binary_run(0, {"ops_per_s": 2.5, "latency_ms_p50": 4.0})
        run.apply_spec(r, SPEC)
        self.assertTrue(r["correct"], r["errors"])
        self.assertEqual(list(r["metrics"]), ["latency_ms_p50", "ops_per_s"])
        self.assertEqual(r["metrics"]["ops_per_s"],
                         {"value": 2.5, "unit": "1/s", "samples": 3})

    def test_unreached_layer_reads_zero(self):
        r = binary_run(1, {"exec.sort_runs": 110})
        run.apply_spec(r, SPEC)
        self.assertTrue(r["correct"], r["errors"])
        self.assertEqual(r["metrics"]["storage.scan_share"],
                         {"value": 0, "unit": "fraction", "samples": 0})

    def test_missing_end_to_end_metric_fails(self):
        r = binary_run(0, {"latency_ms_p50": 4.0})
        run.apply_spec(r, SPEC)
        self.assertFalse(r["correct"])
        self.assertIn("ops_per_s is missing", r["errors"][0])

    def test_unlisted_metric_fails(self):
        r = binary_run(1, {"exec.sort_share": 0.8})
        run.apply_spec(r, SPEC)
        self.assertFalse(r["correct"])
        self.assertIn("exec.sort_share is not in BENCHMARK.json",
                      r["errors"][0])

    def test_run_length_is_fixed_by_the_spec(self):
        seconds = run.load_spec()["run_seconds"]
        # Refused before anything is built or run.
        with contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(run.main(["--seconds", str(seconds + 1)]), 2)
        self.assertIn("run_seconds", err.getvalue())


class CompareTest(unittest.TestCase):
    def test_compare_reads_result_directories(self):
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            write_results(parent, "w", "latency_ms_p50", "ms",
                          ClaimTest.PARENT)
            write_results(change, "w", "latency_ms_p50", "ms",
                          [90, 91, 89, 92, 90, 88, 91, 90, 105, 89])
            rows, verdicts = run.compare(
                parent, change,
                ["latency_ms_p50@w", "ops_per_s@w"], SPEC)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0]["label"], "no worse")
        self.assertEqual(rows[0]["parent"]["runs"], 10)
        self.assertEqual(verdicts[0][:2], ("latency_ms_p50@w", True))
        self.assertEqual(verdicts[1][:2], ("ops_per_s@w", False))

    def compare_dirs(self, fill_parent, fill_change):
        with tempfile.TemporaryDirectory() as parent, \
                tempfile.TemporaryDirectory() as change:
            fill_parent(parent)
            fill_change(change)
            return run.compare(parent, change, ["latency_ms_p50@w"], SPEC)

    def test_smoke_run_mixed_into_full_runs_is_refused(self):
        def parent(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT)
            write_results(d, "w", "latency_ms_p50", "ms", [1.0], smoke=True,
                          seconds=1, prefix="smoke-")

        def change(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT)

        with self.assertRaisesRegex(run.BenchError, "one setting"):
            self.compare_dirs(parent, change)

    def test_sides_of_different_run_length_are_refused(self):
        def parent(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT)

        def change(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT,
                          seconds=10)

        with self.assertRaisesRegex(run.BenchError, "smoke, seconds"):
            self.compare_dirs(parent, change)

    def test_sides_of_different_seeds_are_refused(self):
        def parent(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT,
                          seeds=list(range(1, 11)))

        def change(d):
            write_results(d, "w", "latency_ms_p50", "ms", ClaimTest.PARENT,
                          seeds=list(range(11, 21)))

        with self.assertRaisesRegex(run.BenchError, "seeds"):
            self.compare_dirs(parent, change)

    def test_pairs_are_matched_by_seed(self):
        # Seed n costs 100 + 10 n on the parent and 1 less on the change, so
        # the change wins every pair of one seed; in file order it would
        # win only half of them.
        seeds = list(range(1, 11))

        def parent(d):
            write_results(d, "w", "latency_ms_p50", "ms",
                          [100 + 10 * s for s in seeds], seeds=seeds)

        def change(d):
            reversed_seeds = seeds[::-1]
            write_results(d, "w", "latency_ms_p50", "ms",
                          [99 + 10 * s for s in reversed_seeds],
                          seeds=reversed_seeds)

        _, verdicts = self.compare_dirs(parent, change)
        claim, holds, reason = verdicts[0]
        self.assertFalse(holds)
        self.assertIn("IQR", reason)  # every pair won; the gap is too small

    def test_result_line_suffixes_workloads(self):
        runs = [{"workload": w, "correct": True, "attempted": 2,
                 "failed": 0,
                 "metrics": {"m": {"value": v, "unit": "ms",
                                   "samples": 1}}}
                for w, v in (("a", 1.0), ("b", 2.0), ("b", 4.0))]
        line = run.result_line(runs)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["attempted"], 6)
        self.assertEqual(line["metrics"]["m@b"], {"value": 3.0,
                                                  "unit": "ms"})
        single = run.result_line(runs[:1])
        self.assertEqual(single["metrics"], {"m": {"value": 1.0,
                                                   "unit": "ms"}})


if __name__ == "__main__":
    unittest.main()
