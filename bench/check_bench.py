"""Tests of the benchmark itself: self time with nested spans, the tail
percentile rule, the estimate check, and that BENCHMARK.json names exactly
the metrics the benchmark prints.

    python3 bench/check_bench.py

The file name keeps pytest from collecting it with the program's tests.
"""

import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("root", 0.0, 10.0),
            Span("child", 1.0, 4.0, parent=0),
            Span("grandchild", 2.0, 3.0, parent=1),
            Span("child", 5.0, 6.0, parent=0),
        ]
        self.assertEqual(tracing.self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once_and_clip_to_parent(self):
        spans = [Span("root", 0.0, 10.0), Span("a", 2.0, 6.0, parent=0),
                 Span("b", 4.0, 12.0, parent=0)]
        self.assertEqual(tracing.self_times(spans)[0], 2.0)

    def test_self_times_sum_to_root_duration(self):
        spans = [Span("root", 0.0, 8.0), Span("a", 1.0, 3.0, parent=0),
                 Span("b", 1.5, 2.5, parent=1), Span("c", 4.0, 7.0, parent=0)]
        self.assertAlmostEqual(sum(tracing.self_times(spans)), 8.0)


class Tail(unittest.TestCase):
    def test_ten_samples_beyond(self):
        samples = list(range(1, 101))  # 1..100
        pct, value = run.tail(samples)
        self.assertEqual(value, 90)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 0.0, 11.0]
        pct, value = run.tail(samples)
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)

    def test_needs_more_than_ten(self):
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class EstimateCheck(unittest.TestCase):
    TRUTH = {"f_d": -32.0, "phi": 1.0, "rho": 2.0}

    def record(self, **over):
        rec = {"method": "WLS", "f_d_hat_hz": "-32.1", "phi_hat_rad": "1.01",
               "rho_hat_m": "2.05", "n_used": "100", "n_downweighted": "0"}
        rec.update(over)
        return rec

    def test_accepts_close_estimate(self):
        self.assertTrue(workloads.check_estimate(self.record(), self.TRUTH))

    def test_rejects_wrong_estimates(self):
        for over in ({"f_d_hat_hz": "-26.0"}, {"f_d_hat_hz": "32.0"},
                     {"rho_hat_m": "2.5"}, {"rho_hat_m": "nan"},
                     {"phi_hat_rad": "inf"}, {"f_d_hat_hz": "x"}):
            with self.subTest(over=over):
                self.assertFalse(workloads.check_estimate(self.record(**over), self.TRUTH))

    def test_rejects_missing_field(self):
        rec = self.record()
        del rec["rho_hat_m"]
        self.assertFalse(workloads.check_estimate(rec, self.TRUTH))

    def test_sweep_row_bounds(self):
        row = {"rmse_fd_hz": 0.2, "rmse_phi_s": 1e-10, "rmse_rho_m": 0.01}
        self.assertTrue(workloads._c3_row_ok(row))
        self.assertFalse(workloads._c3_row_ok(dict(row, rmse_rho_m=0.31)))
        self.assertFalse(workloads._c5_row_ok(dict(row, rmse_fd_hz=math.nan)))


class BenchmarkJson(unittest.TestCase):
    def test_names_match_what_the_benchmark_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.per_layer_units())


if __name__ == "__main__":
    unittest.main()
