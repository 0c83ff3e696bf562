#!/usr/bin/env python3
"""Unit tests for check_perf_regression.py (direction inference, tolerance
band, schema / smoke-mismatch guards). Registered with ctest as
scripts.check_perf_regression; also runnable directly:

    python3 scripts/test_check_perf_regression.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_perf_regression as cpr  # noqa: E402


def write_doc(directory, name, metrics, schema="tdn-bench-substrate-v1",
              smoke=False, threads=None):
    path = os.path.join(directory, name)
    doc = {"schema": schema, "smoke": smoke, "metrics": metrics}
    if threads is not None:
        doc["threads"] = threads
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def run_main(argv):
    old = sys.argv
    sys.argv = ["check_perf_regression.py"] + argv
    try:
        return cpr.main()
    finally:
        sys.argv = old


class DirectionInference(unittest.TestCase):
    def test_higher_is_better(self):
        self.assertEqual(cpr.direction("event_dispatch.events_per_sec"),
                         "higher")
        self.assertEqual(cpr.direction("event_dispatch.speedup_vs_ref"),
                         "higher")

    def test_lower_is_better(self):
        self.assertEqual(cpr.direction("cache_probe.ns_per_op"), "lower")
        self.assertEqual(cpr.direction("sim.gauss.wall_ms"), "lower")
        self.assertEqual(cpr.direction("peak_rss_kb"), "lower")
        self.assertEqual(cpr.direction("llc_miss_attribution.overhead_ratio"),
                         "lower")

    def test_informational(self):
        self.assertEqual(cpr.direction("event_dispatch.waves"), "info")


class ToleranceBand(unittest.TestCase):
    def check(self, base, cur, tolerance=0.15, extra=None):
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", base)
            c = write_doc(d, "cur.json", cur)
            argv = ["--baseline", b, "--current", c,
                    "--tolerance", str(tolerance)] + (extra or [])
            return run_main(argv)

    def test_within_band_passes(self):
        self.assertEqual(
            self.check({"k.ns_per_op": 100.0}, {"k.ns_per_op": 110.0}), 0)

    def test_slowdown_beyond_band_fails(self):
        self.assertEqual(
            self.check({"k.ns_per_op": 100.0}, {"k.ns_per_op": 120.0}), 1)

    def test_direction_respected_for_higher_is_better(self):
        # events_per_sec dropping 20% is a regression ...
        self.assertEqual(self.check({"k.events_per_sec": 1000.0},
                                    {"k.events_per_sec": 800.0}), 1)
        # ... and rising 20% is an improvement, never a failure.
        self.assertEqual(self.check({"k.events_per_sec": 1000.0},
                                    {"k.events_per_sec": 1200.0}), 0)

    def test_higher_is_better_falling_to_zero_is_a_regression(self):
        self.assertEqual(self.check({"sim.x.events_per_sec": 100.0},
                                    {"sim.x.events_per_sec": 0.0}), 1)

    def test_info_metrics_never_gate(self):
        self.assertEqual(
            self.check({"k.waves": 10.0}, {"k.waves": 10000.0}), 0)

    def test_missing_metric_warns_but_passes(self):
        self.assertEqual(self.check({"k.ns_per_op": 100.0}, {}), 0)

    def test_missing_metric_fails_strict(self):
        self.assertEqual(
            self.check({"k.ns_per_op": 100.0}, {}, extra=["--strict"]), 1)

    def test_wider_tolerance_admits_the_same_delta(self):
        self.assertEqual(self.check({"k.ns_per_op": 100.0},
                                    {"k.ns_per_op": 130.0},
                                    tolerance=0.35), 0)


class SchemaAndSmokeGuards(unittest.TestCase):
    def test_unknown_schema_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", {}, schema="something-else")
            with self.assertRaises(SystemExit):
                cpr.load_doc(b)

    def test_any_tdn_bench_schema_accepted(self):
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", {}, schema="tdn-bench-obs-v1")
            self.assertEqual(cpr.load_doc(b)["schema"], "tdn-bench-obs-v1")

    def test_cross_schema_comparison_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", {"k.ns_per_op": 1.0},
                          schema="tdn-bench-substrate-v1")
            c = write_doc(d, "cur.json", {"k.ns_per_op": 1.0},
                          schema="tdn-bench-obs-v1")
            with self.assertRaises(SystemExit):
                run_main(["--baseline", b, "--current", c])

    def test_smoke_mismatch_warns_and_fails_strict(self):
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", {"k.ns_per_op": 1.0}, smoke=False)
            c = write_doc(d, "cur.json", {"k.ns_per_op": 1.0}, smoke=True)
            self.assertEqual(run_main(["--baseline", b, "--current", c]), 0)
            self.assertEqual(run_main(["--baseline", b, "--current", c,
                                       "--strict"]), 1)

    def test_host_threads_is_recorded_not_compared(self):
        # No metric scales with host width, so a 1-thread baseline must not
        # fail --strict on a multi-core runner.
        with tempfile.TemporaryDirectory() as d:
            b = write_doc(d, "base.json", {"k.ns_per_op": 1.0}, threads=1)
            c = write_doc(d, "cur.json", {"k.ns_per_op": 1.0}, threads=4)
            self.assertEqual(run_main(["--baseline", b, "--current", c,
                                       "--strict"]), 0)


if __name__ == "__main__":
    unittest.main()
