"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

``MetricArithmetic`` and ``Checks`` test the formulas on hand-made inputs.
``Smoke`` builds the program and runs every workload at tiny size, plain and
traced, through every check (about a minute on a 4-core host, plus the first
build).
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def unit(workload, policy, **m):
    return {"name": workload + "/" + policy, "workload": workload,
            "policy": policy, "max_pending": 8, "from_cache": False,
            "metrics": m}


def sweep(td_cycles=50.0, rn_cycles=90.0, td_bytes=60.0):
    units = []
    for app in ("jacobi", "redblack"):
        units += [unit(app, "S-NUCA", **{"sim.cycles": 100.0,
                                         "noc.router_bytes": 100.0}),
                  unit(app, "R-NUCA", **{"sim.cycles": rn_cycles,
                                         "noc.router_bytes": 100.0}),
                  unit(app, "TD-NUCA", **{"sim.cycles": td_cycles,
                                          "noc.router_bytes": td_bytes})]
    return units


def serve_unit(offered=10, shed=3, completed=7, **extra):
    m = {"sim.cycles": 1e6, "serve.offered": offered, "serve.shed": shed,
         "serve.completed": completed, "serve.queue.max_depth": 8,
         "serve.makespan": 2e6, "serve.sojourn.p50": 4000.0,
         "serve.tenant0.offered": offered - 4, "serve.tenant1.offered": 4,
         "serve.tenant0.shed": shed, "serve.tenant1.shed": 0,
         "serve.tenant0.completed": completed - 4,
         "serve.tenant1.completed": 4}
    m.update(extra)
    return unit("gauss+histo", "TD-NUCA", **m)


class MetricArithmetic(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(metrics.geomean([2.0, 2.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            metrics.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            metrics.geomean([])

    def test_workload_wall_sums_fastest_run_of_each_group(self):
        self.assertEqual(metrics.workload_wall([[3.0, 2.0, 4.0]]), 2.0)
        self.assertEqual(metrics.workload_wall([[3.0, 2.5], [1.5, 1.0]]), 3.5)

    def test_setup_time_is_low_percentile_of_passes(self):
        passes = [float(x) for x in range(1, 12)]  # 1..11
        self.assertAlmostEqual(metrics.setup_time(passes), 2.0)
        self.assertAlmostEqual(metrics.setup_time(list(reversed(passes))),
                               2.0)
        # Slow passes do not move it, and neither does one fast outlier.
        self.assertAlmostEqual(metrics.setup_time(passes[:-3] + [90.0] * 3),
                               2.0)
        self.assertAlmostEqual(metrics.setup_time([0.01] + passes[1:]), 2.0)
        self.assertEqual(metrics.setup_time([0.5]), 0.5)

    def test_spread_is_quartile_distance_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(metrics.spread(xs), (q3 - q1) / 5.5)
        self.assertEqual(metrics.spread([3.0] * 10), 0.0)

    def test_sweep_ratios(self):
        shape = metrics.sweep_shape(sweep(td_cycles=50.0, rn_cycles=80.0,
                                          td_bytes=25.0))
        self.assertAlmostEqual(shape["td_speedup"], 2.0)
        self.assertAlmostEqual(shape["rnuca_speedup"], 1.25)
        self.assertAlmostEqual(shape["td_data_movement"], 0.25)
        self.assertEqual(set(shape["per_app_td_speedup"]),
                         {"jacobi", "redblack"})

    def test_sweep_geomean_over_apps(self):
        units = sweep()
        units[2]["metrics"]["sim.cycles"] = 25.0   # jacobi TD 4x
        units[5]["metrics"]["sim.cycles"] = 100.0  # redblack TD 1x
        self.assertAlmostEqual(metrics.sweep_shape(units)["td_speedup"], 2.0)

    def test_serving_pools_traces(self):
        a = serve_unit(offered=10, shed=2, completed=8, **{
            "serve.makespan": 1e6, "serve.sojourn.p50": 3000.0})
        b = serve_unit(offered=30, shed=8, completed=22, **{
            "serve.makespan": 2e6, "serve.sojourn.p50": 5000.0})
        s = metrics.serve_summary([a, b])
        self.assertAlmostEqual(s["goodput_per_mcycle"], 30 / 3.0)
        self.assertAlmostEqual(s["shed_rate"], 10 / 40.0)
        self.assertAlmostEqual(s["sojourn_p50_kcycles"], 4.0)  # mean of p50s
        self.assertEqual(s["completed"], 30)

    def test_each_workload_owns_its_simulated_metrics(self):
        v = metrics.simulated_metrics("colo_vm4k", [unit(
            "a+b", "TD-NUCA", **{"sim.cycles": 2.5e6})])
        self.assertAlmostEqual(v["makespan_mcycles"], 2.5)
        self.assertEqual(v["td_speedup"], metrics.NOT_THIS_WORKLOAD)
        self.assertEqual(set(v), set(metrics.SIM_METRICS))
        self.assertTrue(all(x != 0 for x in v.values()))

    def test_latency_shares_sum_to_one(self):
        tmp = HERE.parent / ".bench_build" / "perfbench" / "test"
        tmp.mkdir(parents=True, exist_ok=True)
        comps = {c: {"sum": i + 1}
                 for i, c in enumerate(metrics.LATENCY_COMPONENTS)}
        path = tmp / "latency.json"
        path.write_text(json.dumps({"access_latency": {"components": comps}}))
        shares = metrics.latency_shares([str(path), str(path)])
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        self.assertAlmostEqual(shares["lat.noc_reply"], 6 / 21)


class Checks(unittest.TestCase):
    def test_serving_conservation(self):
        self.assertEqual(metrics.unit_problems(serve_unit()), [])
        self.assertIn("offered != shed + completed",
                      metrics.unit_problems(serve_unit(shed=4)))
        bad = serve_unit()
        bad["metrics"]["serve.tenant1.completed"] = 3
        self.assertTrue(any("tenant completed" in p
                            for p in metrics.unit_problems(bad)))
        deep = serve_unit(**{"serve.queue.max_depth": 9})
        self.assertIn("queue deeper than max_pending",
                      metrics.unit_problems(deep))

    def test_closed_runs_complete(self):
        ok = unit("lu", "S-NUCA", **{"sim.cycles": 5.0, "tasks.completed": 3,
                                     "workload.num_tasks": 3})
        self.assertEqual(metrics.unit_problems(ok), [])
        short = unit("lu", "S-NUCA", **{"sim.cycles": 5.0,
                                        "tasks.completed": 2,
                                        "workload.num_tasks": 3})
        self.assertTrue(metrics.unit_problems(short))
        cached = dict(ok, from_cache=True)
        self.assertIn("served from the results cache",
                      metrics.unit_problems(cached))

    def test_multiprogram_counts_every_app(self):
        m = {"sim.cycles": 9.0, "multi.num_apps": 2, "tasks.completed": 5,
             "app0.workload.num_tasks": 2, "app1.workload.num_tasks": 3}
        self.assertEqual(metrics.unit_problems(unit("a+b", "TD-NUCA", **m)),
                         [])
        m["tasks.completed"] = 4
        self.assertTrue(metrics.unit_problems(unit("a+b", "TD-NUCA", **m)))

    def test_paper_shape(self):
        self.assertEqual(metrics.shape_problems(sweep()), [])
        self.assertIn("td_speedup <= 1",
                      metrics.shape_problems(sweep(td_cycles=120.0)))
        self.assertIn("td_data_movement >= 1",
                      metrics.shape_problems(sweep(td_bytes=150.0)))

    def test_failures_counted_against_attempts(self):
        mix = unit("a+b", "TD-NUCA", **{
            "sim.cycles": 3e6, "sim.events": 6.0, "multi.num_apps": 1,
            "tasks.completed": 1, "app0.workload.num_tasks": 1})
        raw = {"workload": "colo_vm4k", "seed": 1, "smoke": False,
               "wall_s": [[2.0, 4.0, 3.0]], "setup_s": [0.1],
               "pool_idle_s": [[0, 0, 0]], "cache_hits": 0,
               "rep_mismatches": 0,
               "peak_rss_kb": 2048, "units": [dict(mix, reps=3)]}
        values, correct, attempted, failed, notes = metrics.evaluate(raw)
        self.assertTrue(correct)
        self.assertEqual((attempted, failed), (3, 0))
        self.assertEqual(values["wall_s"], 2.0)  # the fastest repetition
        self.assertEqual(values["sim_events_per_s"], 3.0)
        self.assertEqual(values["peak_rss_mb"], 2.0)
        raw["rep_mismatches"] = 1
        _, correct, attempted, failed, notes = metrics.evaluate(raw)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (3, 1))


class Smoke(unittest.TestCase):
    """Every workload at tiny size, plain and traced, must pass its checks
    and print every metric BENCHMARK.json names."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--smoke"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = self.run_bench(w["name"], trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    names = {m["name"] for m in self.spec[kind]}
                    self.assertEqual(set(r["metrics"]), names)
                    for name, v in r["metrics"].items():
                        self.assertTrue(math.isfinite(v["value"]), name)
                    if kind == "end_to_end":
                        for name, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
