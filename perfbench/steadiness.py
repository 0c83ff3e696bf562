#!/usr/bin/env python3
"""Steadiness report: is the benchmark steady enough to compare two commits?

    python3 perfbench/steadiness.py

Run from the repository root. Makes two sets of ten untraced runs of
every workload, each run with its own seed (1, 2, ... in order), for
BENCHMARK.json's run_seconds each, and prints for each end-to-end metric its
median, quartiles and spread (quartile distance over median) per set, and
the gap between the two sets' medians (positive is worse). A spread, or a
gap in either direction, above the metric's bound in BENCHMARK.json is
marked FAIL; a spread above a third of the bound is marked "wide". Exits 1
if anything fails.

Host noise this design answers (4-vCPU host, measured while sizing):
  * back-to-back 0.3 s redblack simulations ranged 0.26-0.52 s (CV 20%);
    the host's speed drifts on a scale of seconds;
  * a 24-unit sweep of about 8-10 s had a CV of about 9% across
    invocations;
  * dividing by a fixed calibration kernel did not help (normalised CV 22%);
  * perf_event_open has no hardware counters here;
  * there is no steal time: the host runs up to 60% slower, or 25% faster,
    for stretches of 10 s to a few minutes.
Hence few workloads built from many simulation units, the fastest of several
short timed runs, and simulated metrics that repeat exactly beside host
times. A run cannot average out a host phase longer than itself.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SETS = 2
RUNS = 10  # per set, as the acceptance check makes them


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def gap(first, second, better):
    """Relative change of the median from the first set to the second,
    positive when it got worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(samples, spec):
    """samples[workload] = [first set, second set], each a list of metric
    dicts. Returns True if every check passes."""
    ok = True
    for workload, sets in samples.items():
        print("== %s (%d sets x %d runs)" % (workload, len(sets),
                                           len(sets[0])))
        print("  %-22s %-38s %9s %6s" % ("metric", "q1 / median / q3 per set",
                                         "spread", "gap"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, spreads, medians = [], [], []
            for runs in sets:
                xs = [r[name] for r in runs]
                q1, med, q3 = quartiles(xs)
                cells.append("%.4g/%.4g/%.4g" % (q1, med, q3))
                spreads.append(metrics.spread(xs))
                medians.append(med)
            g = gap(medians[0], medians[1], m["better"])
            verdict = []
            if max(spreads) > bound:
                verdict.append("FAIL spread")
            elif max(spreads) > bound / 3:
                verdict.append("wide")
            if abs(g) > bound:
                verdict.append("FAIL gap")
            ok = ok and not any(v.startswith("FAIL") for v in verdict)
            print("  %-22s %-38s %9s %+6.3f  bound %.3f %s" % (
                name, " | ".join(cells),
                "/".join("%.3f" % s for s in spreads), g, bound,
                " ".join(verdict)))
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    samples = {w: [] for w in workloads}
    seed = 1
    for s in range(SETS):
        for w in workloads:
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(w, seed, spec["run_seconds"]))
                print("[steadiness] set %d %s seed %d: %s" % (
                    s + 1, w, seed, json.dumps(runs[-1])), file=sys.stderr,
                    flush=True)
                seed += 1
            samples[w].append(runs)
    return 0 if report(samples, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
