#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 \\
        --trace 0

Run from the repository root. Builds ``tdn_perfbench`` (and the simulator
library, from ``src/``) into ``.bench_build/perfbench`` when needed, runs the
workload, checks its results and prints a table followed, on the last line,
by one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones (untraced); with
``--trace 1`` they are the per-layer ones of a separate traced run.
``--smoke`` shrinks every workload to a few seconds for tests.

Exits non-zero, printing no result, when the program cannot be built or run.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("paper_sweep", "serve_mmpp", "colo_vm4k")
DEADLINE_S = 175.0  # the whole run, build excluded


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then build (a no-op when up to date). Compiler output
    goes to stderr so stdout stays the benchmark's report."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=root)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "tdn_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=root)
    return build_dir / "tdn_perfbench"


def run_program(binary, args, build_dir, timeout):
    env = dict(os.environ)
    env.update({"TDN_LOG": "off", "TDN_NO_CACHE": "1",
                "TDN_CACHE_DIR": str(build_dir / "cache")})
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        trace_dir = build_dir / "trace" / args.workload
        if trace_dir.exists():
            shutil.rmtree(trace_dir)
        trace_dir.mkdir(parents=True)
        cmd += ["--trace", str(trace_dir)]
    # subprocess.run kills and reaps the child on timeout.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout)


def fmt(v):
    return "%.6g" % v


def print_report(raw, values, notes):
    workload = raw["workload"]
    print("== perfbench %s (seed %d%s) ==" % (
        workload, raw["seed"], ", smoke" if raw["smoke"] else ""))
    if "trace" not in raw:
        for g, walls in enumerate(raw["wall_s"]):
            print("unit group %d: %d timed runs, wall_s each: %s" % (
                g, len(walls), ", ".join("%.3f" % w for w in walls)))
        print("set-up passes: %d" % len(raw["setup_s"]))
    for name, v in values.items():
        line = "  %-32s %14s %s" % (name, fmt(v), metrics.unit_of(name))
        if name in metrics.SIM_METRICS:
            owner = metrics.SIM_METRICS[name][0]
            if owner != workload:
                line += "  (%s only; constant here)" % owner
            elif name in metrics.PAPER:
                line += "  paper %.2f, full scale %.2f" % (
                    metrics.PAPER[name], metrics.FULL_SCALE[name])
            elif name == "sojourn_p50_kcycles":
                line += "  over %d completed requests" % int(
                    metrics.serve_summary(raw["units"])["completed"])
            else:
                line += "  (no paper value)"
        print(line)
    for n in notes:
        print("  CHECK FAILED: " + n)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time; BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")

    root = HERE.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        binary = build(root, build_dir)
        t0 = time.monotonic()
        raw = run_program(binary, args, build_dir, DEADLINE_S)
        log("program finished in %.1f s" % (time.monotonic() - t0))
        values, correct, attempted, failed, notes = metrics.evaluate(raw)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    print_report(raw, values, notes)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": metrics.unit_of(name)}
                    for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
