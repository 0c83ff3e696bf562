#!/usr/bin/env python3
"""Compare a tdn-bench-* JSON report against a committed baseline.

Usage:
    check_perf_regression.py --baseline bench/baselines/BENCH_obs.json \
        --current BENCH_obs.json [--tolerance 0.15] [--strict]

Works for any report whose schema starts with ``tdn-bench-`` (obs, ...);
baseline and current must carry the same schema.

Direction is inferred from the metric name:
  * ``*_per_sec`` / ``*speedup*``  — higher is better
  * ``ns_per_*`` / ``*wall_ms`` / ``*rss*`` / ``*overhead*`` — lower is better
  * anything else — informational only (printed, never gated)

A metric regresses when it is worse than baseline by more than the tolerance
fraction. Exit status: 0 = no regressions (warnings about missing/new
metrics are allowed unless --strict), 1 = at least one regression (or, with
--strict, any schema mismatch).

Large *improvements* are also reported, as a hint to re-baseline — a stale
baseline makes the tolerance band meaningless. See docs/harness.md for the
re-baselining workflow.
"""

import argparse
import json
import math
import sys


def direction(name: str) -> str:
    """'higher', 'lower', or 'info' for a metric name."""
    if name.endswith("_per_sec") or "speedup" in name:
        return "higher"
    if ("ns_per_" in name or name.endswith("wall_ms") or "rss" in name
            or "overhead" in name):
        return "lower"
    return "info"


def load_doc(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if not isinstance(schema, str) or not schema.startswith("tdn-bench-"):
        raise SystemExit(f"{path}: unexpected schema {schema!r}")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional slowdown (default 0.15)")
    ap.add_argument("--strict", action="store_true",
                    help="missing or unexpected metrics fail the check")
    args = ap.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    if base_doc.get("schema") != cur_doc.get("schema"):
        raise SystemExit(
            f"schema mismatch: baseline {base_doc.get('schema')!r} vs "
            f"current {cur_doc.get('schema')!r} — compare like against like")
    base, cur = base_doc["metrics"], cur_doc["metrics"]

    regressions, improvements, warnings = [], [], []
    if base_doc.get("smoke") != cur_doc.get("smoke"):
        # Smoke runs use smaller workload scales: their sim.*.wall_ms values
        # are not comparable to a full-run baseline.
        warnings.append(
            f"smoke flag mismatch: baseline={base_doc.get('smoke')} "
            f"current={cur_doc.get('smoke')} — compare like against like")
    for name, b in sorted(base.items()):
        if name not in cur:
            warnings.append(f"metric missing from current run: {name}")
            continue
        c = cur[name]
        d = direction(name)
        if d == "info" or b == 0:
            print(f"  info  {name}: {b:g} -> {c:g}")
            continue
        # Normalize to "ratio > 1 means worse"; a higher-is-better metric
        # that fell to zero is infinitely worse.
        if d == "lower":
            ratio = c / b
        else:
            ratio = b / c if c != 0 else math.inf
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {b:g} -> {c:g} "
                f"({(ratio - 1.0) * 100:.1f}% worse, tolerance "
                f"{args.tolerance * 100:.0f}%)")
        elif ratio < 1.0 - args.tolerance:
            verdict = "improved"
            improvements.append(f"{name}: {b:g} -> {c:g}")
        print(f"  {verdict:>10}  {name}: {b:g} -> {c:g}")
    for name in sorted(set(cur) - set(base)):
        warnings.append(f"metric not in baseline (add it?): {name}")

    for w in warnings:
        print(f"WARNING: {w}")
    if improvements:
        print(f"\n{len(improvements)} metric(s) improved beyond tolerance — "
              "consider re-baselining (docs/harness.md):")
        for line in improvements:
            print(f"  {line}")
    if regressions:
        print(f"\n{len(regressions)} perf regression(s):", file=sys.stderr)
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    if args.strict and warnings:
        print("\n--strict: schema mismatches above are fatal", file=sys.stderr)
        return 1
    print("\nperf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
