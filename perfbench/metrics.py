"""Metric arithmetic and correctness checks of the benchmark.

Pure functions over the raw document that ``tdn_perfbench`` prints (one per
run); ``run.py`` calls ``evaluate``. Kept free of I/O apart from reading the
latency reports a traced run names, so ``test_metrics.py`` can check every
formula on hand-made inputs.
"""

import json
import math
import statistics

# Paper values (Sec. V text) and the full-scale values of this reproduction
# (EXPERIMENTS.md headline table), printed beside the measured ones.
PAPER = {"td_speedup": 1.18, "rnuca_speedup": 1.02, "td_data_movement": 0.62}
FULL_SCALE = {"td_speedup": 1.11, "rnuca_speedup": 1.06,
              "td_data_movement": 0.61}

# End-to-end metrics: name -> unit. Host metrics come from untraced runs;
# the simulated ones are exact and belong to one workload each.
HOST_METRICS = {"wall_s": "s", "sim_events_per_s": "1/s", "setup_s": "s",
                "peak_rss_mb": "MB"}
SIM_METRICS = {
    "td_speedup": ("paper_sweep", "x"),
    "rnuca_speedup": ("paper_sweep", "x"),
    "td_data_movement": ("paper_sweep", "x"),
    "goodput_per_mcycle": ("serve_mmpp", "req/Mcycle"),
    "sojourn_p50_kcycles": ("serve_mmpp", "kcycles"),
    "shed_rate": ("serve_mmpp", "ratio"),
    "makespan_mcycles": ("colo_vm4k", "Mcycles"),
}
# What a workload reports for another workload's simulated metric: a
# constant, so that pairing can never read as a change.
NOT_THIS_WORKLOAD = 1.0

# Per-layer metrics: name -> unit.
LAYER_METRICS = {
    "system.construct_s": "s",
    "workloads.build_s": "s", "workloads.tasks": "count",
    "harness.pool_idle_s": "s", "harness.cache_hits": "count",
    "sim.run_s": "s", "sim.events": "count", "sim.dispatch_ns": "ns",
    "sim.dispatch_est_s": "s",
    "noc.messages": "count", "noc.router_bytes": "bytes",
    "nuca.mean_distance": "hops", "noc.xy_route_ns": "ns",
    "noc.route_est_s": "s",
    "l1.misses": "count", "llc.accesses": "count", "llc.hit_ratio": "ratio",
    "dram.accesses": "count", "cache.forced_unsafe_evictions": "count",
    "cache.find_ns": "ns",
    "lat.mshr_wait": "share", "lat.noc_request": "share",
    "lat.bank_queue": "share", "lat.bank_service": "share",
    "lat.dram": "share", "lat.noc_reply": "share",
    "rrt.lookups": "count", "rrt.mean_occupancy": "entries",
    "tdnuca.translate_pages": "count",
    "tdnuca.runtime_overhead_cycles": "cycles",
    "flush.busy_cycles": "cycles", "tdnuca.bypass_share": "ratio",
    "tdnuca.rrt_lookup_ns": "ns",
    "tasks.completed": "count", "runtime.region_map_ns": "ns",
    "tlb.misses": "count", "vm.walks": "count", "vm.walk_loads": "count",
    "vm.psc_hit_ratio": "ratio", "vm.isa_walk_cycles": "cycles",
    "vm.huge_fallbacks": "count", "vm.tlb_lookup_ns": "ns",
    "multi.cross_app_conflicts": "count",
    "serve.offered": "count", "serve.completed": "count",
    "serve.shed": "count", "serve.queue.max_depth": "count",
    "serve.queue_wait.p50": "cycles", "serve.service.mean": "cycles",
    "serve.policy_switches": "count",
    "trace.overhead_pct": "%",
}
LATENCY_COMPONENTS = ("mshr_wait", "noc_request", "bank_queue",
                      "bank_service", "dram", "noc_reply")


def median(xs):
    if not xs:
        raise ValueError("median of no values")
    return statistics.median(xs)


def geomean(xs):
    xs = list(xs)
    if not xs or any(x <= 0 for x in xs):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def spread(xs):
    """Quartile distance as a share of the median (the steadiness measure)."""
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / median(xs)


def workload_wall(group_walls):
    """Host seconds of the whole workload: the fastest timed run of each
    unit group, summed over the groups. The fastest, because host noise here
    only ever slows a run down, in phases of tens of seconds, and the
    fastest of several short runs varied about half as much from one
    invocation to the next as their median (perfbench/README.md)."""
    return sum(min(walls) for walls in group_walls)


def setup_time(passes):
    """Host seconds of one set-up pass: the 10th percentile of the passes,
    which are spread over the whole run. A low percentile for the reason
    ``workload_wall`` takes the fastest run, but it takes many short passes
    to agree on it, so one lucky pass cannot set it."""
    if len(passes) < 2:
        return median(passes)
    return statistics.quantiles(passes, n=10, method="inclusive")[0]


def total(units, key):
    """Sum of a metric over units; 0 where no unit exports it."""
    return sum(u["metrics"].get(key, 0.0) for u in units)


def ratio(num, den):
    return num / den if den else 0.0


def app_total(m, suffix):
    """Sum of the per-app appK.<suffix> keys of one multiprogram unit."""
    return sum(v for k, v in m.items()
               if k.startswith("app") and k.endswith("." + suffix)
               and k[3:k.index(".")].isdigit())


# --- simulated end-to-end metrics -------------------------------------------

def sweep_shape(units):
    """Fig. 8/12 figures of the paper sweep: geomeans over the apps of
    S-NUCA cycles / policy cycles, and of TD-NUCA / S-NUCA router bytes."""
    by = {(u["workload"], u["policy"]): u["metrics"] for u in units}
    apps = sorted({w for w, _ in by})

    def speedup(app, policy):
        return by[(app, "S-NUCA")]["sim.cycles"] / by[(app, policy)]["sim.cycles"]

    per_app = {a: speedup(a, "TD-NUCA") for a in apps}
    return {
        "td_speedup": geomean(per_app.values()),
        "rnuca_speedup": geomean(speedup(a, "R-NUCA") for a in apps),
        "td_data_movement": geomean(
            by[(a, "TD-NUCA")]["noc.router_bytes"]
            / by[(a, "S-NUCA")]["noc.router_bytes"] for a in apps),
        "per_app_td_speedup": per_app,
    }


def serve_summary(units):
    """Serving metrics pooled over the workload's arrival traces."""
    completed = total(units, "serve.completed")
    return {
        "goodput_per_mcycle": 1e6 * completed / total(units, "serve.makespan"),
        "sojourn_p50_kcycles": statistics.fmean(
            u["metrics"]["serve.sojourn.p50"] for u in units) / 1e3,
        "shed_rate": total(units, "serve.shed") / total(units, "serve.offered"),
        "completed": completed,
    }


def simulated_metrics(workload, units):
    values = {name: NOT_THIS_WORKLOAD for name in SIM_METRICS}
    if workload == "paper_sweep":
        shape = sweep_shape(units)
        for k in ("td_speedup", "rnuca_speedup", "td_data_movement"):
            values[k] = shape[k]
    elif workload == "serve_mmpp":
        s = serve_summary(units)
        for k in ("goodput_per_mcycle", "sojourn_p50_kcycles", "shed_rate"):
            values[k] = s[k]
    elif workload == "colo_vm4k":
        values["makespan_mcycles"] = total(units, "sim.cycles") / 1e6
    return values


# --- correctness -----------------------------------------------------------

def unit_problems(unit):
    """Why one unit's result is wrong; empty when every check passes."""
    m = unit["metrics"]
    problems = []
    if unit.get("from_cache"):
        problems.append("served from the results cache")
    if not m.get("sim.cycles", 0) > 0:
        problems.append("no simulated cycles")
    if "serve.offered" in m:
        offered, shed, done = (m["serve.offered"], m["serve.shed"],
                               m["serve.completed"])
        if offered != shed + done:
            problems.append("offered != shed + completed")
        tenants = sorted({k.split(".")[1] for k in m
                          if k.startswith("serve.tenant")})
        for key, want in (("offered", offered), ("shed", shed),
                          ("completed", done)):
            got = sum(m["serve.%s.%s" % (t, key)] for t in tenants)
            if got != want:
                problems.append("tenant %s sum %g != %g" % (key, got, want))
        if m["serve.queue.max_depth"] > unit["max_pending"]:
            problems.append("queue deeper than max_pending")
        if done < 1:
            problems.append("no request completed")
    elif "multi.num_apps" in m:
        if m["tasks.completed"] != app_total(m, "workload.num_tasks"):
            problems.append("not every app task completed")
    elif m.get("tasks.completed") != m.get("workload.num_tasks"):
        problems.append("not every task completed")
    return problems


def shape_problems(units):
    """The paper's shape, which the scaled sweep must keep."""
    shape = sweep_shape(units)
    problems = []
    if not shape["td_speedup"] > 1:
        problems.append("td_speedup <= 1")
    if not shape["td_data_movement"] < 1:
        problems.append("td_data_movement >= 1")
    for app in ("jacobi", "redblack"):
        if not shape["per_app_td_speedup"].get(app, 0) > 1:
            problems.append("TD-NUCA not ahead on " + app)
    return problems


# --- per-layer metrics --------------------------------------------------------

def latency_shares(report_paths):
    """Share of attributed miss latency per component, over every report."""
    sums = dict.fromkeys(LATENCY_COMPONENTS, 0.0)
    for path in report_paths:
        with open(path) as f:
            comps = json.load(f)["access_latency"]["components"]
        for c in LATENCY_COMPONENTS:
            sums[c] += comps[c]["sum"]
    whole = sum(sums.values())
    return {"lat." + c: ratio(sums[c], whole) for c in LATENCY_COMPONENTS}


def layer_metrics(raw, report_paths):
    units = raw["units"]
    trace = raw["trace"]
    spans = trace["spans"]
    micro = trace["micro"]
    t = lambda key: total(units, key)  # noqa: E731
    multi = [u["metrics"] for u in units if "multi.num_apps" in u["metrics"]]
    out = {
        "system.construct_s": spans.get("system.construct", 0.0),
        "workloads.build_s": spans.get("workloads.build", 0.0),
        "workloads.tasks": trace["tasks_built"],
        # Per group, the median over its timed runs; summed over groups.
        "harness.pool_idle_s": sum(median(g) for g in raw["pool_idle_s"]),
        "harness.cache_hits": raw["cache_hits"],
        "sim.run_s": spans.get("sim.run", 0.0),
        "sim.events": t("sim.events"),
        "sim.dispatch_ns": micro["sim.dispatch_ns"],
        "sim.dispatch_est_s": micro["sim.dispatch_ns"] * t("sim.events") / 1e9,
        "noc.messages": t("noc.messages"),
        "noc.router_bytes": t("noc.router_bytes"),
        "nuca.mean_distance": ratio(
            sum(u["metrics"]["nuca.mean_distance"] * u["metrics"]["llc.accesses"]
                for u in units), t("llc.accesses")),
        "noc.xy_route_ns": micro["noc.xy_route_ns"],
        "noc.route_est_s": micro["noc.xy_route_ns"] * t("noc.messages") / 1e9,
        "l1.misses": t("l1.misses"),
        "llc.accesses": t("llc.accesses"),
        "llc.hit_ratio": ratio(t("llc.hits"), t("llc.hits") + t("llc.misses")),
        "dram.accesses": t("dram.accesses"),
        "cache.forced_unsafe_evictions": t("cache.forced_unsafe_evictions"),
        "cache.find_ns": micro["cache.find_ns"],
        # Multiprogram runs export RRT lookups per app only.
        "rrt.lookups": t("rrt.lookups") + sum(app_total(m, "rrt.lookups")
                                              for m in multi),
        "rrt.mean_occupancy": ratio(
            sum(u["metrics"].get("rrt.mean_occupancy", 0.0) for u in units),
            sum(1 for u in units if "rrt.mean_occupancy" in u["metrics"])),
        "tdnuca.translate_pages": t("tdnuca.translate_pages"),
        "tdnuca.runtime_overhead_cycles": t("tdnuca.runtime_overhead_cycles"),
        "flush.busy_cycles": t("flush.busy_cycles"),
        "tdnuca.bypass_share": ratio(
            t("tdnuca.bypass_placements"),
            t("tdnuca.bypass_placements") + t("tdnuca.local_placements")
            + t("tdnuca.replicated_placements")),
        "tdnuca.rrt_lookup_ns": micro["tdnuca.rrt_lookup_ns"],
        "tasks.completed": t("tasks.completed"),
        "runtime.region_map_ns": micro["runtime.region_map_ns"],
        "tlb.misses": t("tlb.misses"),
        "vm.walks": t("vm.walks"),
        "vm.walk_loads": t("vm.walk_loads"),
        # A walk level is served either by a paging-structure cache hit or
        # by a PTE load through the hierarchy.
        "vm.psc_hit_ratio": ratio(t("vm.psc_hits"),
                                  t("vm.psc_hits") + t("vm.walk_loads")),
        "vm.isa_walk_cycles": t("vm.isa_walk_cycles"),
        "vm.huge_fallbacks": t("vm.huge_fallbacks"),
        "vm.tlb_lookup_ns": micro["vm.tlb_lookup_ns"],
        "multi.cross_app_conflicts": t("multi.cross_app_conflicts"),
        "serve.offered": t("serve.offered"),
        "serve.completed": t("serve.completed"),
        "serve.shed": t("serve.shed"),
        "serve.queue.max_depth": max(
            [u["metrics"].get("serve.queue.max_depth", 0.0) for u in units]),
        "serve.queue_wait.p50": median(
            [u["metrics"].get("serve.queue_wait.p50", 0.0) for u in units]),
        "serve.service.mean": ratio(
            sum(u["metrics"].get("serve.service.mean", 0.0)
                * u["metrics"].get("serve.completed", 0.0) for u in units),
            t("serve.completed")),
        "serve.policy_switches": t("serve.policy_switches"),
        "trace.overhead_pct": 100.0 * (spans["unit"] - trace["untraced_unit_s"])
        / trace["untraced_unit_s"],
    }
    out.update(latency_shares(report_paths))
    return out


# --- the whole verdict ----------------------------------------------------------

def evaluate(raw):
    """Turn one raw document into (metrics, correct, attempted, failed,
    notes). ``metrics`` maps each name to its value: the end-to-end metrics
    for a plain run, the per-layer ones for a traced run."""
    units = raw["units"]
    workload = raw["workload"]
    traced = "trace" in raw
    notes = []

    # Every timed run of a unit is one attempt; a unit failing in its first
    # timed run fails in every repetition.
    attempted = sum(u["reps"] for u in units)
    failed = raw["rep_mismatches"]
    for u in units:
        problems = unit_problems(u)
        if problems:
            failed += u["reps"]
            notes.append("%s: %s" % (u["name"], "; ".join(problems)))
    if raw["rep_mismatches"]:
        notes.append("%d unit results changed between timed repetitions"
                     % raw["rep_mismatches"])
    if raw["cache_hits"]:
        notes.append("%d results came from the results cache"
                     % raw["cache_hits"])
    if traced:
        attempted += len(units)
        failed += raw["trace"]["mismatched_units"]
        if raw["trace"]["mismatched_units"]:
            notes.append("%d units differ between timed and traced runs"
                         % raw["trace"]["mismatched_units"])
    if workload == "paper_sweep":
        shape = shape_problems(units)
        if shape:
            notes.extend(shape)
            # The TD-NUCA units of every run carry the broken shape.
            failed += sum(u["reps"] for u in units if u["policy"] == "TD-NUCA")
    failed = min(failed, attempted)
    correct = failed == 0 and not notes

    if traced:
        metrics = layer_metrics(raw, raw["trace"]["latency_reports"])
        return metrics, correct, attempted, failed, notes

    wall = workload_wall(raw["wall_s"])
    metrics = {
        "wall_s": wall,
        "sim_events_per_s": total(units, "sim.events") / wall,
        "setup_s": setup_time(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    metrics.update(simulated_metrics(workload, units))
    return metrics, correct, attempted, failed, notes


def unit_of(name):
    if name in HOST_METRICS:
        return HOST_METRICS[name]
    if name in SIM_METRICS:
        return SIM_METRICS[name][1]
    return LAYER_METRICS[name]
