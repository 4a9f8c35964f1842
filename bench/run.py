#!/usr/bin/env python3
"""Benchmark of finhtop: one workload, one run, the metrics as JSON on the last line.

    python3 bench/run.py --workload suite|homology|reduce --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The run times the workload's set-up in fresh
interpreters, does one warm-up pass (excluded from timings), then repeats
passes for ``--seconds`` and checks every answer.  With ``--trace 0`` it
prints the end-to-end metrics, with timings scaled to reference speed (see
``Reference``); with ``--trace 1`` it spends half the time on
untraced passes and half on passes with a span around every wrapped library
function, and prints the per-layer metrics.  Metric names and units must
match BENCHMARK.json, or the run fails.  bench/README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 7
# Timings are scaled to a machine on which the reference computation takes
# REF_NOMINAL_S; REF_REPS references run after every timed pass.
REF_NOMINAL_S = 0.1
REF_REPS = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "simplices_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span names whose calls and self time are reported as they are.
CALLS_AND_SELF = (
    "poset.from_closure", "poset.subposet", "poset.linear_extension", "poset.map",
    "diagram.hocolim", "diagram.synthesize", "simplicial.enumerate", "homology.snf",
    "reduction.core", "reduction.search", "reduction.oracle",
)
SELF_ONLY = (
    "simplicial.order_complex", "simplicial.face_poset", "homology.boundary",
    "reduction.replay", "verify.suite", "io.dumps", "io.to_obj", "cli.main",
)
COUNTS = (
    "diagram.hocolim.points", "simplicial.simplices", "homology.snf.entries",
    "reduction.core.removed", "reduction.oracle.unknown", "io.bytes",
)


def per_layer_units(theorems) -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
    for name in CALLS_AND_SELF + SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units["homology.profile.calls"] = "count"
    units["verify.checks.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["io.bytes"] = "B"
    units["homology.snf.computed_bytes"] = "B"
    units["homology.snf.max_side"] = "count"
    units["reduction.search.found_ratio"] = "ratio"
    for name in ("homology.cache", "reduction.contractible_cache"):
        units[f"{name}.hits"] = "count"
        units[f"{name}.misses"] = "count"
    for t in theorems:
        units[f"verify.{t}.s"] = "s"
    units["other.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: what setup_s times in a fresh interpreter.
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


class SetupProbe:
    """Times the set-up in fresh interpreters, one probe between passes, so
    the probes sample the same stretch of time as the passes do."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)  # compiles bytecode
        self.times: list[float] = []

    def __call__(self) -> None:
        t = perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
        self.times.append(perf_counter() - t)

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self()
        return statistics.median(self.times)


class Reference:
    """A fixed computation in the benchmark's own code, timed between passes.

    On a host whose cores other tenants share, speed drifts by tens of
    percent over minutes, far more than a run can average out.  The reference
    drifts with it, so each run scales its timings by REF_NOMINAL_S over the
    reference's median.  Its mix is the library's: bitmask loops in Python
    (like the poset layer) and small int64 numpy row updates (like SNF).
    """

    def __init__(self, workloads):
        import numpy as np

        elements, relations = workloads.random_order(random.Random(0), 40, 0.15, "r")
        self.order = workloads.Order(elements, relations)
        self.matrix = np.random.default_rng(0).integers(-2, 3, size=(160, 160))
        self.times: list[float] = []

    def __call__(self) -> None:
        import numpy as np

        t = perf_counter()
        for _ in range(120):
            self.order.dismantle(self.order.full)
        for _ in range(3):
            a = self.matrix.copy()
            for r in range(100):
                np.nonzero(a[r:, r:])
                a[r + 1 :, r:] -= np.outer(a[r + 1 :, r], a[r, r:]) % 3
        self.times.append(perf_counter() - t)

    def scale(self) -> float:
        while len(self.times) < SETUP_RUNS * REF_REPS:
            self()
        return REF_NOMINAL_S / statistics.median(self.times)


def run_passes(wl, tracer, seconds: float, targets=(), between=None) -> list[tuple]:
    """Passes until ``seconds`` of passes have gone by (at least one); with
    ``targets`` wrapped, each pass also yields its span aggregate and counters.
    ``between`` runs after each pass, outside the measured time."""
    undo = tracer.install(targets)
    out = []
    try:
        spent = 0.0
        while not out or spent < seconds:
            tracer.reset()
            start = perf_counter()
            result = wl.run_pass()
            spent += perf_counter() - start
            out.append((result, tracer.aggregate(), Counter(tracer.counts)))
            if between is not None:
                between()
    finally:
        tracer.uninstall(undo)
    return out


def count_requested_simplices(wl, tracer, workloads) -> tuple:
    """The warm-up pass of the suite, counting the simplices of every poset
    whose homology its checkers ask for."""

    def hook(counts, result, args):
        p = args[0]
        counts["requested"] += workloads.Order(p.elements, p.covers).chain_count()

    [(result, _, counts)] = run_passes(
        wl, tracer, 0, [("finhtop.homology", "poset_homology", "probe", hook)]
    )
    wl.simplices = counts["requested"]
    return result


def end_to_end(wl, measured, raw_setup_s: float, scale: float) -> tuple[dict, list[str]]:
    """Pass medians, scaled to reference speed.  Item percentiles are taken
    within each pass and their median over passes is reported, so a burst of
    load on the machine during one pass does not fill the pooled tail."""
    walls = [r.wall_s for r, _, _ in measured]
    raw_wall = statistics.median(walls)
    wall = raw_wall * scale
    per_pass = [
        statistics.quantiles(r.item_s, n=100, method="inclusive")
        for r, _, _ in measured
        if len(r.item_s) >= 2
    ]
    p50 = statistics.median(q[49] for q in per_pass) if per_pass else 0.0
    p95 = statistics.median(q[94] for q in per_pass) if per_pass else 0.0
    values = {
        "setup_s": raw_setup_s * scale,
        "wall_s": wall,
        "items_per_s": wl.items_per_pass / wall,
        "item_p50_ms": p50 * scale * 1000,
        "item_p95_ms": p95 * scale * 1000,
        "simplices_per_s": wl.simplices / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = sum(len(r.item_s) for r, _, _ in measured)
    notes = [
        f"passes: {len(measured)} timed + 1 warm-up; {wl.items_per_pass} items per pass",
        f"item latency: {samples} samples; percentiles per pass, median over {len(per_pass)} passes",
        "walls: " + " ".join(f"{w:.3f}" for w in walls),
        f"unscaled: wall_s {raw_wall:.4f} s, setup_s {raw_setup_s:.4f} s; "
        f"timings scaled by {scale:.4f} (reference {REF_NOMINAL_S / scale:.4f} s)",
    ]
    return values, notes


def per_layer(plain, traced, theorems) -> tuple[dict, list[str]]:
    n = len(traced)
    agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: Counter = Counter()
    caches: Counter = Counter()
    for result, pass_agg, pass_counts in traced:
        for name, (calls, self_s, total) in pass_agg.items():
            a = agg[name]
            a[0] += calls
            a[1] += self_s
            a[2] += total
        counts.update(pass_counts)
        caches.update(result.caches)
    values = {}
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = agg[name][0] / n
    for name in CALLS_AND_SELF + SELF_ONLY:
        values[f"{name}.self_s"] = agg[name][1] / n
    values["homology.profile.calls"] = agg["homology.boundary"][0] / n
    checks = [f"verify.{t}" for t in theorems]
    values["verify.checks.self_s"] = sum(agg[c][1] for c in checks) / n
    for t, c in zip(theorems, checks):
        values[f"verify.{t}.s"] = agg[c][2] / n
    for name in COUNTS:
        values[name] = counts[name] / n
    values["homology.snf.computed_bytes"] = 8 * values["homology.snf.entries"]
    values["homology.snf.max_side"] = max(c["homology.snf.max_side"] for _, _, c in traced)
    searches = agg["reduction.search"][0]
    values["reduction.search.found_ratio"] = (
        counts["reduction.search.found"] / searches if searches else 0.0
    )
    for name, v in caches.items():
        values[name] = v / n
    traced_wall = sum(r.wall_s for r, _, _ in traced) / n
    values["trace.wall_s"] = traced_wall
    values["other.self_s"] = traced_wall - sum(a[1] for a in agg.values()) / n
    values["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r, _, _ in plain)
    notes = [f"passes: {len(plain)} untraced + {n} traced + 1 warm-up; means per traced pass",
             "walls: " + " ".join(f"{r.wall_s:.3f}" for r, _, _ in plain + traced)]
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "finhtop" / "__init__.py").is_file():
        print(f"error: no finhtop sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from finhtop import cli

    cli.build_parser()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    if args.workload == "suite":
        wl = workloads.Suite(args.seed, tracer)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0

    e2e_units, layer_units = declared_metrics()
    theorems = [t for t, _ in workloads.BATTERY]
    units = per_layer_units(theorems) if args.trace else END_TO_END_UNITS
    declared = layer_units if args.trace else e2e_units
    bad = [n for n in [*units, *declared] if not NAME.fullmatch(n)]
    if units != declared or bad:
        print("error: metric names or units differ from BENCHMARK.json, or are malformed:",
              sorted(set(units.items()) ^ set(declared.items())), bad, file=sys.stderr)
        return 3

    if args.workload == "suite":
        warmup = count_requested_simplices(wl, tracer, workloads)
    else:
        [(warmup, _, _)] = run_passes(wl, tracer, 0)
    if args.trace:
        plain = run_passes(wl, tracer, args.seconds / 2)
        traced = run_passes(wl, tracer, args.seconds / 2, spans.LAYER_TARGETS)
        measured = plain + traced
        values, notes = per_layer(plain, traced, theorems)
    else:
        probe = SetupProbe(args)
        reference = Reference(workloads)

        def between():
            probe()
            for _ in range(REF_REPS):
                reference()

        measured = run_passes(wl, tracer, args.seconds, between=between)
        values, notes = end_to_end(wl, measured, probe.median(), reference.scale())

    results = [warmup] + [r for r, _, _ in measured]
    failures = [f for r in results for f in r.failures]
    attempted = wl.items_per_pass * len(results)
    for note in notes + [f"failed_frac: {len(failures) / attempted} ({len(failures)}/{attempted})"]:
        print(f"# {args.workload} seed {args.seed}: {note}")
    for failure in sorted(set(failures)):
        print(f"# failed: {failure}")
    for name, value in values.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
