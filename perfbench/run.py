"""The repository benchmark: one seeded workload, both clocks, every op checked.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``.
With ``--trace 0`` it times the workload untraced for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it makes the traced run
and reports the per-layer metrics.  A table goes to standard output first,
a results file to ``perfbench/out/``, and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
IMPORT_SAMPLES = 3

# (name, unit, better).  All nine are computed and printed for every
# workload; GATED names the ones BENCHMARK.json bounds — those that are
# never 0 and steady across seeds on every workload (see README.md).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("shed_frac", "ratio", "lower"),
    ("v_goodput_ops", "1/s", "higher"),
    ("v_latency_p50_s", "s", "lower"),
    ("v_latency_tail_s", "s", "lower"),
    ("v_makespan_s", "s", "lower"),
)
GATED = ("setup_s", "wall_s", "peak_rss_mb", "v_latency_p50_s", "v_makespan_s")

LAYER_NAMES = (
    "kernel", "network", "runtime", "scheduler", "overload", "health", "ha",
    "serving", "telemetry", "chaos", "caching", "probe", "frontend", "bench",
)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *(
        metric
        for layer in LAYER_NAMES
        for metric in (
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
            (f"{layer}.retained_mb", "MB", "lower"),
        )
    ),
    ("trace.overhead", "ratio", "lower"),
    ("trace.profiled_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.unattributed_retained_mb", "MB", "lower"),
    ("kernel.events", "count", "lower"),
    ("kernel.us_per_event", "us", "lower"),
    ("network.messages", "count", "lower"),
    ("network.messages_dropped", "count", "lower"),
    ("network.transfers", "count", "lower"),
    ("network.transfer_attempts", "count", "lower"),
    ("network.delivered_frac", "ratio", "higher"),
    ("network.link_mb", "MB", "lower"),
    ("network.multicast_saved_mb", "MB", "higher"),
    ("runtime.tasks_submitted", "count", "lower"),
    ("runtime.attempts", "count", "lower"),
    ("runtime.tasks_retried", "count", "lower"),
    ("runtime.tasks_failed", "count", "lower"),
    ("runtime.tasks_cancelled", "count", "lower"),
    ("runtime.useful_attempt_frac", "ratio", "higher"),
    ("runtime.v_queue_wait_p50_s", "s", "lower"),
    ("health.suspicions", "count", "lower"),
    ("ha.failovers", "count", "lower"),
    ("ha.wal_records", "count", "lower"),
    ("ha.v_unavailability_s", "s", "lower"),
    ("serving.offered", "count", "higher"),
    ("serving.admitted", "count", "higher"),
    ("serving.shed", "count", "lower"),
    ("serving.v_queue_wait_p50_s", "s", "lower"),
    ("telemetry.instruments", "count", "lower"),
    ("telemetry.spans_retained", "count", "lower"),
    ("telemetry.log_events", "count", "lower"),
)


def import_samples() -> List[Tuple[float, float]]:
    """``(import host s, calibration host s)`` for several imports of what
    a workload needs, each in a fresh interpreter with the calibration loop
    run right after it.  Interpreter start-up itself is not counted."""
    code = (
        "import time; t = time.perf_counter(); import workloads; "
        "t = time.perf_counter() - t; from measure import calibrate; "
        "print(t, calibrate())"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120,
        )
        import_s, loop_s = map(float, done.stdout.split()[-2:])
        samples.append((import_s, loop_s))
    return samples


def tally(pairs) -> List[List]:
    """``[[what, count, first input seed], ...]`` from ``(what, seed)`` pairs,
    so every reported failure names an input that reproduces it."""
    counts: Counter = Counter()
    first: Dict[str, int] = {}
    for what, seed in pairs:
        counts[what] += 1
        first.setdefault(what, seed)
    return [[what, counts[what], first[what]] for what in sorted(counts)]


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def report(
    title: str, metrics: Dict[str, dict], spec: Sequence[Tuple[str, str, str]],
    gated: Sequence[str],
) -> None:
    print(title)
    for name, unit, better in spec:
        entry = metrics[name]
        note = ""
        if entry.get("percentile") is not None:
            note = f"  (p{entry['percentile'] * 100:g} of {entry['samples']} samples)"
        mark = "" if name in gated else "  [not gated]"
        print(f"  {name:34s} {_fmt(entry['value']):>12s} {unit:6s} {better} is better{note}{mark}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under src/ next to {os.path.basename(HERE)}/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    package_dir = os.path.join(SRC, "repro")

    if args.trace:
        from tracing import traced_run

        values, calls, sims, mismatches = traced_run(workload, args.seed, package_dir)
        metrics = {name: {"value": values[name]} for name, _u, _b in PER_LAYER}
        spec, gated = PER_LAYER, [name for name, _u, _b in PER_LAYER]
        extra = {"calls": calls}
    else:
        from measure import REFERENCE_CALIBRATION_S, end_to_end, timed_run

        imports = import_samples()
        # the fastest import, in reference seconds like every host time
        import_s = min(i / c for i, c in imports) * REFERENCE_CALIBRATION_S
        run = timed_run(workload, args.seed, args.seconds)
        metrics = end_to_end(run, import_s)
        sims, mismatches = run.sims, run.mismatches
        spec, gated = END_TO_END, GATED
        extra = {
            "passes": run.passes,
            "timed_simulations": sum(map(len, run.walls)),
            "import_host_s": min(i for i, _c in imports),
            "calibration_host_s": statistics.median(run.calibrations),
        }

    ops = [(op, sim.seed) for sim in sims for op in sim.ops]
    attempted = len(ops)
    reasons = tally((op.reason, seed) for op, seed in ops if op.status == "failed")
    failed = sum(count for _r, count, _s in reasons)
    incidents = tally((i, sim.seed) for sim in sims for i in sim.incidents)
    problems = [p for sim in sims for p in sim.problems] + mismatches
    correct = not problems

    report(
        f"{workload.name} (seed {args.seed}, {len(sims)} simulations, "
        f"trace {args.trace}): {attempted} ops, {failed} failed",
        metrics, spec, gated,
    )
    for reason, count, seed in reasons:
        print(f"  failed x{count} (first on input {seed}): {reason}")
    for incident, count, seed in incidents:
        print(f"  incident x{count} (first on input {seed}): {incident}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    os.makedirs(OUT, exist_ok=True)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": reasons,
        "incidents": incidents,
        "problems": problems,
        "metrics": {
            name: {**metrics[name], "unit": unit, "better": better}
            for name, unit, better in spec
        },
        **extra,
    }
    path = os.path.join(OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")

    missing = [name for name in gated if metrics[name]["value"] is None]
    if missing:
        print(f"error: no sample for {', '.join(missing)}", file=sys.stderr)
        return 3
    units = {name: unit for name, unit, _b in spec}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": units[name]} for name in gated
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
