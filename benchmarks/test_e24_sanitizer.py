"""E24 — Skadi-TSan: sanitizer cost, offline sanitize, seeded detection.

The distributed sanitizer (``repro.analysis.dist``) must earn its keep in
three ways, measured here on the flagship workloads:

1. **Online cost** — running the eight protocol invariant monitors inline
   (``sanitizers=("invariants",)``) on the E17 chaos soak should cost a
   few percent of wall time (target <5%; the measured ratio is recorded
   in BENCH_E24.json either way).  Full tracing + happens-before replay
   material (``("hb", "invariants")``) is allowed to cost more — that
   mode exists for trace capture, not for always-on use.  Either way the
   EventLog signature must stay bit-for-bit identical to the legacy run.
2. **Offline sanitize** — dumped traces from E17 (complete) and E22 (cut
   mid-run at the drain, hence ``partial``) replay through the CLI path
   (:func:`repro.analysis.dist.cli.sanitize_path`) and come back clean:
   the production protocols hold up under the monitors and the race
   detector.
3. **Detection + shrinking** — a seeded use-after-free (driver ``free``
   concurrent with an in-flight cross-node consumer) is flagged as a
   ``dir_read``/``own_free`` race, and the schedule-perturbation hunt
   finds a failing reordering and ddmin-shrinks it to a minimal schedule.

Timing is interleaved min-of-N with a GC sweep before every run: the two
modes alternate so drift (thermal, page cache, allocator growth) hits
both equally, and min-of-N discards scheduler noise.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.dist import hunt
from repro.analysis.dist.cli import sanitize_path
from repro.bench import ResultTable
from repro.chaos.perturb import TiePerturbation
from repro.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import ResolutionMode, RuntimeConfig, ServerlessRuntime
from repro.runtime.task import TaskState

ROUNDS = 9  # interleaved timing rounds per mode (min-of-N)
OVERHEAD_TARGET = 0.05  # the design target for always-on monitors
# CI sanity ceilings — shared-runner timing is noisy, so the hard assert
# is deliberately loose; the *measured* ratio lands in BENCH_E24.json and
# regressions show up as a diff there, not as a flaky red build.
INV_OVERHEAD_CEILING = 0.35
FULL_OVERHEAD_CEILING = 1.0


def load_bench(name):
    """Import a sibling benchmark module by path (benchmarks/ is not a
    package; E24 reuses the E17/E22 workload builders)."""
    path = Path(__file__).resolve().parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_e24_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


# ----------------------------------------------------------------------
# Phase 1: online overhead on the E17 chaos soak
# ----------------------------------------------------------------------

def measure_online_overhead(e17, rounds=ROUNDS):
    modes = (
        ("off", {}),
        ("invariants", {"sanitizers": ("invariants",)}),
        ("hb+invariants", {"sanitizers": ("hb", "invariants")}),
    )
    # warm every path first (imports, code objects, allocator pools) and
    # use the warmup runs as the zero-interference witness
    warm = {}
    for mode, overrides in modes:
        warm[mode] = e17.run_soak(e17.SEED, chaos=True, **overrides)
    assert (
        warm["off"]["signature"]
        == warm["invariants"]["signature"]
        == warm["hb+invariants"]["signature"]
    ), "sanitizers changed the observable event log"
    assert warm["off"]["answer"] == warm["invariants"]["answer"]

    times = {mode: [] for mode, _ in modes}
    for _ in range(rounds):
        for mode, overrides in modes:
            gc.collect()
            start = time.perf_counter()
            e17.run_soak(e17.SEED, chaos=True, **overrides)
            times[mode].append(time.perf_counter() - start)
    best = {mode: min(ts) for mode, ts in times.items()}
    return {
        "rounds": rounds,
        "off_s": best["off"],
        "invariants_s": best["invariants"],
        "hb_invariants_s": best["hb+invariants"],
        "invariants_overhead": best["invariants"] / best["off"] - 1.0,
        "hb_invariants_overhead": best["hb+invariants"] / best["off"] - 1.0,
        "target": OVERHEAD_TARGET,
        "proto_events": len(warm["hb+invariants"]["rt"].probe.trace),
    }


# ----------------------------------------------------------------------
# Phase 3: the seeded use-after-free and the perturbation hunt
# ----------------------------------------------------------------------

def free_race_scenario(perturbation=None, free_at=20e-3):
    """Producer on server0, consumer pinned cross-node, and a driver
    ``free`` landing while the consumer attempt is mid-compute.  At
    ``free_at=20e-3`` the free always lands under the 50ms consumer (the
    detection case); at ``free_at=52e-3`` the legacy schedule dodges it
    by ~1ms and only delivery jitter exposes the bug (the hunt case).

    Uses ``force=True``: the default ``free`` now quiesces in-flight
    consumers, so the race this benchmark seeds and hunts is only
    reachable through the legacy escape hatch."""
    cluster = build_serverful(n_servers=2)
    if perturbation is not None:
        cluster.sim.set_perturbation(perturbation)
    cpu0 = cluster.node("server0").first_of_kind(DeviceKind.CPU).device_id
    cpu1 = cluster.node("server1").first_of_kind(DeviceKind.CPU).device_id
    rt = ServerlessRuntime(
        cluster,
        RuntimeConfig(resolution=ResolutionMode.PULL,
                      sanitizers=("hb", "invariants")),
    )
    a = rt.submit(lambda: 5, name="a", compute_cost=1e-4,
                  output_nbytes=1 << 22, pinned_device=cpu0)
    rt.get(a)
    b = rt.submit(lambda x: x + 1, args=(a,), name="b",
                  compute_cost=50e-3, pinned_device=cpu1)

    def _free_mid_flight():
        yield rt.sim.timeout(free_at)
        rt.free(a, force=True)

    rt.sim.process(_free_mid_flight(), name="driver:free")
    rt.sim.run()
    return rt, rt._ctx_of_object[b.object_id]


def run_seeded_detection(tmp_dir):
    rt, _ctx = free_race_scenario(free_at=20e-3)
    report = rt.probe.report(partial=True)
    kinds = {frozenset((r.first.kind, r.second.kind)) for r in report.races}
    assert frozenset(("dir_read", "own_free")) in kinds, (
        "seeded use-after-free not detected online"
    )
    # the same verdict must come out of the offline CLI path
    trace_path = Path(tmp_dir) / "e24_seeded_race_trace.json"
    rt.probe.trace.dump(str(trace_path))
    offline = sanitize_path(trace_path, partial=True)
    offline_kinds = {
        frozenset((r.first.kind, r.second.kind)) for r in offline.races
    }
    assert frozenset(("dir_read", "own_free")) in offline_kinds
    return {
        "detected": True,
        "race_kinds": sorted(sorted(k) for k in kinds),
        "events": report.events,
        "races": len(report.races),
    }


def run_hunt():
    def consumer_broken(outcome):
        _rt, ctx = outcome
        return ctx.state != TaskState.FINISHED

    result = hunt(
        lambda p: free_race_scenario(p, free_at=52e-3),
        seeds=range(1, 13),
        jitter=0.25,
        predicate=consumer_broken,
        shrink_budget=24,
    )
    assert not result.baseline_failed  # legacy timing hides the bug
    assert result.found_failure, "jitter no longer exposes the free bug"
    assert result.minimal is not None and len(result.minimal) >= 1
    # the shrunk minimal schedule replays the failure deterministically
    replay = TiePerturbation(result.failing_seed, active=result.minimal,
                             jitter=0.25)
    _rt, ctx = free_race_scenario(replay, free_at=52e-3)
    assert ctx.state != TaskState.FINISHED
    return result.to_dict()


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------

def test_e24_sanitizer(benchmark, tmp_path):
    e17 = load_bench("test_e17_chaos_soak")
    e22 = load_bench("test_e22_overload")

    def sweep():
        overhead = measure_online_overhead(e17)

        # offline: dump flagship traces and replay them through the CLI path
        soak = e17.run_soak(e17.SEED, chaos=True, sanitizers=("trace",))
        e17_trace = tmp_path / "e17_dist_trace.json"
        soak["rt"].probe.trace.dump(str(e17_trace))
        e17_report = sanitize_path(e17_trace)
        e17_report.source = e17_trace.name  # the tmp dir differs per run

        rt22, _monkey = e22.run_scenario(spike=True, sanitizers=("trace",))
        e22_trace = tmp_path / "e22_dist_trace.json"
        rt22.probe.trace.dump(str(e22_trace))
        e22_report = sanitize_path(e22_trace, partial=True)
        e22_report.source = e22_trace.name

        seeded = run_seeded_detection(tmp_path)
        hunt_result = run_hunt()
        return overhead, e17_report, e22_report, seeded, hunt_result

    overhead, e17_report, e22_report, seeded, hunt_result = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    table = ResultTable(
        "E24: distributed sanitizer — online cost and detection power",
        ["check", "result"],
    )
    table.add_row(
        "online monitors overhead (E17 soak)",
        f"{overhead['invariants_overhead'] * 100:.1f}% "
        f"(target <{OVERHEAD_TARGET * 100:.0f}%)",
    )
    table.add_row(
        "full trace + hb capture overhead",
        f"{overhead['hb_invariants_overhead'] * 100:.1f}%",
    )
    table.add_row(
        "offline sanitize: E17 trace",
        f"{'clean' if e17_report.clean else 'DIRTY'} "
        f"({e17_report.events} events, {e17_report.sites} sites)",
    )
    table.add_row(
        "offline sanitize: E22 trace (partial)",
        f"{'clean' if e22_report.clean else 'DIRTY'} "
        f"({e22_report.events} events)",
    )
    table.add_row(
        "seeded use-after-free detected",
        f"dir_read/own_free race ({seeded['races']} race class(es))",
    )
    table.add_row(
        "hunt + ddmin minimal schedule",
        f"seed {hunt_result['failing_seed']}, "
        f"{len(hunt_result['minimal_schedule'])}-event reorder window "
        f"in {hunt_result['trials']} trial(s)",
    )
    table.show()

    # online monitors stay cheap; the measured ratio is the real deliverable
    assert overhead["invariants_overhead"] < INV_OVERHEAD_CEILING
    assert overhead["hb_invariants_overhead"] < FULL_OVERHEAD_CEILING
    # production protocols are clean under the full sanitizer
    assert e17_report.clean
    assert not e17_report.partial and e17_report.dangling_recvs == 0
    assert e22_report.clean and e22_report.partial
    # detection power: the seeded bug is caught and shrunk
    assert seeded["detected"]
    assert hunt_result["failing_seed"] is not None
    assert hunt_result["minimal_schedule"]

    payload = {
        "experiment": "E24",
        "title": "Skadi-TSan: sanitizer overhead and detection power",
        "online_overhead": overhead,
        "offline": {
            "e17": e17_report.to_dict(),
            "e22": e22_report.to_dict(),
        },
        "seeded_race": seeded,
        "hunt": hunt_result,
    }
    artifacts = os.environ.get("BENCH_ARTIFACTS")
    out_dir = artifacts or os.path.join(os.path.dirname(__file__), "baselines")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "BENCH_E24.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
