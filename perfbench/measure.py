"""Timed runs and the end-to-end metrics computed from them."""

from __future__ import annotations

import heapq
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import SimResult, Workload

# nearest-rank percentiles the tail metric may report, highest last
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def nearest_rank(n: int, q: float) -> int:
    """1-based rank of the nearest-rank ``q`` percentile of ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1] if ordered else None


def tail(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(latency, percentile, samples)`` at the highest ladder percentile
    that leaves at least :data:`TAIL_BEYOND` samples beyond it."""
    n = len(values)
    fits = [q for q in TAIL_LADDER if n - nearest_rank(n, q) >= TAIL_BEYOND]
    if not fits:
        return None, None, n
    return percentile(values, fits[-1]), fits[-1], n


# Host speed on a shared machine drifts by tens of percent over minutes
# (other tenants, SMT siblings, frequency).  Every host time is therefore
# divided by the time of a frozen calibration loop run next to it, and
# reported in reference seconds: the host seconds it would have taken on a
# host where the loop takes REFERENCE_CALIBRATION_S (about what it takes on
# the 2-vCPU x86-64 container the benchmark was tuned on).
CALIBRATION_STEPS = 20_000
REFERENCE_CALIBRATION_S = 0.016
CALIBRATE_EVERY_S = 0.5  # host seconds of plays between two calibrations


def calibrate() -> float:
    """Host seconds of a fixed pure-Python event loop: generator processes
    resumed from a heap of timed events, as a simulator core does.  It uses
    nothing from ``repro``, so a change to the program cannot move it."""
    start = time.perf_counter()
    heap: List[tuple] = []
    ledger: Dict[int, float] = {}

    def process(k: int):
        x = k
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            yield (x % 1000) * 1e-6

    for k in range(64):
        heapq.heappush(heap, (0.0, k, k, process(k)))
    seq = 64
    for _ in range(CALIBRATION_STEPS):
        now, _seq, k, proc = heapq.heappop(heap)
        delay = next(proc)
        ledger[k] = ledger.get(k, 0.0) + delay
        seq += 1
        heapq.heappush(heap, (now + delay, seq, k, proc))
    return time.perf_counter() - start


@dataclass
class Run:
    """One timed run: the first pass gives the virtual metrics; every pass
    after it replays the same inputs and must reproduce them exactly."""

    sims: List[SimResult] = field(default_factory=list)  # first pass, one per input
    # every timed play, per input, in calibration units (host s / loop s)
    walls: List[List[float]] = field(default_factory=list)
    setups: List[List[float]] = field(default_factory=list)
    calibrations: List[float] = field(default_factory=list)  # host seconds
    passes: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ops(self):
        return [op for sim in self.sims for op in sim.ops]


def timed_run(workload: Workload, seed: int, seconds: float) -> Run:
    """Cycle over the workload's inputs until ``seconds`` of host time have
    passed and every input has been played at least twice, calibrating the
    host's speed every :data:`CALIBRATE_EVERY_S` in between."""
    inputs = workload.inputs(seed)
    run = Run()
    keys = []
    pending: List[Tuple[int, float, float]] = []  # plays since the last calibration

    def calibrated() -> None:
        loop_s = calibrate()
        run.calibrations.append(loop_s)
        for k, wall_s, setup_s in pending:
            run.walls[k].append(wall_s / loop_s)
            run.setups[k].append(setup_s / loop_s)
        pending.clear()

    start = last = time.perf_counter()
    i = 0
    while i < 2 * len(inputs) or time.perf_counter() - start < seconds:
        k = i % len(inputs)
        sim = workload.play(inputs[k])
        if i < len(inputs):
            run.sims.append(sim)
            keys.append(sim.witness_key())
            run.walls.append([])
            run.setups.append([])
        elif sim.witness_key() != keys[k]:
            run.mismatches.append(f"input {inputs[k]} replayed differently")
            fail_all(run.sims[k], "replay differed from the first play")
        pending.append((k, sim.wall_s, sim.setup_s))
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            calibrated()
            last = time.perf_counter()
        i += 1
        if i % len(inputs) == 0:
            run.passes += 1
    if pending:
        calibrated()
    return run


def fail_all(sim: SimResult, reason: str) -> None:
    """A simulation that did not replay exactly fails every op it played."""
    for op in sim.ops:
        op.status, op.reason = "failed", reason


def best_of(plays: List[List[float]]) -> float:
    """Median over inputs of each input's fastest play, in reference
    seconds.  The fastest of several interleaved plays filters out moments
    the host was busy with something else; the median over inputs keeps
    every input in the mix."""
    return statistics.median(min(times) for times in plays) * REFERENCE_CALIBRATION_S


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, import_s: float) -> Dict[str, dict]:
    """All nine end-to-end metrics; ``None`` where a run has no sample.
    ``import_s`` is the import time in reference seconds."""
    ops = run.ops
    attempted = len(ops)
    ok = [op for op in ops if op.status == "ok"]
    lat = [op.latency for op in ok]
    good = sum(1 for op in ok if op.in_slo)
    virtual = sum(sim.makespan for sim in run.sims)
    tail_value, tail_q, tail_n = tail(lat)
    return {
        "setup_s": {"value": import_s + best_of(run.setups)},
        "wall_s": {"value": best_of(run.walls)},
        "peak_rss_mb": {"value": peak_rss_mb()},
        "failed_frac": {
            "value": sum(op.status == "failed" for op in ops) / attempted
        },
        "shed_frac": {"value": sum(op.status == "shed" for op in ops) / attempted},
        "v_goodput_ops": {"value": good / virtual if virtual > 0 else None},
        "v_latency_p50_s": {"value": percentile(lat, 0.5)},
        "v_latency_tail_s": {
            "value": tail_value,
            "percentile": tail_q,
            "samples": tail_n,
        },
        "v_makespan_s": {"value": statistics.median(sim.makespan for sim in run.sims)},
    }
