"""The traced run: per-layer host attribution measured from outside ``repro``.

Three passes over the same inputs, so no pass pays for another's tracer:

1. untraced, for the wall time the overhead is measured against and for
   the per-layer counts read from the public API;
2. under ``cProfile``, enabled from the first simulated event until the run
   is drained and checked, for self-time per layer and the layer-to-layer
   call matrix;
3. under ``tracemalloc``, started before the cluster is built, for the bytes
   each layer still holds when the simulator drains.  This pass plays only
   the first input: the tracer slows a simulation several-fold.

Results stay in memory until the run ends.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from typing import Dict, List, Sequence, Tuple

from layers import LAYERS, UNATTRIBUTED, LayerResolver, attribute, retained_by_layer
from measure import fail_all, percentile
from workloads import Hooks, SimResult, Workload

MIB = float(1 << 20)
TRACEBACK_FRAMES = 16  # deep enough to reach a repro frame from the stdlib


class _Profiled(Hooks):
    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def before_sim(self) -> None:
        self.profile.enable()

    def at_drain(self) -> None:
        self.profile.disable()


class _Retained(Hooks):
    def __init__(self, resolver: LayerResolver) -> None:
        self.resolver = resolver
        self.held: Dict[str, int] = {}

    def before_setup(self) -> None:
        tracemalloc.start(TRACEBACK_FRAMES)

    def at_drain(self) -> None:
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        self.held = retained_by_layer(snapshot.statistics("traceback"), self.resolver)


def _counts(sims: Sequence[SimResult]) -> Dict[str, float]:
    """Public-API counts summed over the run's simulations, plus the ratios
    and medians built from them."""
    total: Dict[str, float] = {}
    for sim in sims:
        for key, value in sim.counts.items():
            total[key] = total.get(key, 0) + value
    waits = {key: [x for sim in sims for x in sim.samples.get(key, ())]
             for key in ("runtime.v_queue_wait_s", "serving.v_queue_wait_s")}
    sent = total["network.messages"] + total["network.transfer_attempts"]
    delivered = total.pop("network.messages_delivered") + total["network.transfers"]
    finished = total.pop("runtime.tasks_finished")
    total.update({
        "network.delivered_frac": delivered / sent if sent else 1.0,
        "network.link_mb": total.pop("network.link_bytes") / MIB,
        "network.multicast_saved_mb": total.pop("network.multicast_saved_bytes") / MIB,
        "runtime.useful_attempt_frac": (
            finished / total["runtime.attempts"] if total["runtime.attempts"] else 1.0
        ),
        "runtime.v_queue_wait_p50_s": percentile(waits["runtime.v_queue_wait_s"], 0.5) or 0.0,
        "serving.v_queue_wait_p50_s": percentile(waits["serving.v_queue_wait_s"], 0.5) or 0.0,
    })
    for key in ("serving.offered", "serving.admitted", "serving.shed"):
        total.setdefault(key, 0)  # no frontend in the closed-loop workloads
    return total


def traced_run(
    workload: Workload, seed: int, package_dir: str
) -> Tuple[Dict, Dict, List[SimResult], List[str]]:
    """Per-layer metrics for one seed, the call matrix beside them, the
    untraced simulations, and any traced replay that did not match them."""
    inputs = workload.inputs(seed)
    resolver = LayerResolver(package_dir)

    plain = [workload.play(s) for s in inputs]
    untraced_wall = sum(sim.wall_s for sim in plain)
    events = sum(sim.events for sim in plain)

    profiled = _Profiled()
    traced = [workload.play(s, profiled) for s in inputs]
    traced_wall = sum(sim.wall_s for sim in traced)
    mismatches = []
    for a, b in zip(plain, traced):
        if a.witness_key() != b.witness_key():
            mismatches.append(f"input {a.seed} replayed differently under the profiler")
            fail_all(a, "replay differed under the profiler")
    self_s, matrix = attribute(pstats.Stats(profiled.profile).stats, resolver)

    retained = _Retained(resolver)
    workload.play(inputs[0], retained)
    held = retained.held

    profiled_s = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.share"] = self_s.get(layer, 0.0) / profiled_s
        metrics[f"{layer}.retained_mb"] = held.get(layer, 0) / MIB
    metrics.update({
        "trace.overhead": traced_wall / untraced_wall,
        "trace.profiled_s": profiled_s,
        "trace.unattributed_s": self_s.get(UNATTRIBUTED, 0.0),
        "trace.unattributed_share": self_s.get(UNATTRIBUTED, 0.0) / profiled_s,
        "trace.unattributed_retained_mb": held.get(UNATTRIBUTED, 0) / MIB,
        "kernel.us_per_event": untraced_wall / events * 1e6,
    })
    metrics.update(_counts(plain))
    calls = {
        f"{caller}->{callee}": {"calls": cell["calls"], "self_s": cell["self_s"]}
        for (caller, callee), cell in sorted(matrix.items())
    }
    return metrics, calls, plain, mismatches
