"""The runtime's per-task indexes against the history scans they replaced.

The runtime answers "who consumes this object?" from a consumer index and
"which tasks can a failure still reach?" from a lazily pruned live map, both
kept at submit time.  These tests hold them to the full ``_ctxs`` scans they
replaced: the legacy scans live on here as oracles, a lockstep twin runtime
runs them for real, and a counting dict proves the shipping paths never
iterate the task history at all.
"""

from __future__ import annotations

import hashlib
import random
import types
from typing import List, Optional

import pytest

from repro.cluster.cluster import build_serverful
from repro.cluster.hardware import DeviceKind
from repro.runtime import (
    AdmissionPolicy,
    GetTimeoutError,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
    TaskError,
    TaskState,
    UnrecoverableObjectError,
)
from repro.runtime.overload import AdmissionRejectedError

TERMINAL = (TaskState.FINISHED, TaskState.FAILED, TaskState.CANCELLED)
NOT_STARTED = (TaskState.PENDING, TaskState.SCHEDULED, TaskState.RESOLVING)


# -- oracles: the history scans the indexes replaced -------------------------


def legacy_cancel_downstream(rt: ServerlessRuntime, root) -> None:
    """The cascade as a scan over every task ever submitted, once per hop."""
    frontier = {root.ref.object_id}
    seen = set(frontier)
    while frontier:
        cancelled_oids, frontier = frontier, set()
        for ctx in list(rt._ctxs.values()):
            if ctx.state not in NOT_STARTED:
                continue
            if (
                any(dep.object_id in cancelled_oids for dep in ctx.spec.dependencies)
                and rt._cancel_ctx(ctx, reason="upstream_cancelled")
                and ctx.ref.object_id not in seen
            ):
                seen.add(ctx.ref.object_id)
                frontier.add(ctx.ref.object_id)


def brute_open_consumers(rt: ServerlessRuntime, object_id: str) -> bool:
    return any(
        ctx.state not in TERMINAL
        and any(dep.object_id == object_id for dep in ctx.spec.dependencies)
        for ctx in list(rt._ctxs.values())
    )


def brute_live(rt: ServerlessRuntime) -> List:
    """Main contexts a failure path can reach, in submit order."""
    return [
        ctx
        for ctx in list(rt._ctxs.values())
        if ctx.state not in TERMINAL or ctx.twin is not None
    ]


# -- a seeded random DAG driven through cancels, frees and failures ----------


def step(*xs: int) -> int:
    return sum(xs) + 1


CONFIGS = {
    "pull": dict(resolution=ResolutionMode.PULL),
    # every attempt grows a speculative twin, and one retry is all a task
    # gets, so main contexts fail while their twins still run
    "push-speculative": dict(
        resolution=ResolutionMode.PUSH, speculation_factor=0.5, max_retries=1
    ),
}


def make_rt(legacy: bool, config: str) -> ServerlessRuntime:
    rt = ServerlessRuntime(build_serverful(n_servers=3), RuntimeConfig(**CONFIGS[config]))
    rt.cancel_log = []
    inner = rt._cancel_ctx

    def recording_cancel(ctx, reason):
        cancelled = inner(ctx, reason=reason)
        if cancelled:
            rt.cancel_log.append((ctx.spec.task_id, reason))
        return cancelled

    rt._cancel_ctx = recording_cancel
    if legacy:
        rt._cancel_downstream = types.MethodType(legacy_cancel_downstream, rt)
        rt._open_consumers = types.MethodType(brute_open_consumers, rt)
    return rt


class Driver:
    """Applies one seeded operation stream to a runtime."""

    def __init__(self, rt: ServerlessRuntime, seed: int):
        self.rt = rt
        self.rng = random.Random(seed)
        self.refs: List = []
        self.freed = set()
        self.outcomes: List = []
        self.torn = False

    def usable(self) -> List:
        return [
            r
            for r in self.refs
            if r.object_id not in self.freed
            and self.rt.task_state(r) not in (TaskState.CANCELLED, TaskState.FAILED)
        ]

    def submit_wave(self) -> None:
        for _ in range(self.rng.randint(2, 6)):
            pool = self.usable()
            deps = [self.rng.choice(pool) for _ in range(self.rng.randint(0, 3))] if pool else []
            self.refs.append(
                self.rt.submit(
                    step,
                    tuple(deps),  # a repeated dependency counts once
                    compute_cost=self.rng.choice((1e-3, 3e-3, 2e-2)),
                    name=f"t{len(self.refs)}",
                )
            )

    def advance(self) -> None:
        self.run(until=self.rt.sim.now + self.rng.choice((1e-4, 2e-3, 1e-2)))

    def run(self, until: Optional[float] = None) -> None:
        try:
            self.rt.run(until=until)
        except KeyError as exc:
            # a known defect, not the indexes': a push can read an object
            # whose store a device failure just cleared (the soak's defect
            # (b) in perfbench/README.md).  Both twins must hit it at the
            # same point; the stream ends there, because the simulation is
            # torn after an escaped error.
            self.outcomes.append(("escaped", str(exc)))
            self.torn = True

    def cancel(self) -> None:
        if self.refs:
            self.outcomes.append(self.rt.cancel(self.rng.choice(self.refs)))

    def free(self) -> None:
        pool = [r for r in self.refs if r.object_id not in self.freed]
        if pool:
            ref = self.rng.choice(pool)
            self.freed.add(ref.object_id)
            self.outcomes.append(self.rt.free(ref))

    def fail_device(self) -> None:
        cpu = self.rt.cluster.node("server1").first_of_kind(DeviceKind.CPU)
        self.outcomes.append(sorted(self.rt.fail_device(cpu.device_id)))

    def lose_and_replay(self) -> None:
        self.outcomes.append(sorted(self.rt.fail_node("server2")))
        self.rt.restart_node("server2")
        finished = [
            r
            for r in self.refs
            if r.object_id not in self.freed
            and self.rt.task_state(r) is TaskState.FINISHED
        ]
        self.outcomes.extend(self.get(ref) for ref in finished[-3:])

    def get(self, ref) -> object:
        try:
            return self.rt.get(ref, timeout=1.0)
        except (TaskError, GetTimeoutError, UnrecoverableObjectError) as exc:
            return type(exc).__name__

    def play(self, n_steps: int):
        """Yield after every operation, so a caller can check invariants."""
        ops = [self.cancel, self.free, self.advance, self.submit_wave]
        for i in range(n_steps):
            if i == n_steps // 3:
                op = self.fail_device
            elif i == 2 * n_steps // 3:
                op = self.lose_and_replay
            elif i % 4 == 0:
                op = self.submit_wave
            else:
                op = self.rng.choice(ops)
            op()
            yield op.__name__
            if self.torn:
                return
        self.run()
        yield "drain"


def assert_indexes_match_history(rt: ServerlessRuntime) -> None:
    objects = {dep.object_id for ctx in list(rt._ctxs.values()) for dep in ctx.spec.dependencies}
    objects |= {ctx.ref.object_id for ctx in list(rt._ctxs.values())}
    for oid in sorted(objects):
        assert rt._open_consumers(oid) == brute_open_consumers(rt, oid), oid
        consumers = [
            ctx.spec.task_id
            for ctx in list(rt._ctxs.values())
            if any(dep.object_id == oid for dep in ctx.spec.dependencies)
        ]
        assert rt._consumers.get(oid, []) == consumers, oid  # each task once
    live = rt._live_ctxs()
    expected = brute_live(rt)
    assert [c.spec.task_id for c in live] == [c.spec.task_id for c in expected]
    assert all(a is b for a, b in zip(live, expected, strict=True))
    # a replay keeps the first life's submit position
    assert [c.seq for c in rt._ctxs.values()] == list(range(len(rt._ctxs)))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [3, 11, 2024])
def test_indexes_agree_with_history_scans(seed, config):
    new, old = make_rt(False, config), make_rt(True, config)
    new_driver, old_driver = Driver(new, seed), Driver(old, seed)
    twins_seen = False
    for label, _ in zip(new_driver.play(60), old_driver.play(60), strict=True):
        assert new.cancel_log == old.cancel_log, label
        assert new_driver.outcomes == old_driver.outcomes, label
        assert {t: c.state for t, c in new._ctxs.items()} == {
            t: c.state for t, c in old._ctxs.items()
        }, label
        assert_indexes_match_history(new)
        twins_seen = twins_seen or any(c.twin is not None for c in new._ctxs.values())
    assert new.log.signature() == old.log.signature()
    assert any(reason == "upstream_cancelled" for _t, reason in new.cancel_log)
    assert new.lineage.replays == old.lineage.replays
    if config == "pull":
        assert new.lineage.replays > 0
    else:
        assert twins_seen
    assert new._ctxs.keys() == old._ctxs.keys()


# -- no history scans on any path -------------------------------------------


class CountingDict(dict):
    """A ``_ctxs`` stand-in that counts full iterations."""

    def __init__(self):
        super().__init__()
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def values(self):
        self.iterations += 1
        return super().values()

    def keys(self):
        self.iterations += 1
        return super().keys()

    def items(self):
        self.iterations += 1
        return super().items()


def chain(rt, head, length: int, **kwargs):
    ref = head
    for i in range(length):
        ref = rt.submit(step, (ref,), name=f"link{i}", **kwargs)
    return ref


# the scenario's event-log digest, computed with the history scans in place
SCENARIO_SIGNATURE_SHA256 = "d1d211adc1523302dde25676957a01bbdb9552fa89d54ae027ee3fd9af09e2ac"


def history_free_scenario() -> ServerlessRuntime:
    rt = ServerlessRuntime(
        build_serverful(n_servers=3),
        RuntimeConfig(
            resolution=ResolutionMode.PULL,
            admission_control=True,
            admission_queue_depth=9,
            admission_policy=AdmissionPolicy.SHED_LOWEST_PRIORITY,
        ),
    )
    rt._ctxs = CountingDict()
    cpu2 = rt.cluster.node("server2").first_of_kind(DeviceKind.CPU).device_id

    # lineage: a finished chain on server2, lost with the node, rebuilt by get
    kept = chain(rt, rt.submit(step, name="kept0", pinned_device=cpu2), 2, pinned_device=cpu2)
    assert rt.get(kept) == 3

    # a deep cascade hanging off a slow root, a shed victim, a deferred free
    root = rt.submit(step, compute_cost=0.5, name="root")
    tail = chain(rt, root, 5, priority=5)
    victim = rt.submit(step, (root,), priority=0, name="victim")
    assert rt.free(root) == 0  # its consumers are open: deferred
    busy = [rt.submit(step, compute_cost=0.2, name=f"busy{i}") for i in range(2)]
    rt.run(until=rt.sim.now + 0.01)

    # admission is full: a high-priority arrival displaces the victim
    high = rt.submit(step, priority=9, name="vip")
    assert rt.task_state(victim) is TaskState.CANCELLED

    busy_device = rt._ctx_of_object[busy[0].object_id].device.device_id
    rt.fail_device(busy_device)  # device interrupt + proactive recovery scan
    rt.fail_node("server2")  # node interrupt; kept's outputs are lost
    rt.restart_node("server2")
    rt.cancel(root)  # cascade down the five-link tail
    assert rt.task_state(tail) is TaskState.CANCELLED
    with pytest.raises(AdmissionRejectedError):
        for _ in range(20):
            rt.submit(step, priority=-1)
    rt.run()
    assert rt.get(kept) == 3  # rebuilt by lineage replay
    assert rt.lineage.replays >= 1
    assert rt.get(high) == 1
    assert rt.get(busy) == [1, 1]
    return rt


def test_no_history_scans_and_pinned_signature():
    rt = history_free_scenario()
    assert rt._ctxs.iterations == 0
    digest = hashlib.sha256(repr(rt.log.signature()).encode()).hexdigest()
    assert digest == SCENARIO_SIGNATURE_SHA256
