"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload turns the run's ``--seed`` into a fixed list of input seeds;
one input is one simulation (:meth:`Workload.play`).  A simulation builds
its own cluster and runtime, plays its operations, drains the simulator,
checks every operation, and reports what happened on both clocks.

* ``serve`` and ``storm`` are open loops of serving requests (the E23
  frontend and the E23 pass-through); an operation is one request.
* ``shuffle`` and ``soak`` are closed loops of all-to-all map/reduce jobs
  on the physically disaggregated cluster; an operation is one job, and
  its answer is compared with direct evaluation of the same DAG.

The sanitizer probe (``RuntimeConfig.sanitizers``) stays off everywhere.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.chaos import ChaosMonkey, ChaosSchedule
from repro.chaos.events import LoadBurst
from repro.cluster import DeviceKind, build_physical_disagg, build_serverful
from repro.cluster.hardware import MB
from repro.runtime import (
    ANY_COMPUTE_KIND,
    ResolutionMode,
    RuntimeConfig,
    ServerlessRuntime,
)
from repro.serving import ServingFrontend, TenantRegistry, WorkloadGenerator

# -- serving (E23) ------------------------------------------------------------

CAPACITY_REQ_S = 400.0  # one 16-slot server at 2e-2 s/task, ~2 tasks/request
N_TENANTS = 1_000_000
SPIKE_REQS = 120  # E23 trigger: 800 req/s for 0.15 s on top of the steady load
SPIKE_AT, SPIKE_LEN = 0.30, 0.15
SLOW_AT, SLOW_FACTOR, SLOW_LEN = 0.31, 4.0, 0.10

SERVING_SWITCHES = dict(
    serving_fair_queueing=True,
    serving_tenant_isolation=True,
    serving_slo_deadlines=True,
    serving_max_inflight=8,
    serving_queue_depth=32,
    admission_control=True,
    admission_queue_depth=16,
    retry_budget=True,
    retry_budget_ratio=0.1,
    retry_budget_cap=20.0,
)

# -- map/reduce jobs ----------------------------------------------------------

TASK_COST = 2e-2  # CPU-seconds; GPUs run it 40x and FPGAs 12x faster
SOAK_JOB_S = 7e-3  # virtual seconds a soak job takes with no faults
MODULUS = 1_000_003
CPU = frozenset({DeviceKind.CPU})
# build_physical_disagg(n_servers=3): the fault targets are the DPU-fronted
# cards; the servers host the head and its two HA standbys
CARDS = ("gpucard0", "gpucard1", "fpgacard0", "fpgacard1")
ACCELERATORS = (
    "gpucard0/gpu0", "gpucard1/gpu0",
    "fpgacard0/fpga0", "fpgacard0/fpga1", "fpgacard1/fpga0", "fpgacard1/fpga1",
)
FAULT_WINDOW_JOBS = 2  # chaos window, in fault-free jobs

MAX_DRAIN_ERRORS = 64  # kernel errors tolerated while draining one simulation


class Hooks:
    """Phase callbacks of :meth:`Workload.play`; the tracer overrides them."""

    def before_setup(self) -> None:
        """Before the cluster and runtime are built."""

    def before_sim(self) -> None:
        """Right before the first simulated event."""

    def at_drain(self) -> None:
        """After the run is drained and checked, with the runtime alive."""


NO_HOOKS = Hooks()


@dataclass
class Op:
    """The outcome of one operation (a request or a job)."""

    status: str  # "ok", "failed" or "shed"
    latency: float = 0.0  # virtual seconds, for "ok" only
    in_slo: bool = True
    reason: str = ""  # why a failed op failed


@dataclass
class SimResult:
    """One simulation: its operations, both clocks, and its checks."""

    seed: int  # the input this simulation played
    ops: List[Op]
    makespan: float  # virtual seconds until the simulator drained
    digest: str  # sha256 over the runtime's event-log signature
    events: int
    setup_s: float  # host: cluster/runtime build and input generation
    wall_s: float  # host: first simulated event until drained and checked
    counts: Dict[str, float]
    samples: Dict[str, List[float]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)  # wrong outputs, leaks
    incidents: List[str] = field(default_factory=list)  # errors outside any op

    def witness_key(self) -> Tuple:
        """What a replay of the same input must reproduce exactly."""
        return (
            self.digest,
            self.makespan,
            self.events,
            tuple((op.status, op.latency, op.reason) for op in self.ops),
            tuple(self.incidents),
        )


def signature_digest(rt: ServerlessRuntime) -> str:
    """Stable across processes, unlike the salted builtin ``hash()``."""
    return hashlib.sha256(repr(rt.log.signature()).encode()).hexdigest()


def layer_counts(rt: ServerlessRuntime) -> Dict[str, float]:
    """Per-layer work counts read from the public API after a run."""
    st = rt.net.stats
    reg = rt.telemetry.registry
    placements = reg.family("skadi_placements_total")
    unavail = reg.get("skadi_ha_unavailability_seconds")
    ha = rt.ha
    return {
        "kernel.events": rt.sim.events_executed(),
        "network.messages": st.messages,
        "network.messages_delivered": st.messages_delivered,
        "network.messages_dropped": st.dropped_messages,
        "network.transfers": st.transfers,
        "network.transfer_attempts": st.attempted_transfers,
        "network.link_bytes": sum(st.bytes_by_link.values()),
        "network.multicast_saved_bytes": st.multicast_bytes_saved,
        "runtime.tasks_submitted": reg.value("skadi_tasks_submitted_total"),
        "runtime.tasks_finished": rt.tasks_finished,
        "runtime.attempts": sum(
            inst.value for inst in placements.instruments()
        ) if placements is not None else 0,
        "runtime.tasks_retried": rt.tasks_retried,
        "runtime.tasks_failed": rt.tasks_failed,
        "runtime.tasks_cancelled": rt.tasks_cancelled,
        "health.suspicions": sum(
            rt.log.count(kind)
            for kind in ("node_suspected", "raylet_suspected", "blade_suspected")
        ),
        "ha.failovers": 0 if ha is None else ha.failovers,
        "ha.wal_records": 0 if ha is None else len(ha.wal),
        "ha.v_unavailability_s": 0.0 if unavail is None else unavail.sum,
        "telemetry.instruments": sum(len(fam) for fam in reg.families()),
        "telemetry.spans_retained": len(rt.telemetry.tracer),
        "telemetry.log_events": len(rt.log),
    }


_IDS = re.compile(r"\b(obj|task|req)-\d+")


def failure_reason(exc: BaseException) -> str:
    """One line naming the error, with run-specific ids folded away."""
    text = _IDS.sub(lambda m: m.group(1) + "-*", str(exc)).splitlines()[0]
    return f"{type(exc).__name__}: {text}"[:160]


def drain(rt: ServerlessRuntime, incidents: List[str]) -> List[str]:
    """Run the simulator dry.  An error escaping the kernel is recorded as
    an incident and the rest of the run still plays out; returns a problem
    if the simulator never drained."""
    for _ in range(MAX_DRAIN_ERRORS):
        try:
            rt.sim.run()
            return []
        except Exception as exc:  # a defect fired outside any operation
            incidents.append(f"drain: {failure_reason(exc)}")
    return [f"simulator still not drained after {MAX_DRAIN_ERRORS} errors"]


def runtime_queue_waits(rt: ServerlessRuntime) -> List[float]:
    """Per finished task: how long it held local inputs before a slot."""
    return [t.started - t.inputs_ready for t in rt.timelines]


def _seeds(name: str, seed: int, n: int) -> List[int]:
    # a str seed goes through sha512, so the list is the same in every process
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(1 << 30) for _ in range(n)]


class Workload:
    name = ""
    n_inputs = 1

    def inputs(self, seed: int) -> List[int]:
        return _seeds(self.name, seed, self.n_inputs)

    def play(self, seed: int, hooks: Hooks = NO_HOOKS) -> SimResult:
        raise NotImplementedError


# -- open loop: serving requests ----------------------------------------------


class OpenLoop(Workload):
    """Poisson request arrivals at ``load`` x 400 req/s for ``duration``
    virtual seconds, plus E23's spike and 4x straggler once per second."""

    def __init__(
        self, name: str, load: float, switches: Dict, duration: float, n_inputs: int
    ):
        self.name = name
        self.load = load
        self.switches = dict(switches)
        self.duration = duration
        self.n_inputs = n_inputs

    def play(self, seed: int, hooks: Hooks = NO_HOOKS) -> SimResult:
        hooks.before_setup()
        t0 = time.perf_counter()
        rt = ServerlessRuntime(
            build_serverful(n_servers=1),
            RuntimeConfig(
                resolution=ResolutionMode.PULL,
                task_timeout=0.08,
                max_retries=8,
                retry_backoff_base=5e-3,
                **self.switches,
            ),
        )
        seconds = math.ceil(self.duration)
        bursts = tuple(
            LoadBurst(k + SPIKE_AT, n_tasks=SPIKE_REQS, duration=SPIKE_LEN, seed=seed + 1 + k)
            for k in range(seconds)
        )
        tenants = TenantRegistry(N_TENANTS)
        requests = WorkloadGenerator(
            tenants, rate=self.load * CAPACITY_REQ_S, duration=self.duration,
            seed=seed, bursts=bursts,
        ).requests()
        fe = ServingFrontend(rt, tenants)
        offered: Dict[str, object] = {}

        def offer(req) -> None:
            offered[req.request_id] = fe.offer(req)

        for req in requests:  # what ServingFrontend.play does, keeping handles
            rt.sim.schedule_at(req.arrival, offer, req)
        slow = ChaosSchedule()
        for k in range(seconds):
            slow.slow_device(k + SLOW_AT, "server0/cpu", SLOW_FACTOR, duration=SLOW_LEN)
        ChaosMonkey(rt, slow).arm()
        setup_s = time.perf_counter() - t0

        hooks.before_sim()
        t1 = time.perf_counter()
        incidents: List[str] = []
        stuck = drain(rt, incidents)
        makespan = rt.sim.now
        events = rt.sim.events_executed()
        digest = signature_digest(rt)
        ops, serving_waits, problems = self._check(rt, fe, requests, offered)
        problems += stuck
        wall_s = time.perf_counter() - t1
        hooks.at_drain()

        counts = layer_counts(rt)
        counts.update({
            "serving.offered": fe.offered,
            "serving.admitted": fe.admitted,
            "serving.shed": sum(fe.shed.values()),
        })
        return SimResult(
            seed, ops, makespan, digest, events, setup_s, wall_s, counts,
            samples={
                "runtime.v_queue_wait_s": runtime_queue_waits(rt),
                "serving.v_queue_wait_s": serving_waits,
            },
            problems=problems,
            incidents=incidents,
        )

    @staticmethod
    def _check(rt, fe, requests, offered):
        """Every offered request ends completed, failed or shed; a completed
        request's sink returned its stage's input count."""
        problems: List[str] = []
        ops: List[Op] = []
        waits: List[float] = []
        sinks, expected = [], []
        unfinished = 0
        for req in requests:
            if req.request_id not in offered:
                problems.append(f"{req.request_id} was never offered")
                continue
            pending = offered[req.request_id]
            if pending is None:
                ops.append(Op("shed"))
                continue
            if not pending.finalized:
                unfinished += 1  # must be an admission shed, counted below
                ops.append(Op("shed"))
                continue
            if pending.aborted:
                ops.append(Op("failed", reason="a stage failed or was cancelled"))
                continue
            lines = [rt.timeline_of(ref) for ref in pending.refs]
            latency = max(t.finished for t in lines) - req.arrival
            slo = req.tenant.profile.slo
            ops.append(Op("ok", latency, slo is None or latency <= slo))
            waits.append(lines[0].submitted - req.arrival)
            sinks.append(pending.refs[-1])
            expected.append(len(req.template.stages[-1][2]))
        shed = sum(fe.shed.values())
        if unfinished != fe.shed.get("admission", 0):
            problems.append(
                f"{unfinished} requests unfinished after drain, "
                f"{fe.shed.get('admission', 0)} shed at admission"
            )
        if fe.offered != len(requests) or fe.completed + fe.failed + shed != fe.offered:
            problems.append(
                f"offered {fe.offered} != completed {fe.completed} + failed "
                f"{fe.failed} + shed {shed}"
            )
        if fe.inflight != 0 or rt.telemetry.registry.value("skadi_serving_queue_depth"):
            problems.append(f"{fe.inflight} requests in flight after drain")
        mine = sorted(op.latency for op in ops if op.status == "ok")
        if mine != sorted(fe.latencies):
            problems.append("request latencies disagree with the frontend's")
        if sinks and rt.get(sinks) != expected:
            problems.append("a completed request returned a wrong answer")
        return ops, waits, problems


# -- closed loop: all-to-all map/reduce jobs ----------------------------------


def source(value: int) -> int:
    return value


def mapper(wave: int, index: int, width: int, x: int) -> Tuple[int, ...]:
    return tuple((x * (p + 3) + 7 * index + wave) % MODULUS for p in range(width))


def reducer(part: int, *outputs: Tuple[int, ...]) -> int:
    return sum(out[part] for out in outputs) % MODULUS


@dataclass(frozen=True)
class Job:
    """One seeded map/reduce DAG: ``width`` input partitions, then ``waves``
    waves of an all-to-all shuffle (``width`` maps, ``width`` reduces);
    reduce ``i`` of one wave feeds map ``i`` of the next."""

    name: str
    waves: int
    inputs: Tuple[Tuple[int, int], ...]  # (value, bytes) per input partition
    map_nbytes: int
    reduce_nbytes: int

    @classmethod
    def draw(cls, name: str, rng: random.Random, width: int, waves: int) -> "Job":
        inputs = tuple(
            (rng.randrange(MODULUS), rng.randint(8, 24) * MB) for _ in range(width)
        )
        return cls(name, waves, inputs, rng.randint(2, 6) * MB, rng.randint(2, 6) * MB)

    def submit(self, rt: ServerlessRuntime) -> Tuple[list, list]:
        """Submit every task; returns ``(all refs, the final wave's refs)``.
        Input partitions are read on the CPU servers, so the maps' inputs
        cross the fabric to whichever accelerator the scheduler picks."""
        width = len(self.inputs)
        prev = [
            rt.submit(
                source, (value,), compute_cost=1e-4, output_nbytes=nbytes,
                supported_kinds=CPU, name=f"{self.name}/in{i}",
            )
            for i, (value, nbytes) in enumerate(self.inputs)
        ]
        every = list(prev)
        for wave in range(self.waves):
            maps = [
                rt.submit(
                    mapper, (wave, i, width, prev[i]), compute_cost=TASK_COST,
                    output_nbytes=self.map_nbytes, supported_kinds=ANY_COMPUTE_KIND,
                    name=f"{self.name}/w{wave}m{i}",
                )
                for i in range(width)
            ]
            prev = [
                rt.submit(
                    reducer, (p, *maps), compute_cost=TASK_COST,
                    output_nbytes=self.reduce_nbytes, supported_kinds=ANY_COMPUTE_KIND,
                    name=f"{self.name}/w{wave}r{p}",
                )
                for p in range(width)
            ]
            every += maps + prev
        return every, prev

    def run(self, rt: ServerlessRuntime) -> Tuple[List[int], float]:
        """Submit the job and wait for its answer; returns the answer and
        the virtual time from submit until its last task finished.

        ``get`` runs the simulator until nothing is left to do, chaos faults
        still to come included, so the finish time is taken from completion
        callbacks rather than from the clock when ``get`` returns.
        """
        start = rt.sim.now
        every, refs = self.submit(rt)
        done: List[float] = []
        for ref in refs:
            rt.when_done(ref, lambda _ref: done.append(rt.sim.now))
        try:
            answer = rt.get(refs)
        except Exception:
            # a failed job's client cancels what is left of it, as it would
            # on a real cluster, so no task of it lingers after the run
            for ref in every:
                rt.cancel(ref, reason="job_failed")
            raise
        # max: a task replayed after it finished reports done once more
        return answer, (max(done) if done else rt.sim.now) - start

    def evaluate(self) -> List[int]:
        """Direct evaluation of the same DAG, no runtime."""
        width = len(self.inputs)
        prev = [source(value) for value, _nb in self.inputs]
        for wave in range(self.waves):
            maps = [mapper(wave, i, width, prev[i]) for i in range(width)]
            prev = [reducer(p, *maps) for p in range(width)]
        return prev


class ClosedLoop(Workload):
    """One client runs ``jobs`` jobs back to back in each simulation.

    With ``chaos`` the runtime runs failure detection, speculation and HA,
    and a seeded fault schedule plays over a window of
    :data:`FAULT_WINDOW_JOBS` fault-free soak jobs' worth of virtual time
    per job, so faults hit jobs in flight and the recovery after them.
    """

    def __init__(
        self, name: str, n_inputs: int, jobs: int, width: int, waves: int, chaos: bool
    ):
        self.name = name
        self.n_inputs = n_inputs
        self.jobs = jobs
        self.width = width
        self.waves = waves
        self.chaos = chaos

    def config(self) -> RuntimeConfig:
        if not self.chaos:  # Gen-2, push resolution, default data plane
            return RuntimeConfig()
        return RuntimeConfig(
            heartbeat_interval=1e-3,
            heartbeat_miss_threshold=3,
            speculation_factor=4.0,
            ha_replicas=2,
        )

    def schedule(self, seed: int) -> ChaosSchedule:
        return ChaosSchedule.random(
            seed,
            node_ids=CARDS,
            device_ids=ACCELERATORS,
            dpu_ids=CARDS,
            horizon=FAULT_WINDOW_JOBS * self.jobs * SOAK_JOB_S,
            n_crashes=2,
            n_partitions=1,
            n_stragglers=2,
            n_device_failures=2,
            n_dpu_failures=1,
            n_head_failures=1,
        )

    def play(self, seed: int, hooks: Hooks = NO_HOOKS) -> SimResult:
        hooks.before_setup()
        t0 = time.perf_counter()
        rt = ServerlessRuntime(build_physical_disagg(n_servers=3), self.config())
        if self.chaos:
            ChaosMonkey(rt, self.schedule(seed)).arm()
        rng = random.Random(seed)
        jobs = [Job.draw(f"job{k}", rng, self.width, self.waves) for k in range(self.jobs)]
        setup_s = time.perf_counter() - t0

        hooks.before_sim()
        t1 = time.perf_counter()
        ops: List[Op] = []
        problems: List[str] = []
        incidents: List[str] = []
        for job in jobs:
            try:
                answer, latency = job.run(rt)
            except Exception as exc:  # the job fails; the run goes on
                ops.append(Op("failed", reason=failure_reason(exc)))
                continue
            if answer != job.evaluate():
                problems.append(f"{job.name}: answer differs from direct evaluation")
                ops.append(Op("failed", reason="answer differs from direct evaluation"))
            else:
                ops.append(Op("ok", latency))
        problems += drain(rt, incidents)
        makespan = rt.sim.now
        events = rt.sim.events_executed()
        digest = signature_digest(rt)
        wall_s = time.perf_counter() - t1
        hooks.at_drain()
        return SimResult(
            seed, ops, makespan, digest, events, setup_s, wall_s, layer_counts(rt),
            samples={"runtime.v_queue_wait_s": runtime_queue_waits(rt)},
            problems=problems,
            incidents=incidents,
        )


# why each workload exists is in README.md and BENCHMARK.json
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        OpenLoop("serve", load=1.0, switches=SERVING_SWITCHES, duration=3.0, n_inputs=8),
        OpenLoop("storm", load=1.3, switches={}, duration=0.5, n_inputs=12),
        ClosedLoop("shuffle", n_inputs=8, jobs=8, width=8, waves=3, chaos=False),
        ClosedLoop("soak", n_inputs=60, jobs=1, width=4, waves=2, chaos=True),
    )
}
