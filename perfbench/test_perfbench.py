"""The benchmark's own checks: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "repro")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# what a reproducible output must never hold: host paths, object reprs and
# addresses (the BENCH_E24.json problem), or run-specific temp names
UNREPRODUCIBLE = (
    re.compile(r"(?<![\w.])/(root|home|tmp|usr|opt|var|private)/"),
    re.compile(r"[A-Za-z]:\\\\"),
    re.compile(r"\bat 0x[0-9a-fA-F]+"),
    re.compile(r"<[\w.]+ object"),
    re.compile(r"pytest-\d+"),
)


def unreproducible(text: str) -> list:
    return [m.group(0) for pattern in UNREPRODUCIBLE for m in pattern.finditer(text)]


# -- layer map ------------------------------------------------------------------


def test_every_module_has_a_layer():
    modules = layers.package_modules(PACKAGE)
    assert len(modules) > 100
    unmapped = [m for m in modules if layers.layer_of_module(m) is None]
    assert not unmapped, f"add these modules to layers.LAYER_PREFIXES: {unmapped}"


def test_an_unmapped_module_is_reported():
    assert layers.layer_of_module("newpackage.thing") is None
    assert layers.layer_of_module("clusterx") is None  # prefixes match whole names


@pytest.mark.parametrize(
    "module, layer",
    [
        ("cluster.simtime", "kernel"),
        ("cluster.network", "network"),
        ("cluster.topology", "network"),
        ("cluster.node", "network"),
        ("cluster.hardware", "network"),
        ("runtime.runtime", "runtime"),
        ("runtime.ownership", "runtime"),
        ("runtime.lineage", "runtime"),
        ("runtime.object_store", "runtime"),
        ("runtime.object_ref", "runtime"),
        ("runtime.raylet", "runtime"),
        ("runtime.task", "runtime"),
        ("runtime.ids", "runtime"),
        ("runtime.events", "runtime"),
        ("runtime.trace", "runtime"),
        ("runtime.scheduler", "scheduler"),
        ("runtime.overload", "overload"),
        ("runtime.health", "health"),
        ("runtime.ha", "ha"),
        ("serving.frontend", "serving"),
        ("telemetry.metrics", "telemetry"),
        ("chaos.monkey", "chaos"),
        ("caching.store", "caching"),
        ("analysis.dist.probe", "probe"),
        ("analysis.lint", "frontend"),
        ("__init__", "frontend"),
    ],
)
def test_named_layers(module, layer):
    assert layers.layer_of_module(module) == layer


def test_module_of_file():
    assert layers.module_of_file(os.path.join(PACKAGE, "cluster", "simtime.py"), PACKAGE) == (
        "cluster.simtime"
    )
    assert layers.module_of_file(os.path.join(PACKAGE, "serving", "__init__.py"), PACKAGE) == (
        "serving"
    )
    assert layers.module_of_file(os.path.join(HERE, "run.py"), PACKAGE) is None


def test_foreign_self_time_goes_to_the_calling_layer():
    simtime = (os.path.join(PACKAGE, "cluster", "simtime.py"), 1, "run")
    metrics = (os.path.join(PACKAGE, "telemetry", "metrics.py"), 1, "_label_key")
    builtin = ("~", 0, "<built-in method builtins.sorted>")
    helper = ("/elsewhere/helper.py", 1, "helper")  # foreign, called by foreign code
    orphan = ("/elsewhere/main.py", 1, "main")
    stats = {
        simtime: (1, 1, 2.0, 9.0, {orphan: (1, 1, 2.0, 9.0)}),
        metrics: (1, 1, 1.0, 5.0, {simtime: (1, 1, 1.0, 5.0)}),
        # 3 s of sorted: 1 s under _label_key, 2 s under helper
        builtin: (3, 3, 3.0, 3.0, {metrics: (1, 1, 1.0, 1.0), helper: (2, 2, 2.0, 2.0)}),
        helper: (1, 1, 0.5, 2.5, {simtime: (1, 1, 0.5, 2.5)}),
        orphan: (1, 1, 0.25, 9.25, {}),
    }
    self_s, matrix = layers.attribute(stats, layers.LayerResolver(PACKAGE))
    assert self_s == pytest.approx(
        {"kernel": 2.0 + 2.0 + 0.5, "telemetry": 1.0 + 1.0, layers.UNATTRIBUTED: 0.25}
    )
    # edges into repro code only; the orphan caller is unattributed
    assert set(matrix) == {("kernel", "telemetry"), (layers.UNATTRIBUTED, "kernel")}
    assert matrix[("kernel", "telemetry")] == {"calls": 1, "self_s": 1.0}


def test_foreign_recursion_terminates():
    a = ("/elsewhere/a.py", 1, "a")
    b = ("/elsewhere/b.py", 1, "b")
    stats = {a: (1, 1, 1.0, 1.0, {b: (1, 1, 1.0, 1.0)}), b: (1, 1, 1.0, 1.0, {a: (1, 1, 1.0, 1.0)})}
    self_s, _matrix = layers.attribute(stats, layers.LayerResolver(PACKAGE))
    assert self_s == {layers.UNATTRIBUTED: 2.0}


# -- metrics --------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    assert measure.tail(list(range(15))) == (None, None, 15)
    value, q, n = measure.tail([float(i) for i in range(1, 21)])
    assert (value, q, n) == (10.0, 0.5, 20)
    value, q, n = measure.tail([float(i) for i in range(1, 1001)])
    assert (value, q) == (990.0, 0.99)


def test_failure_reasons_fold_run_specific_ids():
    exc = KeyError("object 'obj-000123' not in store on server0")
    assert workloads.failure_reason(exc) == (
        "KeyError: \"object 'obj-*' not in store on server0\""
    )


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {name: (unit, better) for name, unit, better in run.END_TO_END}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == e2e[metric["name"]]
        assert 0 < metric["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert set(run.LAYER_NAMES) == set(layers.LAYERS)


# -- runs -----------------------------------------------------------------------


def test_traced_run_attributes_nearly_everything():
    small = workloads.ClosedLoop("soak", n_inputs=3, jobs=1, width=4, waves=2, chaos=True)
    values, calls, sims, mismatches = tracing.traced_run(small, 1, PACKAGE)
    assert not mismatches
    assert {name for name, _u, _b in run.PER_LAYER} <= set(values)
    assert values["trace.unattributed_share"] < 0.05
    assert values["health.self_s"] > 0 and values["ha.self_s"] > 0
    assert values["trace.overhead"] > 1.0
    assert calls and len(sims) == 3


def test_output_is_reproducible_and_hygienic():
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "shuffle",
           "--seed", "7", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert list(last["metrics"]) == list(run.GATED)
    with open(os.path.join(HERE, "out", "shuffle-seed7-trace0.json")) as fh:
        result = fh.read()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = fh.read()
    assert unreproducible(result) == []
    assert unreproducible(spec) == []
    assert unreproducible(done.stdout) == []


def test_hygiene_patterns_catch_the_known_offenders():
    assert unreproducible('{"dir": "/tmp/pytest-of-x/pytest-3/a"}')
    assert unreproducible("<repro.runtime.runtime.ServerlessRuntime object at 0x7f00>")
    assert unreproducible('{"reason": "KeyError: \'obj-*\' not in store"}') == []
