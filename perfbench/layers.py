"""Module -> layer map, and per-layer attribution of profiler output.

A layer is named after the modules it owns.  Every module under
``src/repro`` maps to exactly one layer through the longest matching
prefix in :data:`LAYER_PREFIXES`; ``test_perfbench.py`` fails when a new
module matches none.

Self-time of code outside ``repro`` (builtins, the stdlib, the benchmark's
own task bodies) is charged to the ``repro`` layer that called it, walking
the profiler's caller edges: ``sorted`` under ``_label_key`` is telemetry
time.  Time with no ``repro`` caller anywhere up its call chain stays
unattributed and is reported as its own number.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

# (module prefix relative to ``repro``, layer).  Longest prefix wins, so a
# package entry is the default for its modules and a module entry overrides
# it.  The twelve layers the benchmark reports on come first; ``frontend``
# and ``bench`` own the modules no benchmark workload drives.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("cluster.simtime", "kernel"),
    ("cluster", "network"),
    ("cluster.durable", "caching"),
    ("runtime", "runtime"),
    ("runtime.scheduler", "scheduler"),
    ("runtime.overload", "overload"),
    ("runtime.health", "health"),
    ("runtime.ha", "ha"),
    ("serving", "serving"),
    ("telemetry", "telemetry"),
    ("chaos", "chaos"),
    ("caching", "caching"),
    ("analysis.dist", "probe"),
    ("__init__", "frontend"),
    ("analysis", "frontend"),
    ("core", "frontend"),
    ("flowgraph", "frontend"),
    ("frontends", "frontend"),
    ("ir", "frontend"),
    ("bench", "bench"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _p, layer in LAYER_PREFIXES))

UNATTRIBUTED = "unattributed"


def layer_of_module(module: str) -> Optional[str]:
    """The layer owning ``module`` (dotted, relative to ``repro``), or None."""
    best: Optional[Tuple[int, str]] = None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), layer)
    return None if best is None else best[1]


def module_of_file(path: str, package_dir: str) -> Optional[str]:
    """Dotted module name of ``path`` relative to the ``repro`` package
    directory, or None for a file outside it.  ``pkg/__init__.py`` names
    the package ``pkg``; the root ``__init__.py`` names ``__init__``."""
    rel = os.path.relpath(os.path.realpath(path), os.path.realpath(package_dir))
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return None
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__" and len(parts) > 1:
        parts.pop()
    return ".".join(parts)


def package_modules(package_dir: str) -> List[str]:
    """Every module under the ``repro`` package directory, sorted."""
    found = []
    for dirpath, _dirs, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                module = module_of_file(os.path.join(dirpath, name), package_dir)
                if module is not None:
                    found.append(module)
    return sorted(found)


class LayerResolver:
    """Caches file -> layer lookups for one package directory."""

    def __init__(self, package_dir: str):
        self.package_dir = package_dir
        self._cache: Dict[str, Optional[str]] = {}

    def layer_of_file(self, path: str) -> Optional[str]:
        if path not in self._cache:
            module = module_of_file(path, self.package_dir) if path.endswith(".py") else None
            self._cache[path] = None if module is None else layer_of_module(module)
        return self._cache[path]


# cProfile's function key: (filename, line, function name)
FuncKey = Tuple[str, int, str]


def attribute(stats: Dict, resolver: LayerResolver) -> Tuple[Dict[str, float], Dict]:
    """Charge every profiled function's self-time to a layer.

    ``stats`` is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``callers = {caller: (cc, nc, tt, ct)}``.  A ``repro``
    function owns its own self-time.  Any other function splits its
    self-time over its callers in proportion to the per-edge self-time, and
    each share goes wherever that caller's time goes.

    Returns ``(self_s by layer, call matrix)``.  The matrix maps ``(caller
    layer, callee layer)`` to ``{"calls", "self_s"}`` over every edge into a
    ``repro`` function; a foreign caller is resolved by the same split.
    Edges into foreign functions are left out: their time already sits in
    the calling layer.
    """
    own = {func: resolver.layer_of_file(func[0]) for func in stats}
    shares: Dict[FuncKey, Dict[str, float]] = {}

    def share_of(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Fraction of ``func``'s self-time charged to each layer."""
        if own.get(func) is not None:
            return {own[func]: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[2] for edge in callers.values())
        if total <= 0.0:
            total = sum(edge[1] for edge in callers.values())
            weights = {c: edge[1] for c, edge in callers.items()}
        else:
            weights = {c: edge[2] for c, edge in callers.items()}
        out: Dict[str, float] = {}
        if total > 0:
            for caller, weight in sorted(weights.items()):
                if caller in visiting:
                    part = {UNATTRIBUTED: 1.0}  # recursion among foreign frames
                else:
                    part = share_of(caller, visiting | {func})
                for layer, frac in part.items():
                    out[layer] = out.get(layer, 0.0) + frac * weight / total
        if not out:
            out = {UNATTRIBUTED: 1.0}
        if not visiting:
            shares[func] = out
        return out

    self_s: Dict[str, float] = {}
    matrix: Dict[Tuple[str, str], Dict[str, float]] = {}
    for func in sorted(stats):
        _cc, _nc, tt, _ct, callers = stats[func]
        for layer, frac in share_of(func, frozenset()).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * frac
        callee = own.get(func)
        if callee is None:
            continue
        for caller, edge in sorted(callers.items()):
            for layer, frac in share_of(caller, frozenset()).items():
                cell = matrix.setdefault((layer, callee), {"calls": 0.0, "self_s": 0.0})
                cell["calls"] += edge[1] * frac
                cell["self_s"] += edge[2] * frac
    return self_s, matrix


def retained_by_layer(
    snapshot_stats: Iterable, resolver: LayerResolver
) -> Dict[str, int]:
    """Sum ``tracemalloc`` statistics (grouped by traceback) per layer.

    Each block is charged to the innermost ``repro`` frame of its
    allocation traceback; a block with no ``repro`` frame is unattributed.
    """
    out: Dict[str, int] = {}
    for stat in snapshot_stats:
        layer = UNATTRIBUTED
        for frame in reversed(stat.traceback):  # stored oldest call first
            found = resolver.layer_of_file(frame.filename)
            if found is not None:
                layer = found
                break
        out[layer] = out.get(layer, 0) + stat.size
    return out
