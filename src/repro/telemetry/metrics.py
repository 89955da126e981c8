"""Sim-time-stamped metrics: counters, gauges, and histograms with labels.

The registry is the cluster-wide metrics plane (Ray ships this as a
first-class subsystem; Dask's overhead study shows why it matters): every
hot path — scheduler placements, raylet dispatch, object-store traffic,
per-link fabric bytes, heartbeats/retries/replays — increments instruments
here, stamped with *virtual* time from the simulator clock.  Because the
clock is deterministic, the metrics output itself is assertable in tests:
two identically-seeded runs export byte-identical snapshots.

Instruments are identified by ``(name, labels)``; the registry
get-or-creates on access so call sites stay one-liners::

    registry.counter("skadi_link_bytes_total", link="a<->b").inc(nbytes)

Those one-liners sit on every hot path, so the lookup has a fast path: the
registry binds each call site's labels exactly as passed — ``(kind, name,
tuple(labels.items()))``, kwarg order included — to the instrument they
resolved to.  A hit skips the sorted, stringified canonical key, so that
sort is paid once per label set a call site uses, not once per call.  Only
all-``str`` label sets are bound (an equal-but-different value such as
``1`` vs ``1.0`` can never alias); anything else, unhashable values
included, takes the canonical path every time.  The kind is part of the
bound key, so a kind mismatch misses and raises as before.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily", "MetricsRegistry", "nearest_rank_index"]

LabelKey = Tuple[Tuple[str, str], ...]

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def nearest_rank_index(p: float, n: int) -> int:
    """0-based index of the nearest-rank ``p`` percentile among ``n`` sorted
    samples: the ``ceil(p * n)``-th smallest, clamped to the samples.  The
    epsilon keeps float noise (``0.07 * 100 == 7.000000000000001``) from
    bumping an exact rank up by one."""
    return max(0, min(n - 1, math.ceil(p * n - 1e-9) - 1))


BoundKey = Tuple[str, str, Tuple[Tuple[str, Any], ...]]


class Instrument:
    """Base: a named, labelled time series point."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        self.name = name
        self.labels = labels
        self._clock = clock
        self.last_updated = 0.0

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def _touch(self) -> None:
        self.last_updated = self._clock()


class Counter(Instrument):
    """Monotonically increasing count (events, bytes, messages)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount
        self._touch()


class Gauge(Instrument):
    """A value that goes up and down (queue depth, bytes resident).

    Every ``set`` records a ``(sim_time, value)`` sample, so the full
    time series is available for Chrome-trace counter ("C") events.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self.value = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, value: float) -> None:
        self.value = float(value)
        self._touch()
        # coalesce same-instant updates: only the final value at a given
        # virtual time is observable
        if self.samples and self.samples[-1][0] == self.last_updated:
            self.samples[-1] = (self.last_updated, self.value)
        else:
            self.samples.append((self.last_updated, self.value))

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)


class Histogram(Instrument):
    """Distribution summary with exact nearest-rank percentiles.

    The simulation is small enough to keep raw observations, so p50/p95/p99
    are exact rather than bucket-approximated.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, clock: Callable[[], float]):
        super().__init__(name, labels, clock)
        self._values: List[float] = []
        self._sorted = True
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self._values.append(float(value))
        self._sorted = False
        self.sum += value
        self._touch()

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def value(self) -> float:
        """For uniform collection: a histogram's scalar value is its count."""
        return float(self.count)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; ``p`` in [0, 1].  NaN when empty."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        if not self._values:
            return float("nan")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values[nearest_rank_index(p, len(self._values))]

    def quantiles(self, qs: Iterable[float] = DEFAULT_QUANTILES) -> Dict[float, float]:
        return {q: self.percentile(q) for q in qs}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All instruments sharing one metric name (one per label set)."""

    def __init__(self, name: str, kind: str, help: str = ""):
        self.name = name
        self.kind = kind
        self.help = help
        self._instruments: Dict[LabelKey, Instrument] = {}

    def instruments(self) -> List[Instrument]:
        return [self._instruments[k] for k in sorted(self._instruments)]

    def get(self, key: LabelKey) -> Optional[Instrument]:
        return self._instruments.get(key)

    def __len__(self) -> int:
        return len(self._instruments)


class MetricsRegistry:
    """The cluster-wide metric store; deterministic iteration order."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._families: Dict[str, MetricFamily] = {}
        # call-site labels as passed -> (instrument, family); see module doc
        self._bound: Dict[BoundKey, Tuple[Instrument, MetricFamily]] = {}

    # -- get-or-create accessors --------------------------------------------

    def _instrument(self, kind: str, name: str, help: str, labels: Dict[str, Any]):
        bound_key = (kind, name, tuple(labels.items()))
        try:
            bound = self._bound.get(bound_key)
        except TypeError:  # an unhashable label value
            return self._resolve(kind, name, help, labels)
        if bound is None:
            inst = self._resolve(kind, name, help, labels)
            if all(type(v) is str for v in labels.values()):
                self._bound[bound_key] = (inst, self._families[name])
            return inst
        inst, family = bound
        if help and not family.help:
            family.help = help
        return inst

    def _resolve(self, kind: str, name: str, help: str, labels: Dict[str, Any]):
        """The canonical get-or-create: family by name, instrument by the
        sorted, stringified label key."""
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        if help and not family.help:
            family.help = help
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = _KINDS[kind](name, key, self._clock)
            family._instruments[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._instrument("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._instrument("gauge", name, help, labels)

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        return self._instrument("histogram", name, help, labels)

    # -- introspection -------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

    def family(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        family = self._families.get(name)
        if family is None:
            return None
        return family.get(_label_key(labels))

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Scalar value of one instrument (counters/gauges: value;
        histograms: observation count).  ``default`` when absent."""
        inst = self.get(name, **labels)
        return default if inst is None else float(inst.value)

    def __len__(self) -> int:
        return len(self._families)
