"""Unit tests for the metrics plane: instruments, registry, Prometheus I/O."""

from __future__ import annotations

import math

import pytest

from repro.telemetry import (
    MetricsRegistry,
    parse_prometheus_text,
    to_prometheus_text,
)
from repro.telemetry.metrics import nearest_rank_index


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def registry(clock: FakeClock) -> MetricsRegistry:
    return MetricsRegistry(clock=clock)


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("skadi_things_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("skadi_things_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_label_sets_are_independent(self, registry):
        registry.counter("skadi_link_bytes_total", link="a<->b").inc(10)
        registry.counter("skadi_link_bytes_total", link="b<->c").inc(3)
        assert registry.value("skadi_link_bytes_total", link="a<->b") == 10
        assert registry.value("skadi_link_bytes_total", link="b<->c") == 3

    def test_timestamped_with_sim_clock(self, registry, clock):
        c = registry.counter("skadi_things_total")
        clock.now = 1.25
        c.inc()
        assert c.last_updated == 1.25


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("skadi_depth")
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6.0

    def test_samples_record_the_time_series(self, registry, clock):
        g = registry.gauge("skadi_depth")
        g.set(1)
        clock.now = 0.5
        g.set(2)
        clock.now = 1.0
        g.set(3)
        assert g.samples == [(0.0, 1.0), (0.5, 2.0), (1.0, 3.0)]

    def test_same_instant_samples_coalesce(self, registry, clock):
        g = registry.gauge("skadi_depth")
        clock.now = 0.25
        g.set(1)
        g.set(2)  # same virtual instant: only the final value is observable
        assert g.samples == [(0.25, 2.0)]


class TestHistogram:
    def test_exact_percentiles(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0.5) == 50.0
        assert h.percentile(0.95) == 95.0
        assert h.percentile(0.99) == 99.0
        assert h.percentile(0.0) == 1.0
        assert h.percentile(1.0) == 100.0

    def test_half_ranks_round_up(self, registry):
        # nearest rank is ceil(p*n): p85 of 1..10 is the 9th value, p25 the
        # 3rd (rounding p*n half-to-even picked 8 and 2)
        h = registry.histogram("skadi_latency_seconds")
        for v in range(1, 11):
            h.observe(float(v))
        assert h.percentile(0.85) == 9.0
        assert h.percentile(0.25) == 3.0
        assert h.percentile(0.5) == 5.0
        assert h.percentile(0.05) == 1.0

    def test_nearest_rank_index(self):
        assert nearest_rank_index(0.0, 10) == 0
        assert nearest_rank_index(1.0, 10) == 9
        assert nearest_rank_index(0.5, 5) == 2
        assert nearest_rank_index(0.07, 100) == 6  # 0.07 * 100 is 7.000000000000001
        assert nearest_rank_index(0.999, 1) == 0

    def test_empty_percentile_is_nan(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        assert math.isnan(h.percentile(0.5))

    def test_count_sum_and_scalar_value(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        h.observe(1.0)
        h.observe(3.0)
        assert h.count == 2
        assert h.sum == 4.0
        assert h.value == 2.0  # uniform collection: count is the scalar

    def test_out_of_range_percentile_rejected(self, registry):
        h = registry.histogram("skadi_latency_seconds")
        with pytest.raises(ValueError):
            h.percentile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("skadi_x_total", link="l")
        b = registry.counter("skadi_x_total", link="l")
        assert a is b

    def test_kind_conflict_raises(self, registry):
        registry.counter("skadi_x_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("skadi_x_total")

    def test_bound_lookup_ignores_kwarg_order(self, registry):
        a = registry.counter("skadi_x_total", link="l", dir="rx")
        b = registry.counter("skadi_x_total", dir="rx", link="l")
        c = registry.counter("skadi_x_total", link="l", dir="rx")  # a bound hit
        assert a is b is c
        assert len(registry.family("skadi_x_total")) == 1

    def test_non_str_and_unhashable_labels_take_the_canonical_path(self, registry):
        a = registry.counter("skadi_x_total", shard=1)
        assert registry.counter("skadi_x_total", shard="1") is a
        # equal to 1, but a different label once stringified
        assert registry.counter("skadi_x_total", shard=1.0) is not a
        assert registry.counter("skadi_x_total", shard=True) is not a
        u = registry.counter("skadi_x_total", devices=["a", "b"])
        u.inc()
        assert registry.counter("skadi_x_total", devices=["a", "b"]) is u
        assert registry.value("skadi_x_total", devices="['a', 'b']") == 1.0

    def test_kind_conflict_raises_after_a_bound_hit(self, registry):
        registry.counter("skadi_x_total", link="l")
        registry.counter("skadi_x_total", link="l")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("skadi_x_total", link="l")

    def test_help_backfills_on_a_bound_hit(self, registry):
        registry.counter("skadi_x_total", link="l")
        registry.counter("skadi_x_total", "things done", link="l")
        assert registry.family("skadi_x_total").help == "things done"
        registry.counter("skadi_x_total", "something else", link="l")
        assert registry.family("skadi_x_total").help == "things done"

    def test_get_and_value_see_bound_instruments(self, registry):
        registry.counter("skadi_x_total", link="l", dir="rx").inc(2)
        registry.counter("skadi_x_total", dir="rx", link="l").inc(3)
        assert registry.get("skadi_x_total", dir="rx", link="l").value == 5.0
        assert registry.value("skadi_x_total", link="l", dir="rx") == 5.0
        assert registry.get("skadi_x_total", link="other") is None
        assert registry.value("skadi_x_total", default=-1.0, link="other") == -1.0

    def test_families_sorted_by_name(self, registry):
        registry.counter("skadi_b_total")
        registry.counter("skadi_a_total")
        assert [f.name for f in registry.families()] == [
            "skadi_a_total",
            "skadi_b_total",
        ]

    def test_value_default_when_absent(self, registry):
        assert registry.value("skadi_missing_total") == 0.0
        assert registry.value("skadi_missing_total", default=7.0) == 7.0


class TestPrometheusRoundTrip:
    def _populated(self, registry: MetricsRegistry) -> MetricsRegistry:
        registry.counter("skadi_tasks_total", "tasks run").inc(12)
        registry.counter("skadi_link_bytes_total", "per-link bytes", link="a<->b").inc(
            4096
        )
        registry.gauge("skadi_depth", "queue depth", device="gpu0").set(3)
        # the overload-control surface: per-scope admission depth gauges and
        # the shed counter, labeled by reason
        registry.gauge(
            "skadi_admission_queue_depth", "admitted, unconcluded attempts",
            scope="scheduler",
        ).set(5)
        registry.gauge(
            "skadi_admission_queue_depth", "admitted, unconcluded attempts",
            scope="raylet:server0",
        ).set(2)
        registry.counter(
            "skadi_shed_tasks_total", "tasks shed by overload control",
            reason="admission_reject",
        ).inc(7)
        registry.counter(
            "skadi_shed_tasks_total", "tasks shed by overload control",
            reason="retry_budget_exhausted",
        ).inc(3)
        h = registry.histogram("skadi_latency_seconds", "task latency")
        for v in (0.1, 0.2, 0.3, 0.4):
            h.observe(v)
        return registry

    def test_export_has_help_and_type_framing(self, registry):
        text = to_prometheus_text(self._populated(registry))
        assert "# HELP skadi_tasks_total tasks run" in text
        assert "# TYPE skadi_tasks_total counter" in text
        assert "# TYPE skadi_latency_seconds summary" in text

    def test_export_is_deterministic(self, registry, clock):
        text1 = to_prometheus_text(self._populated(registry))
        other = self._populated(MetricsRegistry(clock=clock))
        assert text1 == to_prometheus_text(other)

    def test_round_trip_preserves_values(self, registry):
        text = to_prometheus_text(self._populated(registry))
        parsed = parse_prometheus_text(text)
        assert parsed.value("skadi_tasks_total") == 12
        assert parsed.value("skadi_link_bytes_total", link="a<->b") == 4096
        assert parsed.value("skadi_depth", device="gpu0") == 3
        assert parsed.value("skadi_admission_queue_depth", scope="scheduler") == 5
        assert parsed.value("skadi_admission_queue_depth", scope="raylet:server0") == 2
        assert (
            parsed.value("skadi_shed_tasks_total", reason="admission_reject") == 7
        )
        assert (
            parsed.value("skadi_shed_tasks_total", reason="retry_budget_exhausted")
            == 3
        )
        assert parsed.value("skadi_latency_seconds_count") == 4
        assert parsed.value("skadi_latency_seconds_sum") == pytest.approx(1.0)
        assert parsed.value("skadi_latency_seconds", quantile="0.5") == 0.2

    def test_parsed_types_and_helps(self, registry):
        parsed = parse_prometheus_text(to_prometheus_text(self._populated(registry)))
        assert parsed.types["skadi_tasks_total"] == "counter"
        assert parsed.types["skadi_depth"] == "gauge"
        assert parsed.helps["skadi_tasks_total"] == "tasks run"

    def test_unknown_sample_raises(self, registry):
        parsed = parse_prometheus_text(to_prometheus_text(self._populated(registry)))
        with pytest.raises(KeyError):
            parsed.value("skadi_not_a_metric")
