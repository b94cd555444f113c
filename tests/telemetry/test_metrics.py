"""Counters, gauges, log-bucketed histograms, and the registry."""

import math

import pytest

from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increments(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_kind(self):
        assert Counter("x").kind == "counter"

    def test_rejects_nan_naming_the_counter(self):
        """``nan < 0`` is false: a NaN used to poison the counter."""
        c = Counter("requests_total")
        with pytest.raises(ValueError, match="requests_total"):
            c.inc(math.nan)
        assert c.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("queue_depth")
        g.set(10.0)
        g.inc(2.0)
        g.dec(5.0)
        assert g.value == 7.0

    def test_can_go_negative(self):
        g = Gauge("delta")
        g.dec(3.0)
        assert g.value == -3.0


class TestHistogram:
    def test_empty_histogram_is_all_zero(self):
        h = Histogram("lat_s")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0

    def test_count_sum_min_max(self):
        h = Histogram("lat_s")
        for v in (0.01, 0.02, 0.04):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.07)
        assert h.min == pytest.approx(0.01)
        assert h.max == pytest.approx(0.04)
        assert h.mean == pytest.approx(0.07 / 3)

    def test_quantiles_within_bucket_relative_error(self):
        """Streaming quantiles are exact to one bucket's width (~10%)."""
        h = Histogram("lat_s", growth=1.1)
        values = [0.001 * (1 + i) for i in range(1000)]  # 1ms .. 1s
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * (len(values) - 1))]
            assert h.quantile(q) == pytest.approx(exact, rel=0.12)

    def test_quantile_clamped_by_exact_min_max(self):
        h = Histogram("lat_s")
        h.observe(0.5)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(0.5)

    def test_underflow_reads_back_zero(self):
        """Zero observations (idle queue waits) must not blow up."""
        h = Histogram("queue_s", lo=1e-6)
        h.observe(0.0)
        h.observe(1e-9)
        assert h.count == 2
        assert h.quantile(0.5) == 0.0

    def test_overflow_reads_back_observed_max(self):
        h = Histogram("lat_s", hi=1.0)
        h.observe(0.5)
        h.observe(123.0)
        assert h.quantile(1.0) == pytest.approx(123.0)

    def test_fixed_memory(self):
        """Bucket storage does not grow with observation count."""
        h = Histogram("lat_s")
        nb = len(h._counts)
        for i in range(10000):
            h.observe(1e-5 * (1 + i))
        assert len(h._counts) == nb

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", lo=0.0)
        with pytest.raises(ValueError):
            Histogram("x", lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram("x", growth=1.0)

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("x").quantile(1.5)

    @pytest.mark.parametrize("observe", [
        lambda h: h.observe(math.nan),
        lambda h: h.observe_many([0.5, math.nan])])
    def test_nan_is_refused_naming_the_histogram(self, observe):
        h = Histogram("lat_s")
        with pytest.raises(ValueError, match="lat_s"):
            observe(h)
        # refused before anything is counted
        assert h.count == (0 if h.sum == 0.0 else 1)
        assert h.sum in (0.0, 0.5) and sum(h._counts) == h.count

    @pytest.mark.parametrize("kwargs", [
        {"growth": math.nan}, {"growth": math.inf}, {"hi": math.inf},
        {"lo": math.nan}, {"hi": math.nan}])
    def test_non_finite_bounds_are_refused_naming_the_metric(self, kwargs):
        with pytest.raises(ValueError, match="core_lat_s"):
            MetricsRegistry().child("core").histogram("lat_s", **kwargs)


class TestMetricsRegistry:
    def test_same_name_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes_total", link="0-1")
        b = reg.counter("bytes_total", link="0-1")
        assert a is b

    def test_label_sets_are_separate_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes_total", link="0-1")
        b = reg.counter("bytes_total", link="0-2")
        assert a is not b
        a.inc(10)
        assert b.value == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_child_scope_prefixes_but_shares_store(self):
        root = MetricsRegistry()
        child = root.child("server")
        c = child.counter("requests_total")
        assert c.name == "server_requests_total"
        assert root.get("server_requests_total") is c
        assert len(root) == 1

    def test_nested_child_scopes(self):
        reg = MetricsRegistry().child("a").child("b")
        assert reg.counter("x").name == "a_b_x"

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().child("")

    def test_get_missing_returns_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_collect_is_sorted_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        reg.counter("c", link="1")
        names = [m.name for m in reg.collect()]
        assert names == sorted(names)
        assert len(names) == 3

    def test_collect_hooks_run_at_collect_time(self):
        """Snapshot gauges sync via hooks, not in the hot path."""
        root = MetricsRegistry()
        child = root.child("cache")
        g = child.gauge("entries")
        state = {"entries": 0}
        child.add_collect_hook(lambda: g.set(state["entries"]))
        state["entries"] = 7
        assert g.value == 0.0          # hot path never touched the gauge
        root.collect()                 # hooks shared with the root
        assert g.value == 7.0
