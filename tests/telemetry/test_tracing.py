"""Dual-clock spans, nesting, and the no-op tracer."""

import pytest

from repro.telemetry import NULL_TRACER, NullTracer, Tracer
from repro.telemetry.tracing import _SHARED_NULL_SPAN, MAX_FINISHED


class TestSpanClocks:
    def test_simulated_interval(self):
        tracer = Tracer()
        with tracer.span("op", sim_time=10.0) as sp:
            sp.set_sim_end(10.5)
        assert sp.sim_duration_s == pytest.approx(0.5)

    def test_add_sim_accumulates(self):
        tracer = Tracer()
        with tracer.span("op", sim_time=1.0) as sp:
            sp.add_sim(0.2)
            sp.add_sim(0.3)
        assert sp.sim_end == pytest.approx(1.5)
        assert sp.sim_duration_s == pytest.approx(0.5)

    def test_add_sim_without_start_anchors_at_zero(self):
        tracer = Tracer()
        with tracer.span("op") as sp:
            sp.add_sim(0.25)
        assert sp.sim_start == 0.0
        assert sp.sim_duration_s == pytest.approx(0.25)

    def test_wall_clock_stamped(self):
        tracer = Tracer()
        with tracer.span("op") as sp:
            pass
        assert sp.wall_end is not None
        assert sp.wall_duration_s >= 0.0

    def test_missing_sim_end_means_zero_duration(self):
        tracer = Tracer()
        with tracer.span("op", sim_time=3.0) as sp:
            pass
        assert sp.sim_duration_s == 0.0


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            with tracer.span("decision"):
                pass
            with tracer.span("execute"):
                with tracer.span("segment"):
                    pass
        assert [c.name for c in root.children] == ["decision", "execute"]
        assert [c.name for c in root.children[1].children] == ["segment"]

    def test_only_roots_reach_finished(self):
        tracer = Tracer()
        with tracer.span("request"):
            with tracer.span("inner"):
                pass
        assert [sp.name for sp in tracer.finished] == ["request"]

    def test_active_tracks_the_stack(self):
        tracer = Tracer()
        assert tracer.active is None
        with tracer.span("a") as a:
            assert tracer.active is a
            with tracer.span("b") as b:
                assert tracer.active is b
            assert tracer.active is a
        assert tracer.active is None

    def test_exception_annotates_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("request"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.active is None
        root = tracer.finished[-1]
        assert root.attrs["error"] == "RuntimeError"

    def test_annotate_and_attrs_via_span_kwargs(self):
        tracer = Tracer()
        with tracer.span("request", request=3) as sp:
            sp.annotate(cache_hit=True)
        assert sp.attrs == {"request": 3, "cache_hit": True}

    def test_to_dict_roundtrips_tree(self):
        tracer = Tracer()
        with tracer.span("request", sim_time=0.0) as root:
            with tracer.span("inner", sim_time=0.0) as sp:
                sp.set_sim_end(0.1)
            root.set_sim_end(0.2)
        d = root.to_dict()
        assert d["name"] == "request"
        assert d["sim_duration_s"] == pytest.approx(0.2)
        assert d["children"][0]["name"] == "inner"


class TestBoundedBuffer:
    def test_oldest_roots_dropped_and_counted(self):
        tracer = Tracer()
        for i in range(MAX_FINISHED + 2):
            with tracer.span("r", request=i):
                pass
        assert len(tracer.finished) == MAX_FINISHED
        assert tracer.dropped == 2
        assert [sp.attrs["request"] for sp in tracer.finished[:2]] == [2, 3]
        assert tracer.finished[-1].attrs["request"] == MAX_FINISHED + 1

    def test_clear_resets_everything(self):
        tracer = Tracer()
        tracer.spans("r", 0.0, [1.0] * (MAX_FINISHED + 1))
        assert tracer.dropped == 1
        tracer.clear()
        assert tracer.finished == [] and tracer.dropped == 0


class TestNullTracer:
    def test_shared_span_no_allocation(self):
        """Every span() call returns the same immutable no-op object."""
        a = NULL_TRACER.span("x", sim_time=1.0, attr=1)
        b = NULL_TRACER.span("y")
        assert a is b is _SHARED_NULL_SPAN

    def test_null_span_api_is_inert(self):
        with NULL_TRACER.span("x") as sp:
            sp.annotate(a=1)
            sp.add_sim(1.0)
            sp.set_sim_end(2.0)
        assert sp.sim_duration_s == 0.0
        assert sp.wall_duration_s == 0.0
        assert NULL_TRACER.finished == []
        assert NULL_TRACER.active is None

    def test_enabled_flags(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False
