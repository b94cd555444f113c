"""The null forms keep the surface of the subsystems they stand in for.

Components call ``telemetry``, ``recorder``, ``control``, the ingress,
the breakers and the fault injector without asking whether they were
given one (DESIGN.md, "Optional subsystems"), so a method added to the
real class and not to its null form would raise ``AttributeError`` in
the first run that leaves the subsystem out.  One reflection test per pair turns that into
a tier-1 failure; one behavioural test checks what the null forms are
for: a run with every optional subsystem absent allocates nothing on
their behalf.
"""

import inspect
from dataclasses import replace

import pytest

from repro.control import NULL_CONTROL, ControlLoop
from repro.eval import SCENARIOS, run_scenario
from repro.faults import NULL_FAULTS, NULL_HEALTH, DeviceHealth, FaultInjector
from repro.netsim import SharedIngress
from repro.netsim.contention import NULL_INGRESS
from repro.sim import EventLoop
from repro.telemetry import (NULL_RECORDER, NULL_TELEMETRY, NULL_TRACER,
                             Counter, Gauge, Histogram, MetricsRegistry,
                             RunRecorder, Span, Telemetry, Tracer)
from repro.telemetry import metrics, recorder

def _methods(cls):
    return {name: fn for name, fn in inspect.getmembers(cls,
                                                        inspect.isfunction)
            if not name.startswith("_") or name == "__len__"}


#: (real classes, null form, public methods the null form leaves out and
#: why that is safe)
PAIRS = {
    # serialisation runs on the handle the caller kept, never on a
    # component's ``recorder`` attribute
    "recorder": ((RunRecorder,), NULL_RECORDER, {"of", "records",
                                                 "recording"}),
    # the report side reads the ``World``/``ScenarioReport`` handle
    "control": ((ControlLoop,), NULL_CONTROL, {"of", "summary"}),
    # exporters enumerate the registry of the hub the caller built
    "registry": ((MetricsRegistry,), metrics.NULL_REGISTRY, {"collect", "__len__"}),
    # nothing reads spans back from a component's tracer
    "tracer": ((Tracer,), NULL_TRACER, set()),
    # a null metric is never stored, collected or returned by ``get``,
    # so nothing can read it back
    "metric": ((Counter, Gauge, Histogram), metrics._NULL_METRIC,
               {"quantile", "quantiles"}),
    # capacity steps go to the ingress the caller built and scheduled
    "ingress": ((SharedIngress,), NULL_INGRESS, {"set_capacity"}),
    # ``state`` / ``snapshot`` / ``link_state`` are read only from a
    # real ``DeviceHealth`` (tests, dashboards), never from a component;
    # the facade drains opened circuits only from a real one
    "health": ((DeviceHealth,), NULL_HEALTH, {"of", "state", "snapshot",
                                              "link_state", "drain_opened",
                                              "drain_opened_links"}),
    # ``is_down`` / ``compute_scale`` are read only from a real injector
    # (tests); ``apply_to`` is what moves the cluster
    "faults": ((FaultInjector,), NULL_FAULTS, {"of", "is_down",
                                               "compute_scale"}),
}


def _calls(fn):
    """The ways ``fn`` can be called, as ``(args, kwargs)`` of parameter
    names: everything positionally, everything by keyword, and the
    required parameters alone."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.name != "self"]
    by_position = [p.name for p in params
                   if p.kind is p.POSITIONAL_OR_KEYWORD]
    required = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD
                and p.default is p.empty]
    named = {p.name: None for p in params if p.kind is p.KEYWORD_ONLY}
    if any(p.kind is p.VAR_KEYWORD for p in params):
        named["some_label"] = None
    if any(p.kind is p.VAR_POSITIONAL for p in params):
        by_position = by_position + ["some_value"]
    return [(by_position, named),
            ([], {**dict.fromkeys(by_position), **named}),
            (required, {})]


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_null_form_has_every_method_with_a_compatible_signature(pair):
    reals, null, left_out = PAIRS[pair]
    for real in reals:
        # a class of its own: the perf harness wraps the real classes'
        # methods by identity, and a subclass would be traced with them
        assert not isinstance(null, real)
        for name, fn in _methods(real).items():
            if name in left_out:
                continue
            twin = getattr(type(null), name, None)
            assert twin is not None, (
                f"{real.__name__}.{name} has no counterpart on "
                f"{type(null).__name__}: add the no-op there too")
            for args, kwargs in _calls(fn):
                # raises TypeError where the real call would not bind
                inspect.signature(twin).bind(null, *args, **kwargs)


def test_null_hub_and_null_control_carry_the_attributes_components_read():
    real = Telemetry()
    for attr in ("registry", "tracer", "timelines"):
        assert hasattr(real, attr) and hasattr(NULL_TELEMETRY, attr)
    assert NULL_TELEMETRY.registry is metrics.NULL_REGISTRY
    assert list(NULL_TELEMETRY.timelines) == []
    # a null counter family counts any label values, by any amount
    count = metrics.NULL_REGISTRY.counters("x_total", "help", "a", "b")
    assert count("v", None, amount=2.0) is None
    # never due, never server-attached, everyone served
    assert NULL_CONTROL.server is None
    assert not NULL_CONTROL.maybe_tick(1e12)
    assert NULL_CONTROL.admit(0.0, 1e12, None) == "serve"
    assert NULL_CONTROL.attach(system=object(), server=object()) \
        is NULL_CONTROL and NULL_CONTROL.server is None


def test_a_run_without_optional_subsystems_allocates_nothing_for_them(
        monkeypatch):
    """``serving_load`` with telemetry, recorder, control, events,
    ingress and faults all ``None``: no span, no metric, no recording,
    no breaker, no uplink, no injector — and every server still advanced
    time through an (empty) event loop of its own."""
    made = []

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            made.append(cls.__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapped)

    for cls in (Span, metrics.Metric, RunRecorder, recorder.Recording,
                EventLoop, DeviceHealth, SharedIngress, FaultInjector):
        counting(cls)
    cfg = replace(SCENARIOS["serving_load"].config(), num_requests=14)
    reports = run_scenario("serving_load", cfg)
    assert set(made) == {"EventLoop"}
    assert made.count("EventLoop") == len(reports)
    for rep in reports.values():
        assert rep.recorder is None and rep.control is None
        assert rep.events is None  # the handle reports what was attached
        assert rep.system.telemetry is NULL_TELEMETRY
        assert rep.system.recorder is NULL_RECORDER
        assert rep.system.control is NULL_CONTROL
        assert rep.system.health is NULL_HEALTH
        assert rep.system.faults is NULL_FAULTS
