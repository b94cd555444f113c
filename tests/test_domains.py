"""Declared domains: every numeric setting states its valid range in its
annotation, and ``repro.check_fields`` enforces it at construction.

Two sweeps over the classes and generators that hold such settings:

* completeness — every float or int setting (a dataclass field, else a
  constructor or generator argument) carries a declaration;
* enforcement — every hostile value its declaration rejects raises
  ``ValueError`` naming ``Class.field`` when the class is built with it.
"""

import math
import typing

import pytest

from repro import _declarations
from repro.control import ControlLoop, TenantFairnessController
from repro.core.strategy_cache import StrategyCache
from repro.devices.profiles import desktop_gtx1080, rpi4
from repro.eval.adaptive import AdaptiveConfig, burst_arrival_process
from repro.eval.event_core import SteppedIngress
from repro.eval.multi_tenant import TenantSpec, default_tenants
from repro.eval.runner import SCENARIOS, override_config
from repro.eval.spec import PinnedTimeEngine
from repro.faults import (CorrelatedFailure, DeviceCrash, DeviceHealth,
                          FaultEvent, LinkDegradation, LinkFailure, LinkFlap)
from repro.netsim.ingress import SharedIngress
from repro.netsim.link import Link
from repro.netsim.mesh import MeshCluster, MeshLink, star_topology
from repro.netsim.monitor import NetworkMonitor
from repro.netsim.topology import NetworkCondition
from repro.netsim.traces import TraceConfig, condition_at
from repro.partition.spatial import Grid
from repro.rl.env import EnvConfig
from repro.rl.spaces import ActionStep
from repro.runtime.batching import BatchingInferenceServer, BatchPolicy
from repro.runtime.server import InferenceServer
from repro.sim.events import schedule_ingress_trace

_LINK = Link(100.0, 5.0)
_CLUSTER = star_topology([rpi4(), desktop_gtx1080()],
                         NetworkCondition((100.0,), (5.0,)))

#: each declaring class or generator -> the arguments of a valid instance
#: (a hostile value replaces one of them)
OWNERS = {
    **{spec.config: {} for spec in SCENARIOS.values()},
    TenantSpec: dict(name="t", rate_hz=1.0),
    FaultEvent: dict(start=0.0, end=1.0),
    DeviceCrash: dict(start=0.0, end=1.0),
    LinkDegradation: dict(start=0.0, end=1.0),
    LinkFailure: dict(start=0.0, end=1.0),
    LinkFlap: dict(start=0.0, end=1.0),
    CorrelatedFailure: dict(start=0.0, end=1.0, devices=(1,)),
    DeviceHealth: dict(num_devices=2),
    EnvConfig: {},
    TenantFairnessController: {}, ControlLoop: {},
    NetworkMonitor: dict(cluster=_CLUSTER),
    StrategyCache: {}, BatchPolicy: {}, TraceConfig: {},
    Link: dict(bandwidth_mbps=100.0, delay_ms=5.0),
    MeshLink: dict(a=0, b=1, bandwidth_mbps=100.0, delay_ms=5.0),
    MeshCluster: dict(devices=[rpi4(), desktop_gtx1080()],
                      links=[MeshLink(0, 1, 100.0, 5.0)]),
    InferenceServer: dict(system=None, arrival_rate_hz=1.0),
    BatchingInferenceServer: dict(system=None, arrival_rate_hz=1.0),
    PinnedTimeEngine: dict(inner=None, decision_time_s=0.0),
    SteppedIngress: dict(link=_LINK, tracker=None,
                         trace_mbps=(40.0,), period_s=1.0),
    burst_arrival_process: dict(rate_hz=1.0, window=(0.0, 1.0),
                                factor=2.0),
    schedule_ingress_trace: dict(loop=None, ingress=None,
                                 trace_mbps=(40.0,), period_s=1.0),
    condition_at: dict(trace=[1.0], t=0.0, period_s=1.0),
    SharedIngress: dict(link=_LINK, tracker=None),
    Grid: dict(rows=1, cols=1),
    ActionStep: dict(kind="device", n_choices=2),
    default_tenants: {},
}

#: what a hostile caller tries, per declared type
HOSTILE = {float: (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 0.1,
                   0.3, 0.7),
           int: (0, -1, 2 ** 63, True, 1.5)}


def _numeric(hint):
    """``float`` / ``int`` for a (possibly Optional) numeric hint."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    if typing.get_origin(hint) is typing.Union and len(args) == 1:
        hint = args[0]
    return hint if hint in HOSTILE else None


def settings(owner) -> dict:
    """``{name: float | int}``: a dataclass's numeric fields, else its
    constructor's (or a generator's own) numeric arguments."""
    if hasattr(owner, "__dataclass_fields__"):
        hints = typing.get_type_hints(owner)
        hints = {f: hints[f] for f in owner.__dataclass_fields__}
    else:   # one at a time: some name annotation-only imports
        fn = owner.__init__ if isinstance(owner, type) else owner
        hints = {name: _resolve(text, fn)
                 for name, text in fn.__annotations__.items()}
    return {name: kind for name, hint in hints.items()
            if name != "return" and (kind := _numeric(hint))}


def _resolve(text, fn):
    try:
        return eval(text, fn.__globals__)
    except NameError:
        return None


def _build(owner, **kwargs):
    return owner(**{**OWNERS[owner], **kwargs})


@pytest.mark.parametrize("owner", OWNERS, ids=lambda o: o.__qualname__)
def test_every_numeric_setting_carries_a_declaration(owner):
    declared = {name for name, *_ in _declarations(owner)}
    assert set(settings(owner)) <= declared


def _cases():
    for owner in OWNERS:
        tests = {name: test for name, test, *_ in _declarations(owner)}
        for name, kind in settings(owner).items():
            for value in HOSTILE[kind]:
                if name in tests and not tests[name](value):
                    yield pytest.param(owner, name, value,
                                       id=f"{owner.__qualname__}.{name}="
                                          f"{value!r}")


@pytest.mark.parametrize("owner, name, value", _cases())
def test_a_hostile_value_raises_at_construction_naming_its_field(
        owner, name, value):
    with pytest.raises(ValueError,
                       match=rf"^{owner.__qualname__}\.{name} must be "):
        _build(owner, **{name: value})


def test_an_int_domain_rejects_bools_floats_and_values_past_maxsize():
    for value in (True, 4.0, 2 ** 63):
        with pytest.raises(ValueError, match="must be an int in"):
            BatchPolicy(max_batch=value)
    assert BatchPolicy(max_batch=2 ** 63 - 1).max_batch == 2 ** 63 - 1


def test_an_optional_setting_lets_none_through_and_a_tuple_checks_each():
    assert SCENARIOS["chaos"].config(decision_time_s=None)
    with pytest.raises(ValueError, match=r"bw_range\[1\] must be .* got nan"):
        TraceConfig(bw_range=(50.0, math.nan))


def test_a_generator_names_itself_and_its_argument():
    with pytest.raises(ValueError,
                       match=r"^burst_arrival_process\.factor must be"):
        burst_arrival_process(1.0, (0.0, 1.0), math.nan)


@pytest.mark.parametrize("window", ["nan,4", "6,4", "4,4", "4,inf", "-1,4",
                                    "4"])
@pytest.mark.parametrize("owner", [AdaptiveConfig, TenantSpec,
                                   burst_arrival_process],
                         ids=lambda o: o.__qualname__)
def test_a_burst_window_that_means_no_burst_is_rejected_wherever_declared(
        owner, window):
    """A NaN, reversed, empty or unbounded window used to be served as
    no burst at all by ``adaptive``.  One declaration (``BurstWindow``)
    now rejects it for every field that holds a window."""
    name = "window" if owner is burst_arrival_process else "burst_window"
    value = tuple(float(t) for t in window.split(","))
    with pytest.raises(ValueError, match=rf"^{owner.__qualname__}\.{name} "
                                         r"must be \(t0, t1\) with "):
        _build(owner, **{name: value})
    if owner is AdaptiveConfig:
        with pytest.raises(ValueError, match=r"^AdaptiveConfig\.burst_window"):
            override_config(AdaptiveConfig(), [f"burst_window={window}"])
