"""A fault kind earns its place: some scenario schedules each one.

Every :class:`~repro.faults.FaultEvent` subclass that ``repro.faults``
exports must appear in the fault schedule of some variant of a
``SCENARIOS`` world at the scenario's ``smoke`` size, or carry a row in
``EXEMPT`` with its reason.  A kind no run schedules is code that only
tests reach; an exemption for a kind a run does schedule is stale.
"""

import inspect

import repro.faults
from repro.eval.runner import SCENARIOS, override_config
from repro.faults import FaultEvent

#: exported fault kinds no run schedules, and why they stay
EXEMPT: dict = {}


def _exported():
    """The names of every concrete fault kind ``repro.faults`` exports."""
    return {name for name in repro.faults.__all__
            if inspect.isclass(kind := getattr(repro.faults, name))
            and issubclass(kind, FaultEvent) and kind is not FaultEvent}


def _scheduled():
    """``{kind name: scenarios}`` over every smoke-size variant world."""
    out = {}
    for scenario, spec in SCENARIOS.items():
        cfg = override_config(spec.config(), spec.smoke)
        for knobs in spec.variants.values():
            faults = spec.world(cfg, None, **knobs).faults
            for event in (faults.schedule if faults is not None else ()):
                out.setdefault(type(event).__name__, set()).add(scenario)
    return out


EXPORTED = _exported()
SCHEDULED = _scheduled()


def test_the_law_sees_the_fault_scenarios():
    assert SCHEDULED["DeviceCrash"] >= {"chaos"}
    assert SCHEDULED["LinkFailure"] >= {"mesh_chaos"}


def test_every_exported_fault_kind_is_scheduled_by_a_run():
    unscheduled = EXPORTED - SCHEDULED.keys() - EXEMPT.keys()
    assert not unscheduled, (f"{sorted(unscheduled)}: no scenario "
                             "schedules them at its smoke size")


def test_no_exemption_is_stale():
    stale = {name for name in EXEMPT
             if name not in EXPORTED or name in SCHEDULED}
    assert not stale, f"{sorted(stale)}: exempt, but exported no more " \
                      "or scheduled by a run"
