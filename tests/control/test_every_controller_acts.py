"""A controller earns its place: every controller a scenario stacks acts.

At each scenario's ``smoke`` size, every variant whose world has a
:class:`~repro.control.ControlLoop` runs once, and each controller in its
stack must have acted at least once: an entry under its ``name`` in the
loop's action log, or, for an admission controller (one with the
per-request ``admit`` hook), a request shed or degraded.  A controller
that never acts changes no request, and a stack that carries one claims
an effect nobody measured.
"""

import pytest

from repro.eval.runner import SCENARIOS, build_world, override_config, run_world


def _smoke_config(scenario):
    spec = SCENARIOS[scenario]
    return override_config(spec.config(), spec.smoke)


def _controlled():
    """``(scenario, variant)`` of every smoke world with a control loop."""
    for scenario, spec in SCENARIOS.items():
        cfg = _smoke_config(scenario)
        for variant, knobs in spec.variants.items():
            if spec.world(cfg, None, **knobs).control is not None:
                yield scenario, variant


CONTROLLED = list(_controlled())


def _acted(controller, loop):
    if any(a.controller == controller.name for a in loop.actions):
        return True
    return (hasattr(controller, "admit")
            and controller.shed + controller.degraded > 0)


def test_the_law_covers_every_scenario_with_a_control_plane():
    assert {scenario for scenario, _ in CONTROLLED} >= {"adaptive",
                                                       "multi_tenant"}


@pytest.mark.parametrize("scenario, variant", CONTROLLED,
                         ids=["-".join(pair) for pair in CONTROLLED])
def test_every_stacked_controller_acts(scenario, variant):
    world = build_world(scenario, _smoke_config(scenario), variant)
    run_world(world)
    loop = world.control
    idle = [c.name for c in loop.controllers if not _acted(c, loop)]
    assert not idle, (f"{scenario}/{variant}: {idle} never acted "
                      f"({loop.summary()})")
