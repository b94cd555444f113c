"""End-to-end admission through the serving stack.

Runs the adaptive scenario small and checks the deployment-facing
bookkeeping: every submitted request lands in exactly one bucket, shed
requests never touch the pipeline, degraded ones really got the cheap
path — and an *empty* control loop is a pure observer (byte-identical
records to ``control=None``), which is the observability half of the
control plane's zero-impact contract.
"""

import pytest

from repro.eval.adaptive import AdaptiveConfig
from repro.eval.runner import build_world, run_scenario, run_world

_CFG = AdaptiveConfig(num_requests=60, trace_steps=60,
                      burst_window=(2.0, 4.0))


@pytest.fixture(scope="module")
def reports():
    return run_scenario("adaptive", _CFG)


def test_every_submitted_request_is_accounted_for(reports):
    """shed + completed + failed == submitted, both variants."""
    for rep in reports.values():
        counts = rep.stats.outcome_counts()
        completed = sum(v for k, v in counts.items()
                        if k not in ("failed", "shed"))
        total = completed + counts["failed"] + counts.get("shed", 0)
        assert total == len(rep.stats.records) == _CFG.num_requests


def test_shed_records_never_occupied_the_pipeline(reports):
    shed = [r for r in reports["controlled"].stats.records
            if r.outcome == "shed"]
    assert shed, "scenario is sized to force shedding"
    for r in shed:
        assert r.start == r.finish == r.arrival
        assert r.inference_s == r.decision_s == r.switch_s == 0.0
        assert not r.satisfied


def test_degraded_requests_skip_the_decision_engine(reports):
    """An admission-degraded request serves the min strategy with zero
    decision cost — that is the whole point of degrading it."""
    degraded = [r for r in reports["controlled"].stats.records
                if r.outcome == "degraded"]
    assert degraded, "scenario is sized to force degradation"
    for r in degraded:
        assert r.decision_s == 0.0
        assert r.inference_s > 0.0


def test_static_variant_is_untouched(reports):
    static = reports["static"].stats
    assert static.shed_count == 0
    assert "shed" not in static.outcome_counts()
    assert all(r.outcome != "degraded" for r in static.records)


def test_control_actually_acted():
    """The win must come from the loop, not from luck: ticks fired,
    admission triaged, and the static run was untouched."""
    reports = run_scenario("adaptive")
    control = reports["controlled"].control
    assert control is not None and control.ticks > 0
    assert reports["controlled"].shed > 0
    assert reports["controlled"].degraded > 0
    assert reports["static"].control is None
    assert reports["static"].shed == 0
    assert reports["static"].degraded == 0


def test_the_control_log_is_a_function_of_the_seeds(reports):
    """Decision cost is pinned and the loop runs on the simulated clock,
    so a second run logs the same ticks and the same actions."""
    again = run_scenario("adaptive", _CFG, variants=("controlled",))
    ca, cb = reports["controlled"].control, again["controlled"].control
    assert ca.ticks == cb.ticks
    assert [(x.t, x.controller, x.description) for x in ca.actions] \
        == [(x.t, x.controller, x.description) for x in cb.actions]


def test_empty_control_loop_is_a_pure_observer():
    """A ControlLoop with no controllers ticks (observes) but must not
    perturb serving: records are byte-identical to ``control=None``."""
    cfg = AdaptiveConfig(num_requests=30, trace_steps=30,
                         burst_window=(2.0, 3.0))
    baseline = run_world(build_world("adaptive", cfg, "static"))
    assert baseline.control is None
    # the static variant again, observed by a loop with no controllers
    observed = run_world(build_world("adaptive", cfg, "static",
                                     controllers=list))
    observer = observed.control
    assert observer.ticks > 0, "the observer loop never fired"
    assert observer.actions == []
    assert observed.stats.records == baseline.stats.records


def test_a_nan_burst_factor_is_rejected_naming_it():
    """Regression: NaN passed ``factor <= 0``; ``run adaptive --set
    burst_factor=nan`` served 16 requests and failed at 120 naming
    ``arrival_process``, not the field."""
    from repro.eval.adaptive import burst_arrival_process
    with pytest.raises(ValueError,
                       match=r"^burst_arrival_process\.factor must be"):
        burst_arrival_process(4.0, (1.0, 2.0), float("nan"))
    with pytest.raises(ValueError,
                       match=r"^AdaptiveConfig\.burst_factor must be"):
        AdaptiveConfig(burst_factor=float("nan"))
