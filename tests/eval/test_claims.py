"""A scenario's claims are data that ``check_claims`` can fail.

The claims themselves are checked at full size by
``benchmarks/bench_scenarios.py``; this module checks the checker, on
the event-core scenario's smoke world.
"""

import pytest

from repro.eval import runner
from repro.eval.runner import (COLUMNS, SCENARIOS, check_claims,
                               override_config, run_scenario)
from repro.eval.spec import Claim

SPEC = SCENARIOS["event_core"]
CFG = override_config(SPEC.config(), SPEC.smoke)


@pytest.fixture(scope="module")
def reports():
    return run_scenario("event_core", CFG)


def test_the_declared_claims_hold_in_declaration_order(reports):
    results = check_claims("event_core", CFG, reports)
    assert [r.claim for r in results] == list(SPEC.claims)
    assert all(r.holds for r in results), [str(r) for r in results]


def test_a_false_claim_fails_and_reports_both_cells(reports):
    true = SPEC.claims[0]
    assert (true.left, true.op, true.right, true.margin) == (
        ("event", "e2e"), ">=", ("boundary", "e2e"), 0.25)
    false = (true._replace(op="<"), true._replace(margin=0.95))
    for result in check_claims("event_core", CFG, reports, claims=false):
        assert result.holds is False
        assert result.left == COLUMNS["e2e"].value(reports["event"])
        assert result.right == COLUMNS["e2e"].value(reports["boundary"])
        assert str(result).startswith("FAIL")
        assert f"{result.left:g}" in str(result)
        assert f"{result.right:g}" in str(result)


def test_a_cell_the_variant_does_not_have_fails_as_not_available(reports):
    # the boundary variant has no event loop: its "events" cell prints "-"
    claim = Claim("no loop, no events", ("boundary", "events"), "==", 0)
    [result] = check_claims("event_core", CFG, reports, claims=(claim,))
    assert result.holds is False and result.left is None
    assert "not available" in str(result)


def test_without_reports_the_cells_are_run_here(reports):
    claim = SPEC.claims[0]
    [fresh] = check_claims("event_core", CFG, claims=(claim,))
    [given] = check_claims("event_core", CFG, reports, claims=(claim,))
    assert fresh == given


@pytest.mark.parametrize("claim, complaint", [
    (Claim("x", ("nope", "e2e"), ">", 0.0), "no variant 'nope'"),
    (Claim("x", ("event", "nope"), ">", 0.0), "no column 'nope'"),
    (Claim("x", ("event", "e2e"), ">", ("event", "nope")), "no column"),
    (Claim("x", ("event", "e2e"), "!=", 0.0), "no operator '!='"),
    (Claim("x", ("event", "e2e", "nope=1"), ">", 0.0), "no field 'nope'"),
    (Claim("x", ("event", "e2e", "num_requests=many"), ">", 0.0),
     "does not parse as int"),
])
def test_a_claim_that_cannot_be_evaluated_raises_before_anything_runs(
        monkeypatch, claim, complaint):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(runner, "run_scenario", no_run)
    with pytest.raises(ValueError, match=complaint):
        check_claims("event_core", claims=(claim,))


def test_each_other_world_of_a_claim_is_run_once(monkeypatch):
    """mesh_chaos names its line world in three cells of two variants:
    with the base world's reports given, that is two runs."""
    spec = SCENARIOS["mesh_chaos"]
    cfg = override_config(spec.config(), spec.smoke)
    base = run_scenario("mesh_chaos", cfg)
    ran = []

    def counted(scenario, cfg, variants):
        ran.append((cfg.topology, tuple(variants)))
        return run_scenario(scenario, cfg, variants=variants)

    monkeypatch.setattr(runner, "run_scenario", counted)
    results = check_claims("mesh_chaos", cfg, base)
    assert sorted(ran) == [("line", ("murmuration",)),
                           ("line", ("no-reroute",))]
    assert all(r.holds for r in results), [str(r) for r in results]
