"""Acceptance of every serving scenario: its table, then its claims.

A scenario declares what its variants must show against each other as
``claims`` on its :class:`~repro.eval.spec.Scenario`
(``src/repro/eval/<scenario>.py``), and its CI-sized world as ``smoke``.
This driver is their only reader.  Under pytest every claim of every
registered scenario is one test, at the scenario's default config; as a
script it prints each scenario's table (the bytes ``repro.cli run
<scenario>`` prints for the same config) and one PASS / FAIL line per
claim, and exits non-zero if any failed::

   PYTHONPATH=src python benchmarks/bench_scenarios.py [--smoke] [scenario ...]
"""

import argparse
import functools
import sys

import pytest

from repro.cli import main as cli
from repro.eval.runner import (SCENARIOS, check_claims, format_reports,
                               override_config, run_scenario)


@functools.lru_cache(maxsize=None)
def _results(scenario):
    return {r.claim.text: r for r in check_claims(scenario)}


@pytest.mark.parametrize("scenario, text", [
    pytest.param(name, claim.text, id=f"{name}: {claim.text}")
    for name, spec in SCENARIOS.items() for claim in spec.claims])
def test_claim_holds(scenario, text):
    result = _results(scenario)[text]
    assert result.holds, str(result)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_scenario_states_its_acceptance(scenario):
    """A scenario registered without claims would pass CI unchecked."""
    assert SCENARIOS[scenario].claims and SCENARIOS[scenario].smoke


def test_the_driver_prints_the_cli_table(capsys):
    spec = SCENARIOS["event_core"]
    assert main(["event_core", "--smoke"]) == 0
    driver = capsys.readouterr().out
    sets = [arg for item in spec.smoke for arg in ("--set", item)]
    assert cli(["run", "event_core", *sets]) == 0
    assert capsys.readouterr().out in driver


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run serving scenarios and check their claims.")
    parser.add_argument("scenario", nargs="*",
                        help=f"default: all of {', '.join(SCENARIOS)}")
    parser.add_argument("--smoke", action="store_true",
                        help="each scenario's CI-sized config")
    args = parser.parse_args(argv)
    unknown = [name for name in args.scenario if name not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario {', '.join(unknown)}; "
                     f"known: {', '.join(SCENARIOS)}")
    failed = 0
    for name in args.scenario or SCENARIOS:
        spec = SCENARIOS[name]
        overrides = spec.smoke if args.smoke else ()
        cfg = override_config(spec.config(), overrides)
        reports = run_scenario(name, cfg)
        print(" ".join(("==", name) + overrides))
        print(format_reports(reports))
        for result in check_claims(name, cfg, reports):
            print(result)
            failed += not result.holds
        print()
    print(f"{failed} claim(s) FAILED" if failed else "every claim holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
