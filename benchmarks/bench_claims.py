"""Acceptance of every serving scenario and every paper figure: its
table, then its claims.

A scenario declares what its variants must show against each other as
``claims`` on its :class:`~repro.eval.spec.Scenario`
(``src/repro/eval/<scenario>.py``); a figure declares what its data must
show as ``claims`` over named measures on its
:class:`~repro.eval.figures.Figure` (``src/repro/eval/figures.py``).
Each declares its CI-sized budget as ``smoke``.  This driver is their
only reader.  Under pytest every claim is one test, at full size; an
entry marked ``slow`` carries ``pytest.mark.slow``.  As a script it
prints each entry's table (the bytes ``repro.cli run <scenario>`` or
``repro.cli <figure>`` prints at that size) and one PASS / FAIL line per
claim, and exits non-zero if any failed.  With no names it runs every
scenario and every figure not marked ``slow``::

   PYTHONPATH=src python benchmarks/bench_claims.py [--smoke] [name ...]
"""

import argparse
import functools
import sys

import pytest

from repro.cli import main as cli
from repro.eval.figures import FIGURES, check_figure, run_figure
from repro.eval.runner import (SCENARIOS, check_claims, format_reports,
                               override_config, run_scenario)


@functools.lru_cache(maxsize=None)
def _results(name):
    results = check_claims(name) if name in SCENARIOS else check_figure(name)
    return {r.claim.text: r for r in results}


@pytest.mark.parametrize("name, text", [
    pytest.param(name, claim.text, id=f"{name}: {claim.text}",
                 marks=pytest.mark.slow if getattr(spec, "slow", False)
                 else ())
    for name, spec in {**SCENARIOS, **FIGURES}.items()
    for claim in spec.claims])
def test_claim_holds(name, text):
    result = _results(name)[text]
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


def _run(name, smoke):
    """Print one entry's table; its claim results."""
    if name in FIGURES:
        data = run_figure(name, smoke)
        print(f"== {name}{' (smoke)' if smoke else ''}")
        print(FIGURES[name].format(data))
        return check_figure(name, data)
    spec = SCENARIOS[name]
    overrides = spec.smoke if smoke else ()
    cfg = override_config(spec.config(), overrides)
    reports = run_scenario(name, cfg)
    print(" ".join(("==", name) + overrides))
    print(format_reports(reports))
    return check_claims(name, cfg, reports)


def main(argv=None) -> int:
    known = [*SCENARIOS, *FIGURES]
    parser = argparse.ArgumentParser(
        description="Run serving scenarios and paper figures and check "
                    "their claims.")
    parser.add_argument("name", nargs="*",
                        help=f"default: all but the slow of {', '.join(known)}")
    parser.add_argument("--smoke", action="store_true",
                        help="each entry's CI-sized budget")
    args = parser.parse_args(argv)
    unknown = [name for name in args.name if name not in known]
    if unknown:
        parser.error(f"unknown name {', '.join(unknown)}; "
                     f"known: {', '.join(known)}")
    failed = 0
    for name in args.name or [*SCENARIOS, *(
            name for name, figure in FIGURES.items() if not figure.slow)]:
        for result in _run(name, args.smoke):
            print(result)
            failed += not result.holds
        print()
    print(f"{failed} claim(s) FAILED" if failed else "every claim holds")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
