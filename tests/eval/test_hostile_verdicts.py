"""The hostile-input sweep: every numeric field of every scenario config,
driven through the runner at smoke size with the values its type admits
as hostile, one verdict per case.

``tests/fixtures/hostile_verdicts.json`` maps ``"<scenario>
<field>=<value>"`` to how the case ends:

* ``rejected`` — a ``ValueError`` naming the field, raised while the
  config is overridden or a variant's world is built (before anything is
  served; the CLI exits 2);
* ``rejected under another name`` — the same, not naming the field;
* ``served`` — every variant served its stream, ``verify_invariants``
  found nothing and no ``COLUMNS`` value is NaN; ``served, invariants
  broken`` / ``served, NaN in a column`` otherwise;
* ``<Error> at config|build|run`` — any other exception, or a
  ``ValueError`` raised mid-run;
* ``timeout`` — the case ran past ``TIMEOUT_S``.

The fields and values come from the configs' annotations, so a new
field joins the sweep without an edit here.
"""

import math
import re
import signal
import typing
from contextlib import contextmanager

import pytest

from repro.eval.replay import verify_invariants
from repro.eval.runner import (COLUMNS, SCENARIOS, build_world,
                               override_config, run_world)
from tests.frozen import load

#: hostile ``--set`` texts per numeric type
VALUES = {float: ("nan", "inf", "-inf", "0", "-1", "1e308", "0.1", "0.3",
                  "0.7"),
          int: ("0", "-1", str(2 ** 63))}
#: wall seconds one case may take (a served smoke case takes ~0.1 s)
TIMEOUT_S = 5.0


class _Timeout(BaseException):
    """Past the deadline; a ``BaseException`` so no ``except Exception``
    in the code under test swallows it."""


@contextmanager
def _deadline(seconds: float):
    def fire(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def numeric_fields(cls) -> typing.Dict[str, type]:
    """``{field: float | int}`` for each numeric (or Optional numeric)
    field of a config dataclass."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        base = args[0] if typing.get_origin(hint) is typing.Union \
            and len(args) == 1 else hint
        if base in VALUES:
            out[name] = base
    return out


def cases():
    """Every ``(scenario, field, value text)`` of the sweep."""
    return [(scenario, field, text)
            for scenario, spec in SCENARIOS.items()
            for field, kind in numeric_fields(spec.config).items()
            for text in VALUES[kind]]


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def verdict(scenario: str, field: str, text: str) -> str:
    """How one hostile case ends (module docstring)."""
    spec = SCENARIOS[scenario]
    stage = "config"
    try:
        with _deadline(TIMEOUT_S):
            try:
                cfg = override_config(override_config(spec.config(),
                                                      spec.smoke),
                                      [f"{field}={text}"])
                stage = "build"
                worlds = [build_world(scenario, cfg, variant, record=True)
                          for variant in spec.variants]
            except ValueError as exc:
                return ("rejected" if re.search(rf"\b{field}\b", str(exc))
                        else "rejected under another name")
            stage = "run"
            reports = [run_world(world) for world in worlds]
    except _Timeout:
        return "timeout"
    except Exception as exc:  # any other error: the verdict names it
        return f"{type(exc).__name__} at {stage}"
    if any(verify_invariants(rep.recorder.recording()) for rep in reports):
        return "served, invariants broken"
    if any(_is_nan(column.value(rep)) for rep in reports
           for column in COLUMNS.values()):
        return "served, NaN in a column"
    return "served"


def fixture_content():
    return {f"{scenario} {field}={text}": verdict(scenario, field, text)
            for scenario, field, text in cases()}


def test_every_scenario_has_numeric_fields_in_the_sweep():
    swept = {scenario for scenario, _, _ in cases()}
    assert swept == set(SCENARIOS)


def test_every_case_ends_rejected_naming_its_field_or_served_clean(moved):
    assert moved("hostile_verdicts") == []
    assert set(load("hostile_verdicts.json").values()) <= {
        "rejected", "served"}


@pytest.mark.parametrize("text, expected", [
    ("nan", "rejected"), ("0.3", "served")])
def test_a_tight_or_hostile_slo_reads_the_live_code(text, expected):
    assert verdict("serving_load", "slo_ms", text) == expected
