"""The figure registry: every entry states its acceptance, the CLI reads
the table without loading a driver, and a claim is checked end to end.

The claims themselves are checked at both sizes by
``benchmarks/bench_claims.py``.
"""

import pytest

from benchmarks.bench_claims import main as bench
from repro.cli import main as cli
from repro.eval.figures import FIGURES, check_figure
from tests.test_imports import _fresh


@pytest.mark.parametrize("name", list(FIGURES))
def test_every_figure_states_its_acceptance_over_its_own_measures(name):
    """Checked on the declaration alone: nothing is run or imported.
    Every claim names a measure, and every measure is named."""
    figure = FIGURES[name]
    assert figure.claims and isinstance(figure.smoke, dict)
    named = [[c for c in (claim.left, claim.right) if isinstance(c, str)]
             for claim in figure.claims]
    assert all(named)
    assert {c for cells in named for c in cells} == set(figure.measures)


#: the layers only a figure's driver needs
DRIVER_LAYERS = ("repro.eval.experiments", "repro.eval.reporting",
                 "repro.eval.training_curves", "repro.baselines",
                 "repro.rl.policy", "repro.rl.common", "repro.rl.gcsl",
                 "repro.rl.ppo", "repro.rl.supreme", "repro.nn.layers",
                 "repro.nn.functional", "repro.nn.lstm",
                 "repro.nas.supernet", "repro.nas.training")


def test_building_the_cli_loads_no_figure_driver():
    loaded = _fresh(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['list'])\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "repro.eval.figures" in loaded
    assert not [m for m in loaded if m.startswith(DRIVER_LAYERS)]


def test_fig19_claims_hold_at_smoke_size():
    results = check_figure("fig19", smoke=True)
    assert [r.claim for r in results] == list(FIGURES["fig19"].claims)
    assert all(r.holds for r in results), [str(r) for r in results]


def test_the_driver_prints_the_figures_cli_table(capsys):
    assert bench(["fig19"]) == 0
    driver = capsys.readouterr().out
    assert cli(["fig19"]) == 0
    table = capsys.readouterr().out
    assert table in driver and "PASS" in driver


def test_a_figure_claim_reads_its_measures_on_given_data():
    data = {"switch": {"Murmuration (supernet reconfig)": 0.01,
                       "reload a": 0.2, "reload b": 0.5},
            "alternating_reload_s": 4.0}
    results = check_figure("fig19", data)
    assert [(r.holds, r.left) for r in results] == [
        (True, 0.01), (False, pytest.approx(20.0)), (False, 4.0)]
