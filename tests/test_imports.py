"""What an import loads.

Every package resolves its exports on first use (``repro._lazy_exports``,
PEP 562): importing a package imports none of its submodules, and the
serving stack never loads the NN, supernet, RL-training, figure or
baseline layers.  Both are checked in a fresh interpreter -- this one
has long since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(code: str, *argv: str):
    """JSON printed by ``code`` in a new interpreter importing ``src/``."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")])})
    return json.loads(out.stdout)


def _table(init: Path) -> dict:
    """The ``{submodule: names}`` literal an ``__init__`` hands the
    helper, read from its source rather than from the helper."""
    for node in ast.walk(ast.parse(init.read_text())):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{init} has no _lazy_exports table")


INITS = sorted((SRC / "repro").rglob("__init__.py"))
PACKAGES = {".".join(p.parent.relative_to(SRC).parts): _table(p)
            for p in INITS}

#: runs first thing in a fresh interpreter, so every lookup below goes
#: through the packages' ``__getattr__``
EXPORTS_PROBE = """
import importlib, json, sys
tables = json.loads(sys.argv[1])
for pkg in tables:
    importlib.import_module(pkg)
report = {"loaded": sorted(m for m in sys.modules
                           if m.startswith("repro") and m not in tables)}
star = {}
for pkg in tables:
    ns = {}
    exec(f"from {pkg} import *", ns)
    star[pkg] = sorted(ns)
mods = {pkg: importlib.import_module(pkg) for pkg in tables}
report["star"] = star
report["all"] = {pkg: list(m.__all__) for pkg, m in mods.items()}
report["dir"] = {pkg: dir(m) for pkg, m in mods.items()}
wrong = []
for pkg, table in tables.items():
    for sub, names in table.items():
        home = importlib.import_module(f"{pkg}.{sub}")
        for name in names:
            held = (home if name == sub and not hasattr(home, name)
                    else getattr(home, name))
            if getattr(mods[pkg], name) is not held:
                wrong.append(f"{pkg}.{name}")
report["wrong"] = wrong
unknown = []
for pkg, m in mods.items():
    try:
        getattr(m, "no_such_export")
        unknown.append(pkg)
    except AttributeError:
        pass
report["unknown_resolved"] = unknown
import repro.nn
report["quantize"] = type(repro.nn.quantize).__name__
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def exports():
    return _fresh(EXPORTS_PROBE, json.dumps(PACKAGES))


def test_importing_every_package_imports_no_submodule(exports):
    # the one eager import: ``quantize`` shares its submodule's name
    assert exports["loaded"] == ["repro.nn.quantize"]


def test_every_export_is_the_object_its_defining_module_holds(exports):
    assert exports["wrong"] == []


def test_all_dir_and_star_import_list_exactly_the_table(exports):
    for pkg, table in PACKAGES.items():
        names = [n for names in table.values() for n in names]
        if pkg == "repro":
            names.append("__version__")
        assert exports["all"][pkg] == names, pkg
        assert set(names) <= set(exports["dir"][pkg]), pkg
        assert set(exports["star"][pkg]) - {"__builtins__"} == set(names), pkg


def test_an_unknown_name_is_an_attribute_error(exports):
    assert exports["unknown_resolved"] == []


def test_repro_nn_quantize_is_the_function(exports):
    # importing the submodule binds its name on the package; a lazy
    # ``quantize`` would then be the module
    assert exports["quantize"] == "function"


# -- the serving stack's import set -------------------------------------------

SERVING = ("core", "runtime", "netsim", "telemetry", "control", "faults",
           "sim")
#: never loaded by serving: the NN layers and LSTM, the supernet and its
#: trainer, the policy and its trainers, the figure / scenario drivers,
#: the fixed-model baselines and the exporters
FORBIDDEN = ("repro.nn.layers", "repro.nn.functional", "repro.nn.lstm",
             "repro.nas.supernet", "repro.nas.training", "repro.rl.policy",
             "repro.rl.gcsl", "repro.rl.ppo", "repro.rl.supreme",
             "repro.eval", "repro.baselines", "repro.telemetry.export")
#: repro modules the serving stack loads, packages included (84 when
#: every package imported all of its submodules)
SERVING_BUDGET = 63


def test_the_serving_stack_loads_no_training_figure_or_export_layer():
    loaded = _fresh(
        "import importlib, json, sys\n"
        f"for pkg in {SERVING!r}:\n"
        "    m = importlib.import_module('repro.' + pkg)\n"
        "    [getattr(m, n) for n in m.__all__ if n[:1].isupper()]\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'repro')))")
    bad = [m for m in loaded
           if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert not bad, f"the serving stack imports {bad}"
    assert len(loaded) <= SERVING_BUDGET, (
        f"{len(loaded)} repro modules behind the serving stack (budget "
        f"{SERVING_BUDGET}): a new top-level import there should be "
        f"annotation-only (TYPE_CHECKING) or live in the layer that "
        f"calls it")
