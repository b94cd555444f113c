"""Every frozen fixture behind one registry and one command.

    PYTHONPATH=src python -m tests.frozen [NAME...]
    PYTHONPATH=src python -m tests.frozen --regenerate NAME...

``FROZEN`` maps a name to ``(fixture, fn)``: a file under
``tests/fixtures/`` and the function computing its content from the live
code.  The check prints each entry that moved with its top-level keys
that moved (with how many sub-keys moved, and the first ten, where the
value is a dict), or the first differing line of a ``.jsonl``, and
exits 1;
``--regenerate`` rewrites only the named entries that moved.
"""

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def sha256(data) -> str:
    """Hex sha256 of ``data`` (a ``str`` as UTF-8)."""
    data = data.encode() if isinstance(data, str) else data
    return hashlib.sha256(data).hexdigest()


def digest(answer) -> str:
    """sha256 of an answer tree as sorted-key JSON."""
    return sha256(json.dumps(answer, sort_keys=True))


def load(fixture: str):
    """The text of a ``.jsonl``, a ``.json`` parsed; None if missing."""
    path = FIXTURES / fixture
    if not path.exists():
        return None
    text = path.read_text()
    return text if path.suffix == ".jsonl" else json.loads(text)


def write(fixture: str, content) -> None:
    if not fixture.endswith(".jsonl"):
        content = json.dumps(content, indent=1, sort_keys=True) + "\n"
    (FIXTURES / fixture).write_text(content)


def _keys_moved(content: dict, frozen: dict) -> list:
    return sorted(k for k in content.keys() | frozen.keys()
                  if k not in content or k not in frozen
                  or content[k] != frozen[k])


def _diff(fixture: str, content, detail=False) -> list:
    """What moved: top-level keys of a ``.json``, or the first differing
    line of a ``.jsonl``.  With ``detail``, a key whose value is a dict
    on both sides also says how many of its sub-keys moved and the first
    ten."""
    frozen = load(fixture)
    if fixture.endswith(".jsonl"):
        if content == frozen:
            return []
        old, new = (frozen or "").splitlines(), content.splitlines()
        line = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
                    min(len(old), len(new)))
        return [f"line {line + 1}"]
    content, frozen = json.loads(json.dumps(content)), frozen or {}
    keys = _keys_moved(content, frozen)
    if not detail:
        return keys
    out = []
    for k in keys:
        new, old = content.get(k), frozen.get(k)
        if isinstance(new, dict) and isinstance(old, dict):
            sub = _keys_moved(new, old)
            shown = ", ".join(sub[:10] + ["…"] * (len(sub) > 10))
            k = f"{k} ({len(sub)} of {len(new.keys() | old.keys())}: {shown})"
        out.append(k)
    return out


def moved(name: str) -> list:
    """What entry ``name`` moves; [] when its fixture is up to date."""
    fixture, fn = FROZEN[name]
    return _diff(fixture, fn())


def _python(*args: str, check=False) -> bytes:
    """stdout of ``python <args>`` run at the repo root, ``src`` first."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=check).stdout


def figure_tables() -> dict:
    """sha256 of the seeded Figs. 13-17 and 19 tables the CLI prints
    (``fig18`` times the host)."""
    return {figure: sha256(_python("-m", "repro.cli", figure, check=True))
            for figure in ("fig13", "fig14", "fig15", "fig16", "fig17",
                           "fig19")}


def sim_digests(ledger: dict) -> dict:
    """Each untraced run's ``sim_digest`` in a perf ledger (a traced run
    digests one input set, not three).  A ledger of another seed than 0,
    or a run that failed a correctness check, is an error."""
    if ledger["provenance"]["seed"] != 0:
        raise ValueError(f"ledger is for seed {ledger['provenance']['seed']}"
                         ", the digests are frozen for seed 0")
    failed = [run["workload"] for run in ledger["runs"] if not run["correct"]]
    if failed:
        raise ValueError(f"{', '.join(failed)}: a correctness check failed")
    return {run["workload"]: run["detail"]["sim_digest"]
            for run in ledger["runs"] if run["trace"] == 0}


def ledger_sim_digests() -> dict:
    """Every perf workload's simulated results at seed 0 (~30 s);
    throughput is not frozen, as reference-host seconds vary by host."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ledger.json"
        _python("-m", "benchmarks.perf", "--seed", "0", "--seconds", "3",
                "--trace", "0", "--out", str(out))
        return sim_digests(json.loads(out.read_text()))


def _of(module: str):
    """``tests.<module>.fixture_content``, imported when first called."""
    return lambda: importlib.import_module(
        f"tests.{module}").fixture_content()


FROZEN = {Path(fixture).stem: (fixture, fn) for fixture, fn in [
    ("decision_digests.json", _of("core.test_decision_digests")),
    ("facade_parity_golden.json", _of("core.test_infer_parity")),
    ("figure_table_digests.json", figure_tables),
    ("fluid_price_digests.json", _of("netsim.test_fluid_digests")),
    ("hostile_verdicts.json", _of("eval.test_hostile_verdicts")),
    ("ledger_sim_digests.json", ledger_sim_digests),
    ("multi_tenant_fluid_golden.jsonl", _of("eval.test_replay_invariants")),
    ("route_digests.json", _of("netsim.test_route_digests")),
    ("scenario_digests.json", _of("eval.test_scenario_digests")),
    ("server_loop_digests.json", _of("runtime.test_server_digests")),
    ("serving_load_golden.jsonl", _of("eval.test_replay")),
    ("strategy_price_digests.json", _of("rl.test_strategy_digests")),
    ("telemetry_snapshot_digests.json",
     _of("telemetry.test_snapshot_digests")),
    ("wire_price_digests.json", _of("netsim.test_wire_digests")),
]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.frozen", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="entries to check (default: all)")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the named entries that moved")
    args = parser.parse_args(argv)
    if set(args.names) - set(FROZEN) or args.regenerate and not args.names:
        parser.error(f"NAME is one or more of: {', '.join(FROZEN)}")
    found = 0
    for name in args.names or FROZEN:
        fixture, fn = FROZEN[name]
        content = fn()
        what = ", ".join(_diff(fixture, content, detail=True))
        if not what:
            continue
        found += 1
        if args.regenerate:
            write(fixture, content)
            print(f"rewrote {fixture} ({what})")
        else:
            print(f"moved {name}: {what}")
    if not found:
        print(f"no entry moved ({len(args.names or FROZEN)} checked)")
    return 1 if found and not args.regenerate else 0


if __name__ == "__main__":
    sys.exit(main())
