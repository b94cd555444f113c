"""Byte identity of the figure tables the decision search prints.

    python3 -m benchmarks.figure_gate               # exit 1 + which table moved
    python3 -m benchmarks.figure_gate --regenerate  # only after an intended change

runs ``python -m repro.cli <figure>`` for each figure in
``tests/fixtures/figure_table_digests.json`` and compares the sha256 of
its stdout with the frozen one.  ``fig13``, ``fig14`` and ``fig17`` are
pinned here; ``fig15`` / ``fig16`` outputs are pinned to the last bit by
``tests/core/test_decision_digests.py``.  The tables are seeded, so any
difference is a changed answer, not noise.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "figure_table_digests.json"
FIGURES = ("fig13", "fig14", "fig17")


def table_digest(figure: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "repro.cli", figure],
                         env=env, cwd=ROOT, capture_output=True, check=True)
    return hashlib.sha256(out.stdout).hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--regenerate"]:
        FIXTURE.write_text(json.dumps(
            {fig: table_digest(fig) for fig in FIGURES}, indent=1) + "\n")
        sys.exit(0)
    frozen = json.loads(FIXTURE.read_text())
    moved = []
    for fig, want in frozen.items():
        got = table_digest(fig)
        if got != want:
            moved.append(f"{fig}: table sha256 {got} != frozen {want}")
    print("\n".join(moved)
          or f"{', '.join(frozen)} tables match the frozen digests")
    sys.exit(1 if moved else 0)
