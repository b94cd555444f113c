"""A budget on ``is None`` forks around the optional subsystems.

``telemetry``, ``recorder``, ``control`` and ``events`` are always
present inside ``src/`` — a null form stands in for an absent one
(DESIGN.md, "Optional subsystems") — so code there calls them without
asking.  Before that there were 69 such tests in 15 files; this test
keeps them from growing back one convenient ``if`` at a time.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
GUARD = re.compile(r"(telemetry|tel|recorder|control|events) is (not )?None")

#: file -> guards allowed there, and why
ALLOWED = {
    # the normalisers: the one place per subsystem None is told apart
    "repro/telemetry/hub.py": 1,        # Telemetry.of
    "repro/telemetry/recorder.py": 1,   # RunRecorder.of
    "repro/control/loop.py": 1,         # ControlLoop.of
    "repro/runtime/server.py": 1,       # a server given no loop owns one
    # World / ScenarioReport handles report what the caller attached,
    # so "this variant has no control plane" stays a None
    "repro/eval/runner.py": 3,
}
BUDGET = 10


def test_optional_subsystem_guards_stay_within_budget():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = [f"{path.relative_to(SRC)}:{n}: {line.strip()}"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if GUARD.search(line)]
        if lines:
            found[str(path.relative_to(SRC))] = lines
    over = [line for name, lines in found.items()
            for line in lines[ALLOWED.get(name, 0):]]
    total = sum(map(len, found.values()))
    assert not over and total <= BUDGET, (
        f"{total} optional-subsystem guards in src/ (budget {BUDGET}); "
        "not on the allowlist:\n  " + "\n  ".join(over) + "\n"
        "Components never test whether telemetry, a recorder, a control "
        "loop or an event loop exists: normalise the constructor argument "
        "once (Telemetry.of / RunRecorder.of / ControlLoop.of) and call "
        "the null form unconditionally.")
