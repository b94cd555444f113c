"""A budget on ``is None`` forks around the optional subsystems.

``telemetry``, ``recorder``, ``control`` and ``events`` are always
present inside ``src/`` — a null form stands in for an absent one
(DESIGN.md, "Optional subsystems") — so code there calls them without
asking.  Before that there were 69 such tests in 15 files.  The wire
and the breakers followed: the contention ``tracker``, the ``ingress``,
``health`` and ``resilience`` had 33 forks and ``prices_transfers``
probes in 11 files, choosing between nine pricing bodies.  One budget
per family keeps either from growing back one convenient ``if`` at a
time.  A third keeps components writing telemetry, never reading it
back: the control loop once steered on the monitor's error histograms,
which compare against the true link.  The fault injector was the last
real ``None``: eight forks in five files chose between a faulty and a
fault-free body, and only its normaliser is left.
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

WIRE_GUARD = re.compile(
    r"(tracker|ingress|contention|health|resilience) is (not )?None"
    r"|prices_transfers")
WIRE_ALLOWED = {
    # the normalisers
    "repro/runtime/server.py": 1,       # InferenceServer(ingress=None)
    "repro/faults/health.py": 1,        # DeviceHealth.of
    # ``resilience=None`` means the default policy
    "repro/core/murmuration.py": 1,
    "repro/runtime/executor.py": 1,
    # ``cluster.contention`` is a plain attribute callers also assign
    # after construction: one early return in ``timed_transfer`` and one
    # in ``update_fluid_caps``, per cluster
    "repro/netsim/topology.py": 2,
    "repro/netsim/mesh.py": 2,
    # the ``links`` demo drains the fluid tracker it may have built
    "repro/cli.py": 1,
}
WIRE_BUDGET = 9

FAULTS_GUARD = re.compile(r"(faults|injector) is (not )?None")
#: the normaliser, FaultInjector.of
FAULTS_ALLOWED = {"repro/faults/injector.py": 1}
FAULTS_BUDGET = 1

READ_BACK = re.compile(r"registry\.get\(")


def _check(guard, allowed, budget, advice):
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = [f"{path.relative_to(SRC)}:{n}: {line.strip()}"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if guard.search(line)]
        if lines:
            found[str(path.relative_to(SRC))] = lines
    over = [line for name, lines in found.items()
            for line in lines[allowed.get(name, 0):]]
    total = sum(map(len, found.values()))
    assert not over and total <= budget, (
        f"{total} guards matching {guard.pattern!r} in src/ (budget "
        f"{budget}); not on the allowlist:\n  " + "\n  ".join(over)
        + "\n" + advice)


def test_optional_subsystem_guards_stay_within_budget():
    _check(GUARD, ALLOWED, BUDGET,
           "Components never test whether telemetry, a recorder, a "
           "control loop or an event loop exists: normalise the "
           "constructor argument once (Telemetry.of / RunRecorder.of / "
           "ControlLoop.of) and call the null form unconditionally.")


def test_wire_and_breaker_guards_stay_within_budget():
    _check(WIRE_GUARD, WIRE_ALLOWED, WIRE_BUDGET,
           "Nothing forks on whether a wire is shared, an uplink is "
           "modelled or breakers exist: describe the wire to the "
           "tracker, call NULL_INGRESS and NULL_HEALTH unconditionally, "
           "and never probe a tracker for what it can do.")


def test_fault_injector_guards_stay_within_budget():
    _check(FAULTS_GUARD, FAULTS_ALLOWED, FAULTS_BUDGET,
           "Nothing forks on whether an injector was given: components "
           "hold FaultInjector.of(faults) and call it unconditionally; a "
           "world that cannot fail is told apart by `can_fail`, not None.")


def test_no_component_reads_a_metric_back():
    _check(READ_BACK, {}, 0,
           "Components write telemetry; nothing steers on it.  A signal a "
           "controller needs comes from the component that observes it "
           "(NetworkMonitor.recent_rel_error, the ServingStats window).")
