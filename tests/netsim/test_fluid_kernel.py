"""The live fluid ledger against its clone-and-drain oracle.

``tests/netsim/reference_fluid.py`` is the solver as it stood before
pricing stopped copying the ledger.  Everything here drives it and
:class:`repro.netsim.fluid.FluidTracker` with the same calls and
requires ``==`` — never ``approx`` — on every returned float,
``finish_times()``, every recorded segment and every counter: the
frozen worlds of ``test_fluid_digests.py``, seeded random scripts, a
``hypothesis`` strategy over (edges, capacities, sizes, arrival gaps,
interleaved and repeated peeks and queries, ``update_caps``; example
count from ``FLUID_KERNEL_N``, which CI multiplies by ten), and
``_waterfill`` against the oracle's per-flow ``_reconverge``.  Then the
pins, counted in water-fills (``FluidTracker.solves_total``), on what
the ledger may compute once only — a peek and the admit behind it, a
prediction and the advance that follows it — and on what it may keep
alive.
"""

import gc
import itertools
import os
import weakref
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import fluid
from repro.netsim.fluid import FluidTracker
from repro.telemetry import Telemetry
from tests.netsim import reference_fluid
from tests.netsim.reference_fluid import FluidTracker as ReferenceTracker
from tests.netsim.test_fluid_digests import WORLDS, play

NODES = 5
EDGES = list(itertools.combinations(range(NODES), 2))
KERNEL_N = int(os.environ.get("FLUID_KERNEL_N", "200"))


def registry_rows(tel):
    return sorted(
        (m.name, tuple(m.labels), m.kind,
         (m.count, m.sum, m.min, m.max) if m.kind == "histogram" else m.value)
        for m in tel.registry.collect())


def ledger_state(tracker, tel):
    """Everything a ledger can be asked without moving it."""
    return {
        "finish": tracker.finish_times(),
        "segments": [(s.t0, s.t1, s.rates) for s in tracker.segments],
        "stats": tracker.stats(),
        "peak_share": dict(tracker.peak_share),
        "contended": tracker.contended_total,
        "caps_updates": tracker.caps_updates_total,
        "tenant_bytes": tracker.tenant_bytes(),
        "specs": [astuple(tracker.flow_spec(i))
                  for i in range(tracker.flows_total)],
        "telemetry": registry_rows(tel),
    }


def run_script(tracker_cls, script):
    """Apply ``(method, args, kwargs)`` calls; every answer, the ledger
    state mid-run and after a drain."""
    tel = Telemetry()
    tracker = tracker_cls(telemetry=tel, record_segments=True)
    answers = []
    for method, args, kwargs in script:
        try:
            answers.append(getattr(tracker, method)(*args, **kwargs))
        except (ValueError, KeyError) as exc:
            answers.append(type(exc).__name__)
    before = ledger_state(tracker, tel)
    tracker.drain()
    return answers, before, ledger_state(tracker, tel)


def assert_same_ledger(script):
    want = run_script(ReferenceTracker, script)
    got = run_script(FluidTracker, script)
    for w, g in zip(want[0], got[0]):
        assert g == w, (g, w)
    assert got == want


def random_script(seed, n=60):
    """Transfers on 1-3 edge paths of a 5-clique with bursts, peeks
    (some repeated by the admit, some not), capacity steps, queries,
    zero-byte flows, same-instant and out-of-order arrivals."""
    rng = np.random.default_rng((seed, 1818))
    caps = {e: float(rng.uniform(1e5, 1e7)) for e in EDGES}
    script, t, flows = [], 0.0, 0
    for _ in range(n):
        roll = rng.random()
        gap = float(rng.choice([0.0, rng.exponential(0.02),
                                rng.exponential(0.5)], p=[0.2, 0.6, 0.2]))
        t += gap
        now = t - 0.3 if rng.random() < 0.05 else t
        k = int(rng.integers(1, 4))
        path = tuple(EDGES[int(i)]
                     for i in rng.choice(len(EDGES), k, replace=False))
        if rng.random() < 0.3:
            path = tuple((b, a) for a, b in path)  # the other spelling
        # canonical keys: the oracle still has the spelling bug
        path_caps = {tuple(sorted(e)): caps[tuple(sorted(e))] for e in path}
        nbytes = 0.0 if rng.random() < 0.05 else float(rng.uniform(1e3, 2e5))
        kwargs = {"tenant": (None, "a", "b")[int(rng.integers(3))]}
        if rng.random() < 0.5:
            kwargs["base_s"] = 0.004 + nbytes * 8.0 / min(path_caps.values())
        args = (path, path_caps, 0.004, nbytes, now)
        if roll < 0.12:
            edge = EDGES[int(rng.integers(len(EDGES)))]
            caps[edge] = float(rng.uniform(1e5, 1e7))
            script.append(("update_caps", (now, {edge: caps[edge]}), {}))
        elif roll < 0.2 and flows:
            fid = int(rng.integers(flows))
            script.append(("finish_time", (fid,), {}))
            script.append(("concurrency", (path[0], now + gap), {}))
            script.append(("finish_times", (), {}))
        elif roll < 0.3:
            script.append(("admit", (path, path_caps, now, nbytes),
                           {"tenant": kwargs["tenant"]}))
            flows += 1
        else:
            if roll < 0.65:
                script.append(("peek_transfer", args, kwargs))
            if roll < 0.4:
                continue  # a peek nobody follows up
            if 0.6 < roll < 0.65:
                args = args[:3] + (nbytes + 1e3, now)  # not what was peeked
            script.append(("admit_transfer", args, kwargs))
            flows += 1
    return script


@pytest.mark.parametrize("name", list(WORLDS))
def test_frozen_worlds_match_the_reference(name):
    assert play(WORLDS[name]) == play(WORLDS[name], ReferenceTracker)


@pytest.mark.parametrize("seed", range(30))
def test_seeded_scripts_match_the_reference(seed):
    assert_same_ledger(random_script(seed))


# -- hypothesis: the same op space, drawn and shrunk ------------------------
_PATHS = st.lists(st.sampled_from(EDGES + [(b, a) for a, b in EDGES]),
                  min_size=1, max_size=3)
_CAP = st.floats(1e4, 1e8)
_GAP = st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(-0.5, 0.0))


@st.composite
def scripts(draw):
    caps = {e: draw(_CAP) for e in EDGES}
    script, t = [], 0.0
    for _ in range(draw(st.integers(1, 14))):
        t += draw(_GAP)
        kind = draw(st.sampled_from(
            ["transfer", "transfer", "peek+transfer", "peek+transfer",
             "peek", "peek+other", "peeks+transfer", "peek+query+transfer",
             "admit", "update_caps", "query"]))
        path = tuple(draw(_PATHS))
        path_caps = {tuple(sorted(e)): caps[tuple(sorted(e))] for e in path}
        nbytes = draw(st.one_of(st.just(0.0), st.floats(1.0, 1e6)))
        kwargs = {"tenant": draw(st.sampled_from([None, "a", "b"]))}
        if draw(st.booleans()):
            kwargs["base_s"] = 0.01 + nbytes * 8.0 / min(path_caps.values())
        args = (path, path_caps, 0.01, nbytes, t)
        if kind == "update_caps":
            edge = draw(st.sampled_from(EDGES))
            caps[edge] = draw(_CAP)
            script.append(("update_caps", (t, {edge: caps[edge]}), {}))
        elif kind == "query":
            script.append(("concurrency", (path[0], t), {}))
            script.append(("finish_times", (), {}))
            script.append(("finish_time", (draw(st.integers(0, 12)),), {}))
        elif kind == "admit":
            script.append(("admit", (path, path_caps, t, nbytes),
                           {"tenant": kwargs["tenant"]}))
        else:
            if kind.startswith("peek"):
                script.append(("peek_transfer", args, kwargs))
            if kind == "peeks+transfer":  # the same instant, again
                script += [("peek_transfer", args, kwargs)] * draw(
                    st.integers(1, 3))
            if kind == "peek+query+transfer":
                script.append(("concurrency",
                               (path[0], t + draw(st.floats(0.0, 2.0))), {}))
                script.append(("finish_times", (), {}))
            if kind == "peek+other":
                args = args[:3] + (nbytes + draw(st.floats(1.0, 1e5)), t)
            if kind != "peek":
                script.append(("admit_transfer", args, kwargs))
    return script


@settings(max_examples=KERNEL_N, deadline=None)
@given(scripts())
def test_any_script_matches_the_reference(script):
    assert_same_ledger(script)


@st.composite
def flow_sets(draw):
    """Flows as raw edge tuples: repeated edges inside one path and two
    orders of one edge set are different classes with equal rates."""
    caps = {e: draw(_CAP) for e in EDGES}
    paths = draw(st.lists(
        st.lists(st.sampled_from(EDGES), min_size=1, max_size=4).map(tuple),
        min_size=1, max_size=12))
    return paths, caps


@settings(max_examples=200, deadline=None)
@given(flow_sets())
def test_waterfill_equals_the_per_flow_reconverge(case):
    paths, caps = case
    oracle = ReferenceTracker()
    oracle._caps = dict(caps)
    oracle._active = {i: reference_fluid._Flow(i, p, 0.0, 1.0, None)
                      for i, p in enumerate(paths)}
    oracle._reconverge()
    classes = {}
    for p in paths:
        classes[p] = classes.get(p, 0) + 1
    rates = fluid._waterfill(classes, caps)
    assert [rates[p] for p in paths] == \
        [oracle._active[i].rate for i in range(len(paths))]


def test_waterfill_rejects_an_edge_without_capacity():
    for caps in ({}, {(0, 1): 0.0}, {(0, 1): float("nan")}):
        with pytest.raises(ValueError, match="no positive capacity"):
            fluid._waterfill({((0, 1),): 2}, caps)


# -- what a peek shares with the admit behind it -----------------------------
E = (0, 1)
CAPS = {E: 1e6}


def _two_in_flight(cls=FluidTracker, **kwargs):
    tracker = cls(**kwargs)
    tracker.admit_transfer((E,), CAPS, 0.001, 4e4, 0.0)
    tracker.admit_transfer((E,), CAPS, 0.001, 9e4, 0.05)
    return tracker


def _solved(tracker, call):
    """``(answer, water-fills it took)`` of one call on the ledger."""
    before = tracker.solves_total
    answer = call()
    return answer, tracker.solves_total - before


def test_the_admit_behind_a_peek_reuses_its_float():
    tracker, oracle = _two_in_flight(), _two_in_flight(ReferenceTracker)
    args = ((E,), CAPS, 0.001, 6e4, 0.1)
    peek, cost = _solved(tracker, lambda: tracker.peek_transfer(
        *args, tenant="a", base_s=0.5))
    assert cost == 2  # the add, and the completion before its own
    admit, cost = _solved(tracker, lambda: tracker.admit_transfer(
        *args, tenant="a", base_s=0.5))
    assert admit == peek
    assert cost == 0  # the peek's branch adopted: nothing solved twice
    assert peek == oracle.admit_transfer(*args, tenant="a", base_s=0.5)
    # the peek is spent: the same call again is a new flow, priced anew
    again, cost = _solved(tracker, lambda: tracker.admit_transfer(
        *args, tenant="a", base_s=0.5))
    assert cost > 0
    assert again == oracle.admit_transfer(*args, tenant="a", base_s=0.5)
    assert again != peek
    assert tracker.finish_times() == oracle.finish_times()


@pytest.mark.parametrize("change", [
    {"nbytes": 6e4 + 1.0}, {"now": 0.1000001}, {"latency_s": 0.002},
    {"caps": {E: 2e6}}, {"edges": (E, (1, 2))}, {"tenant": "b"},
    {"base_s": None}])
def test_a_peek_with_other_arguments_is_not_reused(change):
    tracker, oracle = _two_in_flight(), _two_in_flight(ReferenceTracker)
    call = {"edges": (E,), "caps": CAPS, "latency_s": 0.001, "nbytes": 6e4,
            "now": 0.1, "tenant": "a", "base_s": 0.5}
    tracker.peek_transfer(**call)
    other = {**call, **change}
    if "edges" in change:
        other["caps"] = {E: 1e6, (1, 2): 1e6}
    admit, cost = _solved(tracker, lambda: tracker.admit_transfer(**other))
    assert admit == oracle.admit_transfer(**other)
    assert cost == 2  # added and predicted for itself
    assert tracker.finish_times() == oracle.finish_times()


@pytest.mark.parametrize("between", [
    lambda t: t.update_caps(0.1, {E: 5e5}),
    lambda t: t.update_caps(0.1, {(3, 4): 1e6}),  # an edge nobody rides
    lambda t: t.admit((E,), CAPS, 0.1, 1e4),
    lambda t: t.admit_transfer(((1, 2),), {(1, 2): 1e6}, 0.0, 1e4, 0.1),
    lambda t: t.drain()])
def test_a_peek_is_not_reused_once_the_ledger_moved(between):
    tracker, oracle = _two_in_flight(), _two_in_flight(ReferenceTracker)
    args = ((E,), CAPS, 0.001, 6e4, 0.1)
    tracker.peek_transfer(*args)
    between(tracker)
    between(oracle)
    admit, cost = _solved(tracker, lambda: tracker.admit_transfer(*args))
    assert admit == oracle.admit_transfer(*args)
    assert cost > 0
    assert tracker.finish_times() == oracle.finish_times()


def test_queries_between_peek_and_admit_do_not_spend_the_peek():
    tracker = _two_in_flight()
    args = ((E,), CAPS, 0.001, 6e4, 0.1)
    peek = tracker.peek_transfer(*args)
    tracker.finish_times(), tracker.concurrency(E, 0.2), tracker.stats()
    assert _solved(tracker, lambda: tracker.admit_transfer(*args)) == (peek, 0)


def test_an_advance_over_predicted_events_solves_nothing():
    tracker, oracle = _two_in_flight(), _two_in_flight(ReferenceTracker)
    # pricing the second flow ran the first one's completion already
    _, cost = _solved(tracker, lambda: tracker.update_caps(0.7, CAPS))
    assert cost == 0
    _, cost = _solved(tracker, lambda: tracker.admit((E,), CAPS, 0.8, 1e4))
    assert cost == 1  # its own add
    tracker.finish_times()
    assert _solved(tracker, tracker.drain) == (None, 0)
    oracle.update_caps(0.7, CAPS), oracle.admit((E,), CAPS, 0.8, 1e4)
    oracle.drain()
    assert tracker.finish_times() == oracle.finish_times()


def test_peeks_at_one_instant_share_one_advance():
    tracker, oracle = FluidTracker(), ReferenceTracker()
    for ledger in (tracker, oracle):  # committed, never predicted
        ledger.admit((E,), CAPS, 0.0, 4e4)
        ledger.admit((E,), CAPS, 0.05, 9e4)
    args = ((E,), CAPS, 0.001, 6e4, 0.7)  # past the first completion
    peeks = [_solved(tracker, lambda: tracker.peek_transfer(*args))
             for _ in range(4)]
    assert {price for price, _ in peeks} == {oracle.peek_transfer(*args)}
    # the completion on the way is solved by the first peek and found by
    # the rest; each adds its flow and runs the one completion before it
    assert [cost for _, cost in peeks] == [3, 2, 2, 2]
    assert _solved(tracker, lambda: tracker.share(E, 0.7)) == (2, 0)
    assert _solved(tracker, lambda: tracker.admit_transfer(*args)) == (
        oracle.admit_transfer(*args), 0)
    assert tracker.finish_times() == oracle.finish_times()


def test_a_lone_peek_keeps_no_branch_and_the_admit_adds_the_flow():
    tracker, oracle = FluidTracker(), ReferenceTracker()
    other = (((1, 2),), {(1, 2): 1e6}, 0.001, 4e4, 0.0)
    tracker.admit_transfer(*other), oracle.admit_transfer(*other)
    args = ((E,), CAPS, 0.001, 6e4, 0.1)
    assert _solved(tracker, lambda: tracker.peek_transfer(
        *args, base_s=0.481)) == (0.481, 0)
    admit, cost = _solved(tracker, lambda: tracker.admit_transfer(
        *args, base_s=0.481))
    assert (admit, cost) == (0.481, 1)  # lone: added, never predicted
    assert oracle.admit_transfer(*args, base_s=0.481) == 0.481
    assert tracker.stats() == oracle.stats()
    again = ((E,), CAPS, 0.001, 2e4, 0.2)
    assert tracker.admit_transfer(*again) == oracle.admit_transfer(*again)
    assert tracker.finish_times() == oracle.finish_times()


# -- what the timeline keeps alive --------------------------------------------
def _live_states(tracker):
    gc.collect()
    kind = type(tracker._head)
    return sum(type(obj) is kind for obj in gc.get_objects())


@pytest.mark.parametrize("move", [
    lambda t: t.admit_transfer((E,), CAPS, 0.001, 1e4, 0.2),
    lambda t: t.update_caps(0.2, {E: 5e5}),
    lambda t: t.drain()])
def test_the_states_behind_the_head_are_collected(move):
    tracker = _two_in_flight()
    tracker.finish_times()  # remember the whole future
    head = weakref.ref(tracker._head)
    future = weakref.ref(tracker._head.after())
    move(tracker)
    assert head() is None
    assert future() is None or future() is tracker._head  # drain ends on it
    assert _live_states(tracker) <= tracker.stats()["active"] + 1


def test_a_spent_peek_and_an_abandoned_branch_are_collected():
    tracker = _two_in_flight()
    args = ((E,), CAPS, 0.001, 6e4, 0.1)
    tracker.peek_transfer(*args)
    abandoned = weakref.ref(tracker._peeked[2])
    tracker.peek_transfer(*args[:3], 7e4, 0.1)  # the last peek only
    assert abandoned() is None
    behind, adopted = (weakref.ref(tracker._head),
                       weakref.ref(tracker._peeked[2]))
    tracker.admit_transfer(*args[:3], 7e4, 0.1)
    assert behind() is None and adopted() is tracker._head
    assert tracker._peeked is None
    tracker.peek_transfer(*args[:3], 5e4, 0.3)
    abandoned = weakref.ref(tracker._peeked[2])
    tracker.update_caps(0.3, {E: 2e6})
    assert abandoned() is None
    assert _live_states(tracker) <= tracker.stats()["active"] + 1


def test_live_states_are_bounded_by_the_flows_in_flight():
    others = _live_states(FluidTracker()) - 1
    tracker = FluidTracker()
    rng = np.random.default_rng(23)
    for i, nbytes in enumerate(rng.uniform(1e3, 4e4, 400)):  # one edge
        tracker.admit((E,), CAPS, 1e-4 * i, float(nbytes))
    in_flight = [400]
    for now in (10.0, 30.0, 50.0, 70.0):  # ... as the burst drains
        assert len(tracker.finish_times()) == 400  # the whole future
        assert 1 < _live_states(tracker) - others <= in_flight[-1] + 1
        tracker.update_caps(now, CAPS)
        in_flight.append(tracker.stats()["active"])
    assert in_flight[0] > in_flight[1] > in_flight[2] > in_flight[3] > 0
    assert in_flight[4] == 0 and _live_states(tracker) - others == 1


def test_ghosts_never_touch_accounting_or_telemetry():
    tel = Telemetry()
    tracker = _two_in_flight(telemetry=tel, record_segments=True)
    before = ledger_state(tracker, tel)
    tracker.peek_transfer((E,), CAPS, 0.001, 6e4, 0.3, tenant="a")
    tracker.peek_transfer((E, (1, 2)), {E: 3e5, (1, 2): 1e6}, 0.001, 0.0,
                          9.0, tenant="a")
    tracker.finish_time(1), tracker.finish_times()
    tracker.concurrency(E, 0.07), tracker.share((1, 0), 5.0)
    assert ledger_state(tracker, tel) == before
    assert tracker.flows_total == 2 and tracker.segments_total == 1
    assert tracker._caps == CAPS  # the peeked capacity was not installed
