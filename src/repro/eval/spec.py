"""What a serving scenario declares; :mod:`repro.eval.runner` runs it.

Every scenario here is the same experiment: serve one seeded request
stream through several *variants* of the runtime over the identical
dynamic world and compare SLO compliance.  A scenario module therefore
states only what is specific to it, as one :class:`Scenario`; engine
construction, decision-cost pinning, the facade, the server, recording
and reporting are written once in the runner.  :class:`Claim` rows and
:func:`compare` serve the figures (:mod:`repro.eval.figures`) too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import (Annotated, Any, Callable, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from .. import Domain, Finite, IntAtLeast, Positive, check_fields
from ..core.decision import DecisionRecord
from ..core.slo import SLO
from ..netsim.topology import NetworkCondition

__all__ = ["Claim", "ClaimResult", "OPS", "PinnedTimeEngine", "Scenario",
           "StaticEngine", "World", "check_names", "compare"]

# -- the domains of the fields every scenario config carries ---------------

NumRequests = Annotated[int, IntAtLeast(1)]
SloMs = Annotated[float, Finite, Positive]
Seed = Annotated[int, IntAtLeast(0)]
RandomArchs = Annotated[int, IntAtLeast(0)]
#: fixed per-miss decision seconds (an hour at most, so simulated time
#: stays finite); None charges the measured wall clock and forfeits
#: byte-stable recordings
DecisionTime = Optional[Annotated[float, Domain(
    "finite, non-negative and at most 3600 s", lambda v: 0.0 <= v <= 3600.0)]]
#: an arrival rate, a rate multiplier or a link bandwidth
Rate = Annotated[float, Finite, Positive]
#: a request payload, a terabyte at most so its bytes stay finite
PayloadKb = Annotated[float, Domain("finite, non-negative and at most 1e9 kB",
                                    lambda v: 0.0 <= v <= 1e9)]
#: an overload burst ``(t0, t1)`` in simulated seconds (a bare ``tuple``,
#: so the domain tests the pair, not each number)
BurstWindow = Annotated[tuple, Domain(
    "(t0, t1) with 0 <= t0 < t1 < inf",
    lambda w: len(w) == 2 and 0 <= w[0] < w[1] < math.inf)]


class PinnedTimeEngine:
    """Price every engine decision at a fixed cost.

    The decision engine's measured wall clock depends on host hardware;
    pinning it makes a whole run a pure function of its seeds (and its
    recording byte-stable).  Cache hits never reach the engine (they
    cost zero decision time), so only genuine misses are re-priced.
    """

    decision_time_s: DecisionTime

    def __init__(self, inner, decision_time_s: float):
        self._inner = inner
        self.decision_time_s = decision_time_s
        check_fields(self)

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        rec = self._inner.decide(slo, condition)
        return replace(rec, decision_time_s=self.decision_time_s)


class StaticEngine:
    """Decide once at nominal conditions, serve that strategy forever."""

    def __init__(self, inner, nominal: NetworkCondition):
        self._inner = inner
        self._nominal = nominal
        self._record: Optional[DecisionRecord] = None

    def decide(self, slo: SLO, condition: NetworkCondition) -> DecisionRecord:
        if self._record is None:
            first = self._inner.decide(slo, self._nominal)
            self._record = DecisionRecord(first.strategy, 0.0, "static")
        return self._record


@dataclass
class World:
    """One variant's world.

    A scenario's ``world`` function fills in the parts specific to it;
    a part left at its default is simply absent from the run (no
    faults, no control plane, a FIFO server, Poisson arrivals, a static
    network ...).  :func:`~repro.eval.runner.build_world` assembles the
    decision engine, the facade and the server around the parts and
    stores them, with what it was asked for, in the trailing fields.
    """

    devices: Sequence[Any]
    arrival_rate_hz: float
    #: nominal star network; None when ``cluster`` carries the topology
    condition: Optional[NetworkCondition] = None
    cluster: Any = None
    #: freeze the first nominal decision (:class:`StaticEngine`)
    static: bool = False
    faults: Any = None
    resilience: Any = None
    control: Any = None
    #: a ``BatchPolicy`` selects the batching server; None serves FIFO
    policy: Any = None
    arrival_process: Optional[Callable] = None
    ingress: Any = None
    #: the flow tracker pricing ``ingress`` (kept for the report)
    tracker: Any = None
    #: an ``EventLoop``; the facade is built on its clock
    events: Any = None
    trace: Optional[Sequence[NetworkCondition]] = None
    trace_period_s: float = 1.0
    tenants: Optional[Sequence[str]] = None
    # -- filled in by build_world ------------------------------------
    scenario: str = ""
    variant: str = ""
    cfg: Any = None
    system: Any = None
    server: Any = None
    #: the ``RunRecorder`` capturing the run (``record=True``), else None
    recorder: Any = None


class Claim(NamedTuple):
    """One line of an acceptance: ``left op right + margin``.

    A scenario cell is ``(variant, column, *overrides)``: that variant's
    value under a ``repro.eval.runner.COLUMNS`` header, read in the
    world the ``FIELD=VALUE`` overrides select (none: the config under
    test).  A figure cell is the name of one of its
    :class:`~repro.eval.figures.Figure`'s measures.  ``right`` is a cell
    or a constant; ``op`` is a key of ``OPS``.
    """

    text: str
    left: Union[Tuple[str, ...], str]
    op: str
    right: Union[Tuple[str, ...], str, float]
    margin: float = 0.0


#: the comparisons a claim may state
OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le, "==": operator.eq}


class ClaimResult(NamedTuple):
    claim: Claim
    holds: bool
    #: the two cell values compared (``right`` before the margin)
    left: Any
    right: Any

    def __str__(self) -> str:
        left, right = ("not available" if v is None else f"{v:g}"
                       for v in (self.left, self.right))
        margin = f" {self.claim.margin:+g}" if self.claim.margin else ""
        return (f"{'PASS' if self.holds else 'FAIL'}  {self.claim.text}: "
                f"{left} {self.claim.op} {right}{margin}")


def check_names(owner: str, claim: Claim,
                named: Iterable[Tuple[str, str, Any]]) -> None:
    """Raise ``ValueError`` unless the claim's operator and each
    ``(kind, name, known)`` it names exist."""
    for kind, name, known in [("operator", claim.op, OPS), *named]:
        if name not in known:
            raise ValueError(
                f"{owner}: claim {claim.text!r} names no {kind} "
                f"{name!r}; known: {', '.join(known)}")


def compare(claims: Sequence[Claim],
            value: Callable[[Any], Any]) -> List[ClaimResult]:
    """Each claim with its two cells read by ``value``; a cell that
    reads None (not available) fails its claim."""
    results = []
    for claim in claims:
        left, right = value(claim.left), value(claim.right)
        holds = (left is not None and right is not None
                 and OPS[claim.op](left, right + claim.margin))
        results.append(ClaimResult(claim, holds, left, right))
    return results


@dataclass(frozen=True)
class Scenario:
    """One scenario's declaration."""

    #: registry key and the ``scenario`` of its recording headers
    name: str
    #: frozen config dataclass (its ``asdict`` is the recording header's
    #: ``config``); must carry ``num_requests``, ``slo_ms``, ``seed``,
    #: ``n_random_archs`` and ``decision_time_s``
    config: type
    #: ``world(cfg, telemetry, **knobs) -> World``
    world: Callable[..., World]
    #: variant name -> knob overrides for ``world``, in report order
    variants: Mapping[str, Dict[str, Any]]
    #: the one variant that receives the caller's telemetry — a registry
    #: shared across variants would conflate their counters
    instrumented: Optional[str]
    #: table columns, by name (``repro.eval.runner.COLUMNS``)
    columns: Tuple[str, ...]
    #: what the variants must show against each other
    #: (``repro.eval.runner.check_claims``)
    claims: Tuple[Claim, ...] = ()
    #: the CI-sized world, as ``FIELD=VALUE`` overrides of ``config()``
    smoke: Tuple[str, ...] = ()
