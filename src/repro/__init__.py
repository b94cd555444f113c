"""Murmuration reproduction: SLO-aware distributed DNN inference with
on-the-fly model adaptation (ICPP '24).

Public API tour
---------------
* :mod:`repro.core` — the :class:`~repro.core.Murmuration` facade, SLO
  API, decision engines and strategy cache.
* :mod:`repro.nas` — one-shot NAS: search space, executable supernet,
  progressive-shrinking training, accuracy models, evolutionary search.
* :mod:`repro.rl` — the goal-conditioned environment, the LSTM policy,
  SUPREME and the GCSL/PPO baselines.
* :mod:`repro.partition` — FDSP spatial tiling, execution plans and the
  distributed-latency simulator.
* :mod:`repro.devices` / :mod:`repro.netsim` — calibrated device
  profiles, links, condition grids, traces and monitoring.
* :mod:`repro.baselines` — Neurosurgeon and ADCNN on the fixed-model zoo.
* :mod:`repro.eval` — per-figure experiment drivers.

Every package here resolves its exports on first use (PEP 562): its
``__init__`` hands :func:`_lazy_exports` a ``{submodule: names}`` table,
so importing a package imports none of its submodules, and the first
``pkg.name`` (or ``from pkg import name``) imports the one submodule
that defines ``name`` and caches the object in the package's globals.
A serving process never loads the NN, RL-training or figure layers it
does not call.

A numeric setting states its valid range once, in its annotation
(``slo_ms: Annotated[float, Finite, Positive]``), and
:func:`check_fields` is the one checker that enforces it (DESIGN.md,
"Declared domains").
"""

from __future__ import annotations

import math
import sys
import typing
from importlib import import_module
from numbers import Integral
from operator import add
from typing import (Annotated, Callable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)


def _lazy_exports(namespace: dict, table: Mapping[str, Sequence[str]]
                  ) -> Tuple[List[str], Callable, Callable]:
    """``(__all__, __getattr__, __dir__)`` for the package whose globals
    are ``namespace``; ``__all__`` lists the table's names in order.

    A name that is also its submodule's name is the submodule, unless
    the submodule defines it (``repro.nn.functional`` is the module,
    ``repro.nn.quantize`` the function).
    """
    package = namespace["__name__"]
    home = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            sub = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = import_module(f"{package}.{sub}")
        value = (module if name == sub and not hasattr(module, name)
                 else getattr(module, name))
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "core": ("Murmuration", "SLO", "RLDecisionEngine", "SearchDecisionEngine"),
})
__all__.append("__version__")


# -- declared domains ------------------------------------------------------

class Domain(NamedTuple):
    """One marker: what a valid value is (``rule``) and its ``test`` — a
    comparison NaN fails, so no declared field admits NaN."""

    rule: str
    test: Callable[[object], bool]


Finite = Domain("finite", lambda v: -math.inf < v < math.inf)
Positive = Domain("positive", lambda v: v > 0)
NonNegative = Domain("non-negative", lambda v: v >= 0)
Probability = Domain("a probability", lambda v: 0 <= v <= 1)
#: a cadence or a step of simulated time
Period = Domain("positive and finite", lambda v: 0 < v < math.inf)


def IntAtLeast(n: int) -> Domain:
    """An int (not a bool, not a float) from ``n`` to ``sys.maxsize``."""
    top = sys.maxsize
    return Domain(f"an int in [{n}, sys.maxsize]", lambda v: (
        type(v) is int or isinstance(v, Integral) and type(v) is not bool)
        and n <= v <= top)


def Bound(lo: float = -math.inf, hi: float = math.inf, *,
          lo_open: bool = False, hi_open: bool = False) -> Domain:
    """The range a site needs beyond the named markers."""
    return Domain(
        f"in {'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}",
        {(False, False): lambda v: lo <= v <= hi,
         (False, True): lambda v: lo <= v < hi,
         (True, False): lambda v: lo < v <= hi,
         (True, True): lambda v: lo < v < hi}[lo_open, hi_open])


def _declarations(owner) -> Tuple[tuple, ...]:
    """``(name, test, (rule, one, items))`` per declared field of a class
    (or argument of a function).  ``test`` takes the whole value; ``one``
    an element, which ``items`` (None for a number) yields with its key:
    a container checks each element, an ``Optional`` admits ``None``."""
    checks = []
    for name, hint in typing.get_type_hints(owner,
                                            include_extras=True).items():
        optional = typing.get_origin(hint) is typing.Union
        if optional:
            hint = next(a for a in typing.get_args(hint)
                        if a is not type(None))
        if typing.get_origin(hint) is not Annotated:
            continue
        base, *marks = typing.get_args(hint)
        domains = [m for m in marks if isinstance(m, Domain)]
        if not domains:
            continue
        test = one = domains[0].test
        for more in domains[1:]:
            test = one = lambda v, a=one, b=more.test: a(v) and b(v)
        # a parameterised container's marks hold for each element; a
        # number's, or a bare type's (``Annotated[tuple, ...]``), for the
        # whole value
        kind = typing.get_origin(base)
        items = (None if kind is None
                 else dict.items if kind is dict else enumerate)
        if items is not None:
            test = lambda v, one=one, items=items: all(
                one(x) for _, x in items(v))
        if optional:
            test = lambda v, whole=test: v is None or whole(v)
        # one reading whatever the marker order: "positive and finite",
        # "finite and non-negative"
        rule = " and ".join(sorted(
            (d.rule for d in domains),
            key=lambda r: {"positive": 0, "finite": 1}.get(r, 2)))
        checks.append((name, test, (rule, one, items)))
    return tuple(checks)


#: class or function -> its resolved declarations, filled on first check
_DECLARED: dict = {}


def check_fields(owner, values: Optional[Mapping[str, object]] = None
                 ) -> None:
    """Raise ``ValueError("<Class>.<field> must be <rule>, got <value>")``
    for the first declared field of ``owner`` outside its domain (a
    container's first bad element: ``<Class>.<field>[<key>]``).

    ``owner`` is an instance whose class declares the fields or, with
    ``values`` (a function's ``locals()``), a function whose annotated
    arguments are checked.  Declarations resolve on the first check.
    """
    key = type(owner) if values is None else owner
    try:
        checks = _DECLARED[key]
    except KeyError:
        checks = _DECLARED[key] = _declarations(key)
    for name, test, why in checks:
        value = getattr(owner, name) if values is None else values[name]
        if not test(value):
            rule, one, items = why
            if items is not None:
                name, value = next((f"{name}[{at!r}]", x)
                                   for at, x in items(value) if not one(x))
            raise ValueError(f"{key.__qualname__}.{name} must be {rule}, "
                             f"got {value!r}")


class Checked:
    """Base of a dataclass whose ``__post_init__`` is :func:`check_fields`."""

    def __post_init__(self):
        check_fields(self)


# -- NumPy's float64 mean, bit for bit ----------------------------------------

def _pairwise_sum(values: List[float]) -> float:
    """NumPy's float64 ``pairwise_sum`` (``loops_utils.h.src``), step for
    step: one loop under 8 values, 8 accumulators to 128, halves above."""
    n = len(values)
    if n < 8:
        s = -0.0
        for v in values:
            s += v
        return s
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    r = values[:8]
    rest = n - n % 8
    for i in range(8, rest, 8):
        r = list(map(add, r, values[i:i + 8]))
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[rest:]:
        s += v
    return s


def _mean(values: List[float]) -> float:
    """``float(np.mean(values))`` bit for bit, without NumPy's dispatch:
    ``np.add.reduce`` adds the pairwise sum to its identity 0.0.  The
    accuracy model is its one user (``tests/nas/test_graph_reference.py``
    fuzzes it against ``np.mean``)."""
    return (0.0 + _pairwise_sum(values)) / len(values)
