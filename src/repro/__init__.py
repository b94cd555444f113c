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
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


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
