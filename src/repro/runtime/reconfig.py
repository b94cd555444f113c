"""Model reconfiguration (paper Sec. 5.1 / Fig. 19).

Murmuration keeps the *entire supernet* resident in memory and switches
submodels by flipping the active architecture config — no weight copies,
no disk access.  The alternative (what fixed-model baselines must do
when they change models under a memory budget) reloads weights from
storage.  Both paths are implemented so Fig. 19 can be regenerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..devices.latency import model_switch_time, supernet_reconfig_time
from ..devices.profiles import DeviceProfile
from ..models.graph import ModelGraph
from ..nas.arch import ArchConfig
from ..nas.graph_builder import build_graph
from ..nas.search_space import SearchSpace

if TYPE_CHECKING:
    from ..nas.supernet import Supernet

__all__ = ["SwitchRecord", "ModelReconfig", "FixedModelStore"]


@dataclass(frozen=True)
class SwitchRecord:
    """One model switch with both measured and device-modelled cost."""

    kind: str                  # "supernet" | "reload"
    wall_time_s: float         # measured on this host
    modeled_time_s: float      # projected onto the target device
    model_name: str


class ModelReconfig:
    """In-memory supernet submodel switching."""

    def __init__(self, supernet: Supernet, device: DeviceProfile):
        self.net = supernet
        self.device = device
        self.active_arch: Optional[ArchConfig] = None
        self._active_units: List[int] = []
        self.history: List[SwitchRecord] = []

    def switch(self, arch: ArchConfig) -> SwitchRecord:
        """Activate a submodel: recompute the active-unit view only."""
        t0 = time.perf_counter()
        arch.validate(self.net.space)
        self._active_units = self.net.active_units(arch)
        self.active_arch = arch
        wall = time.perf_counter() - t0
        modeled = supernet_reconfig_time(len(self._active_units), self.device)
        rec = SwitchRecord("supernet", wall, modeled, "murmuration_subnet")
        self.history.append(rec)
        return rec

    @property
    def active_units(self) -> List[int]:
        if self.active_arch is None:
            raise RuntimeError("no submodel active; call switch() first")
        return list(self._active_units)


class FixedModelStore:
    """Baseline model switching: weights must be (re)loaded from storage.

    Models the memory-constrained regime of Fig. 19 — at most
    ``resident_budget`` bytes of weights stay in RAM, so switching to a
    non-resident model pays the full weight-load cost.
    """

    def __init__(self, device: DeviceProfile,
                 resident_budget: Optional[int] = None):
        self.device = device
        self.resident_budget = (resident_budget if resident_budget is not None
                                else device.memory_bytes // 8)
        self._resident: Dict[str, int] = {}  # name -> weight bytes
        self.history: List[SwitchRecord] = []

    def _evict_until_fits(self, need: int) -> None:
        while (sum(self._resident.values()) + need > self.resident_budget
               and self._resident):
            self._resident.pop(next(iter(self._resident)))

    def switch(self, graph: ModelGraph) -> SwitchRecord:
        """Switch to ``graph``; free if already resident, else reload."""
        nbytes = graph.total_weight_bytes
        if graph.name in self._resident:
            modeled = 1e-4  # pointer swap
        else:
            modeled = model_switch_time(graph, self.device, in_memory=False)
            self._evict_until_fits(nbytes)
            self._resident[graph.name] = nbytes
        rec = SwitchRecord("reload", 0.0, modeled, graph.name)
        self.history.append(rec)
        return rec
