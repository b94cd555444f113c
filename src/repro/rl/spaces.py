"""Decision schedule of the sequential model-selection/partitioning MDP.

Each episode walks a fixed schedule of typed decisions (paper Sec. 4.2.1):
one resolution choice, then per stage — depth, kernel, expansion, spatial
grid, wire bits, and one device choice per tile slot — and finally the
aggregation (head) device.  The schedule is identical for every episode
of a given scenario, which lets rollouts be batched through the LSTM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, List, Sequence, Tuple

from .. import IntAtLeast, check_fields
from ..nas.search_space import SearchSpace

__all__ = ["ActionStep", "ACTION_TYPES", "build_schedule"]

#: Canonical ordering of action types (index = step-type id fed to policy).
ACTION_TYPES: Tuple[str, ...] = (
    "resolution", "depth", "kernel", "expand", "grid", "bits",
    "device", "head_device",
)


@dataclass(frozen=True)
class ActionStep:
    """One decision in the schedule.

    ``stage`` is the stage index (-1 for global decisions); ``slot`` is
    the tile index for device decisions (and the block index when a
    fine-grained schedule is used).
    """

    kind: str
    n_choices: Annotated[int, IntAtLeast(1)]
    stage: Annotated[int, IntAtLeast(-1)] = -1
    slot: Annotated[int, IntAtLeast(0)] = 0

    def __post_init__(self):
        if self.kind not in ACTION_TYPES:
            raise ValueError(f"unknown action kind {self.kind!r}")
        check_fields(self)

    @property
    def kind_id(self) -> int:
        return ACTION_TYPES.index(self.kind)


def build_schedule(space: SearchSpace, num_devices: int,
                   max_tiles: int = 4) -> List[ActionStep]:
    """Coarse (per-stage) decision schedule.

    Per-stage rather than per-block decisions keep episodes short
    (1 + 6*stages + tiles*stages + 1 steps) while retaining the paper's
    joint model/partition action structure; all blocks of a stage share
    their settings.  The number of *device* slots is fixed at
    ``max_tiles`` so episodes have constant length — slots beyond the
    chosen grid's tile count are ignored by the environment.
    """
    steps: List[ActionStep] = [
        ActionStep("resolution", len(space.resolution_options))]
    for s in range(space.num_stages):
        steps.append(ActionStep("depth", len(space.depth_options), stage=s))
        steps.append(ActionStep("kernel", len(space.kernel_options), stage=s))
        steps.append(ActionStep("expand", len(space.expand_options), stage=s))
        steps.append(ActionStep("grid", len(space.grid_options), stage=s))
        steps.append(ActionStep("bits", len(space.bits_options), stage=s))
        for t in range(max_tiles):
            steps.append(ActionStep("device", num_devices, stage=s, slot=t))
    steps.append(ActionStep("head_device", num_devices))
    return steps
