"""Baseline method registry.

Every evaluation figure compares Murmuration against "framework + model"
combinations (e.g. ``Neurosurgeon + ResNet50``).  A
:class:`BaselineMethod` closes over one such combination and produces a
:class:`BaselineOutcome` for any cluster/SLO — the common currency of
the figure drivers in :mod:`repro.eval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.slo import SLO
from ..models.graph import ModelGraph
from ..models.zoo import get_model
from ..netsim.mesh import MeshCluster
from .adcnn import adcnn_plan
from .neurosurgeon import neurosurgeon_plan

__all__ = ["BaselineOutcome", "BaselineMethod", "AUGMENTED_BASELINES",
           "SWARM_BASELINES", "make_baseline"]


@dataclass(frozen=True)
class BaselineOutcome:
    latency_s: float
    accuracy: float
    satisfied: bool


@dataclass(frozen=True)
class BaselineMethod:
    """A named (framework, fixed model) baseline."""

    name: str
    framework: str        # "neurosurgeon" | "adcnn"
    model_name: str

    def evaluate(self, cluster: MeshCluster, slo: Optional[SLO] = None,
                 ) -> BaselineOutcome:
        graph = get_model(self.model_name)
        if self.framework == "neurosurgeon":
            # Neurosurgeon targets a single (the best) remote device.
            best = None
            for remote in range(1, cluster.num_devices):
                r = neurosurgeon_plan(graph, cluster, remote=remote)
                if best is None or r.latency_s < best.latency_s:
                    best = r
            latency, accuracy = best.latency_s, best.accuracy
        elif self.framework == "adcnn":
            r = adcnn_plan(graph, cluster)
            latency, accuracy = r.latency_s, r.accuracy
        else:  # pragma: no cover - registry is closed
            raise ValueError(f"unknown framework {self.framework!r}")
        ok = slo.satisfied_by(latency, accuracy) if slo is not None else True
        return BaselineOutcome(latency, accuracy, ok)


def make_baseline(framework: str, model_name: str) -> BaselineMethod:
    pretty_model = {
        "mobilenet_v3_large": "MobileNetV3",
        "resnet50": "ResNet50",
        "inception_v3": "Inception",
        "densenet161": "DenseNet161",
        "resnext101_32x8d": "ResNeXt101",
    }[model_name]
    pretty_fw = {"neurosurgeon": "Neurosurgeon", "adcnn": "ADCNN"}[framework]
    return BaselineMethod(f"{pretty_fw} + {pretty_model}", framework,
                          model_name)


#: Fig. 13 / 15 / 16a baselines (augmented computing scenario).
AUGMENTED_BASELINES: List[BaselineMethod] = [
    make_baseline("neurosurgeon", "mobilenet_v3_large"),
    make_baseline("neurosurgeon", "resnet50"),
    make_baseline("neurosurgeon", "inception_v3"),
    make_baseline("neurosurgeon", "densenet161"),
    make_baseline("neurosurgeon", "resnext101_32x8d"),
    make_baseline("adcnn", "mobilenet_v3_large"),
    make_baseline("adcnn", "resnet50"),
]

#: Fig. 14 / 16b baselines (device swarm scenario).
SWARM_BASELINES: List[BaselineMethod] = [
    make_baseline("adcnn", "mobilenet_v3_large"),
    make_baseline("adcnn", "resnet50"),
    make_baseline("adcnn", "densenet161"),
    make_baseline("adcnn", "resnext101_32x8d"),
    make_baseline("neurosurgeon", "mobilenet_v3_large"),
    make_baseline("neurosurgeon", "resnet50"),
]
