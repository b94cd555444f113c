"""repro.control: the adaptive control plane (closes the telemetry loop).

A :class:`ControlLoop` observes the serving stack on a periodic
simulated-clock cadence and lets composable controllers retune it
online: cache granularity, batch policy, admission, and cache
precompute.  ``control=None`` (the default anywhere) selects
:data:`NULL_CONTROL`, which never ticks and admits every request.
"""

from .controllers import (AdmissionController, BatchPolicyController,
                          CacheGranularityController, Controller,
                          PrecomputeScheduler, TenantFairnessController)
from .loop import NULL_CONTROL, ControlAction, ControlLoop, ControlSnapshot

__all__ = [
    "AdmissionController",
    "BatchPolicyController",
    "CacheGranularityController",
    "Controller",
    "ControlAction",
    "ControlLoop",
    "ControlSnapshot",
    "NULL_CONTROL",
    "PrecomputeScheduler",
    "TenantFairnessController",
]
