"""repro.control: the adaptive control plane (closes the telemetry loop).

A :class:`ControlLoop` observes the serving stack on a periodic
simulated-clock cadence and lets composable controllers retune it
online: cache granularity, batch policy, admission, and cache
precompute.  ``control=None`` (the default anywhere) selects
:data:`NULL_CONTROL`, which never ticks and admits every request.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "controllers": ("AdmissionController", "BatchPolicyController",
                    "CacheGranularityController", "Controller",
                    "PrecomputeScheduler", "TenantFairnessController"),
    "loop": ("ControlAction", "ControlLoop", "ControlSnapshot",
             "NULL_CONTROL"),
})
