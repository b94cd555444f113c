"""repro.faults — fault injection, retry/failover, graceful degradation.

The robustness layer for the distributed runtime.  Four pieces:

* :mod:`~repro.faults.schedule` — timed, immutable fault events
  (crashes, link degradation, link failures and flaps, correlated
  failure domains) in a :class:`FaultSchedule`, plus seeded
  generators;
* :mod:`~repro.faults.injector` — :class:`FaultInjector`, which applies
  the schedule to the simulated world and answers the data plane's
  ground-truth queries (the decision layer never peeks);
* :mod:`~repro.faults.health` — :class:`DeviceHealth`, per-device
  circuit breakers built from the runtime's own delivery outcomes;
* :mod:`~repro.faults.resilience` — the one retry schedule (timeout +
  exponential backoff), :class:`ResilienceConfig` (failover/degradation
  switches), and the transport/executor error types.

``faults=None`` (the default) is :data:`NULL_FAULTS`, where nothing fails
and the breakers are :data:`NULL_HEALTH`.  To inject faults::

    from repro.faults import (DeviceCrash, FaultInjector, FaultSchedule,
                              ResilienceConfig)
    schedule = FaultSchedule([DeviceCrash(2.0, 5.0, device=1)])
    system = Murmuration(..., faults=FaultInjector(schedule),
                         resilience=ResilienceConfig())
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "schedule": ("FaultEvent", "DeviceCrash", "LinkDegradation",
                 "LinkFailure", "LinkFlap", "CorrelatedFailure",
                 "FaultSchedule", "crash_and_recover_schedule"),
    "injector": ("FaultInjector", "NULL_FAULTS"),
    "health": ("DeviceHealth", "NULL_HEALTH", "CircuitState"),
    "resilience": ("ResilienceConfig", "TransportError",
                   "NoRouteError", "NoStrategyError",
                   "DeviceUnreachableError", "ExecutionFailedError"),
})
