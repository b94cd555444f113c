"""``repro.sim`` — the discrete-event simulation core.

One shared :class:`~repro.runtime.clock.SimulatedClock` and an
:class:`EventLoop` of timestamped callbacks fired in ``(time, seq)``
order.  Its one source, :func:`schedule_ingress_trace`, steps a shared
uplink's capacity at its true instants; conditions, faults and control
ticks change at request boundaries (see DESIGN.md, "Event core").
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "events": ("EventLoop", "schedule_ingress_trace"),
})
