"""``repro.sim`` — the discrete-event simulation core.

One shared :class:`~repro.runtime.clock.SimulatedClock`, an
:class:`EventLoop` of timestamped :class:`Event` objects with
deterministic tie-breaking, and event sources that turn condition
traces, fault schedules, control cadences, and capacity traces into
events that fire at their true instants (see DESIGN.md, "Event core").
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "events": ("Event", "EventLoop"),
    "sources": ("PRIORITY_WORLD", "PRIORITY_OBSERVER",
                "schedule_condition_trace", "schedule_fault_transitions",
                "schedule_control_ticks", "schedule_ingress_trace",
                "schedule_monitor_caps"),
})
