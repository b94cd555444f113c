"""Test worlds whose condition steps and control ticks fire as events.

Serving applies a condition trace and the control cadence at request
boundaries; these two helpers put them on an :class:`EventLoop`
instead, so a frozen world can pin the loop's firing order.  Schedule
the condition steps before the ticks: at a shared instant the world
changes first and the tick observes it.
"""


def schedule_condition_steps(loop, system, trace, period_s, recorder=None):
    """One event per trace-cell change: the facade's world becomes the
    cell, the cluster's fluid flows re-converge, the recorder logs it."""
    def fire(t, idx):
        system.update_condition(trace[idx])
        system.cluster.update_fluid_caps(t)
        if recorder is not None:
            recorder.on_condition(t, idx, trace[idx])

    for idx in range(len(trace)):
        if idx == 0 or trace[idx] != trace[idx - 1]:
            loop.schedule(idx * period_s, lambda t, i=idx: fire(t, i))


def schedule_ticks(loop, control, horizon_s):
    """A tick at every ``k * control.period_s`` up to ``horizon_s``."""
    k = 1
    while k * control.period_s <= horizon_s:
        loop.schedule(k * control.period_s, control.maybe_tick)
        k += 1
