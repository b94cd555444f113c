"""The per-tile price interpreter that ``price`` replaced, as an oracle.

``repro.partition.compiled.price`` replays a program's lowered runs: a
chain of tiles that each start when the tile before them ends is one
left fold over their compute times.  This module keeps the walker it
replaced — one arrival-step loop per tile, every tile's ``ready`` slot
written — verbatim, so ``test_compiled_kernel.py`` can hold the live
kernel ``==`` this one and both ``==`` ``simulate_latency``.  Never
edit it to follow the kernel; it is the fixed point.
"""

from repro.partition.compiled import (_MAX_READY, _MAX_SENT, _READY, _SENT,
                                      PlanProgram)


def reference_price(program: PlanProgram, cluster) -> float:
    """``price`` as one interpreted arrival loop per tile."""
    if cluster.num_devices != program.num_devices:
        raise ValueError(
            f"program compiled for {program.num_devices} devices priced "
            f"on a cluster of {cluster.num_devices}")
    transfer_time = cluster.transfer_time
    t = [transfer_time(src, dst, nbytes)
         for src, dst, nbytes in program.transfers]
    compute = program.compute
    compute_scale = getattr(cluster, "compute_scale", None)
    if compute_scale:
        compute = [c * compute_scale.get(dst, 1.0)
                   for c, (dst, _) in zip(compute, program.tiles)]

    ready = [0.0]
    dev_ready = [0.0] * program.num_devices
    for (dst, steps), t_compute in zip(program.tiles, compute):
        arrival = 0.0
        for op, k, x in steps:
            if op == _READY:
                arrival = ready[k]
            elif op == _SENT:
                arrival = ready[k] + t[x]
            elif op == _MAX_READY:
                arrival = max(arrival, ready[k])
            elif op == _MAX_SENT:
                arrival = max(arrival, ready[k] + t[x])
            else:
                arrival = max(arrival, arrival + t[x])
        end = max(dev_ready[dst], arrival) + t_compute
        dev_ready[dst] = end
        ready.append(end)

    done = 0.0
    for k, x, delay_dev in program.tail:
        if x < 0:
            done = max(done, ready[k])
            continue
        delay_s = (cluster.link_to(delay_dev).delay_ms / 1e3
                   if delay_dev >= 0 else 0.0)
        done = max(done, ready[k] + max(t[x] - delay_s, 0.0))
    return done
