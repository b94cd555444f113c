"""Compiled plan pricing: walk a plan once, price it many times.

:func:`~repro.partition.simulate.simulate_latency` interleaves two kinds
of work: the *structure* of an execution (which tile waits on which,
what each tile costs to compute, how many bytes cross which device
pair) and the *pricing* of that structure under one network condition.
Only the link-transfer terms depend on the condition.  When the same
``(graph, plan)`` pair is priced again and again — a decision search
over a fixed candidate set, a cached strategy served per request — the
structural walk is pure repetition.

:func:`compile_plan` does that walk once, exactly as
``simulate_latency`` does it, and records a condition-independent
:class:`PlanProgram`; :func:`price` asks the cluster for the program's
few distinct transfer times and replays the same float operations in
the same order — a chain of tiles on one device as one left fold over
their compute times — so ``price(compile_plan(g, p, devices), cluster) ==
simulate_latency(g, p, cluster).total_s`` holds with ``==`` (DESIGN.md,
"Plan cost model"; ``tests/partition/test_compiled_kernel.py`` is the
differential oracle).  A compile costs most of a simulation, so
callers that price a pair once stay on ``simulate_latency``.

These are the only two plan walkers in ``src/``.  Neither is derived
from the other: ``simulate_latency`` is held to the object-per-tile
walker it replaced (``tests/partition/reference_simulate.py``, every
report attribute), and this module to ``simulate_latency`` (``total_s``
and ``num_transfers``), so a drift in either shows against a fixed
point.  They keep different books because they serve different
callers: ``simulate_latency`` prices one pair once, so it sizes a
block's wire at its first send, takes a one-tile block's FDSP factor as
1.0 and leaves its report's other terms to be derived on read; a
compile is paid once for many prices, so this walk sizes every block
and counts its transfers as it goes.  The sizes and terms are the same.
The per-tile interpreter ``price`` replaced is a third oracle
(``tests/partition/reference_price.py``).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import add
from typing import Dict, List, Sequence, Tuple

from ..devices.profiles import DeviceProfile
from ..models.graph import ModelGraph
from ..nn.quantize import wire_bytes
from .plan import ExecutionPlan
from .simulate import _FP32     # one constant, so the two walks cannot drift
from .spatial import Grid, fdsp_compute_overhead

__all__ = ["PlanProgram", "compile_plan", "price"]

# Arrival steps of one tile, ``(op, k, x)``: ``k`` indexes ``ready`` (0
# is the input, tile g of the walk is g + 1), ``x`` indexes the priced
# transfer table.  A tile's arrival starts at 0.0 before its first step.
# Each wait on ``ready[k]`` has a twin, numbered one higher, for when
# the data also crosses a link (``waits`` in ``compile_plan``).
_READY = 0      # arrival = ready[k]
_SENT = 1       # arrival = ready[k] + t[x]
_MAX_READY = 2  # arrival = max(arrival, ready[k])
_MAX_SENT = 3   # arrival = max(arrival, ready[k] + t[x])
_MAX_SELF = 4   # arrival = max(arrival, arrival + t[x])


class PlanProgram:
    """One ``(graph, plan)`` pair, lowered for ``num_devices`` devices."""

    __slots__ = ("num_devices", "transfers", "tiles", "entries", "compute",
                 "tail", "num_transfers")

    def __init__(self, num_devices: int,
                 transfers: Tuple[Tuple[int, int, float], ...],
                 tiles: Tuple[Tuple[int, tuple], ...],
                 entries: Tuple[Tuple[int, tuple, int, int], ...],
                 compute: Tuple[float, ...],
                 tail: Tuple[Tuple[int, int, int], ...],
                 num_transfers: int):
        self.num_devices = num_devices
        #: the distinct ``(src, dst, nbytes)`` transfers, in first-use
        #: order; pricing asks the cluster for each exactly once
        self.transfers = transfers
        #: ``(device, arrival steps)`` per tile, in execution order
        self.tiles = tiles
        #: ``tiles`` lowered into runs, ``(device, steps, lo, hi)``: one
        #: tile ``lo`` (``hi == lo + 1``) with its arrival steps, or,
        #: with ``steps == ()``, tiles ``lo..hi-1`` each starting when
        #: the one before ends on that device; ``ready[hi]`` is written
        self.entries = entries
        #: nominal ``DeviceProfile.compute_time`` per tile
        self.compute = compute
        #: ``(k, x, delay_device)`` per final tile: ``x < 0`` when the
        #: tile already sits on the output device; ``delay_device`` is
        #: the remote whose one-way delay the logits do not pay, or -1
        self.tail = tail
        #: what ``LatencyReport.num_transfers`` counts (structural)
        self.num_transfers = num_transfers


def compile_plan(graph: ModelGraph, plan: ExecutionPlan,
                 devices: Sequence[DeviceProfile]) -> PlanProgram:
    """Lower ``plan`` over ``graph`` to a :class:`PlanProgram`.

    The walk is ``simulate_latency``'s, block by block and tile by tile:
    the same ``same_grid`` test, the same ``input_bytes`` and K/V share
    per block (sized here up front, there at the first send), the same
    source and peer order, the same compute terms.
    Where that function prices a transfer and adds it to an arrival,
    this one records a table slot and an arrival step; everything read
    from the *cluster's condition* is left symbolic.
    """
    plan.validate_for(graph, len(devices))

    table: Dict[Tuple[int, int, float], int] = {}
    num_transfers = 0

    def transfer(src: int, dst: int, nbytes: float) -> int:
        """Table slot of one priced transfer; -1 when nothing is sent."""
        nonlocal num_transfers
        if src == dst or nbytes <= 0:
            return -1
        num_transfers += 1
        return table.setdefault((src, dst, nbytes), len(table))

    def waits(op: int, k: int, x: int) -> Tuple[int, int, int]:
        """``op`` on ``ready[k]``, sent over slot ``x`` when one is used."""
        return (op + 1, k, x) if x >= 0 else (op, k, x)

    # Input starts on the local device (device 0): ready[0].
    where: List[int] = [0]      # device of ready[k]
    prev: List[int] = [0]       # ready-indices of the previous block's tiles
    prev_grid = Grid(1, 1)
    prev_elements = graph.input_elements
    tiles: List[Tuple[int, tuple]] = []
    compute: List[float] = []

    for block, bp in zip(graph.blocks, plan.block_plans):
        ntiles = bp.grid.ntiles
        fdsp = fdsp_compute_overhead(block.out_hw, bp.grid, halo=block.halo)
        slice_elements = prev_elements / ntiles
        same_grid = (bp.grid == prev_grid and len(prev) == ntiles)
        # A tile's input: its predecessor's slice, or (repartition) an
        # equal share gathered from every previous holder.
        input_bytes = wire_bytes(
            int(slice_elements if same_grid else slice_elements / len(prev)),
            bp.bits)
        new: List[int] = []
        for j in range(ntiles):
            dst = bp.devices[j]
            steps: List[Tuple[int, int, int]] = []
            # --- input arrival ------------------------------------------------
            if same_grid:
                k = prev[j]
                steps.append(waits(
                    _READY, k, transfer(where[k], dst, input_bytes)))
            else:
                for k in prev:
                    steps.append(waits(
                        _MAX_READY, k, transfer(where[k], dst, input_bytes)))
            # --- peer synchronization (attention K/V exchange) -----------------
            if ntiles > 1 and block.sync_elements > 0:
                share = wire_bytes(
                    int(block.sync_elements / ntiles), bp.bits)
                for k in range(ntiles):
                    if k == j or bp.devices[k] == dst:
                        continue
                    x = transfer(bp.devices[k], dst, share)
                    if same_grid:
                        steps.append(waits(_MAX_READY, prev[k], x))
                    elif x >= 0:
                        # the peer is ready when this tile's input is
                        steps.append((_MAX_SELF, -1, x))
            # --- compute -------------------------------------------------------
            dev = devices[dst]
            flops = block.flops * fdsp / ntiles
            if block.depthwise:
                flops *= dev.depthwise_penalty
            mem = (_FP32 * (prev_elements + block.out_elements) * fdsp / ntiles
                   + block.weight_bytes)
            compute.append(dev.compute_time(flops, mem))
            tiles.append((dst, tuple(steps)))
            new.append(len(where))
            where.append(dst)
        prev = new
        prev_grid = bp.grid
        prev_elements = block.out_elements

    # Logits back to the output device (see simulate_latency: the
    # response crosses the unshaped direction, so the delay comes off).
    out_dev = plan.output_device
    result_bytes = wire_bytes(int(prev_elements / len(prev)), 32)
    tail: List[Tuple[int, int, int]] = []
    for k in prev:
        src = where[k]
        if src == out_dev:
            tail.append((k, -1, -1))
            continue
        num_transfers += 1
        x = table.setdefault((src, out_dev, result_bytes), len(table))
        if src != 0 and out_dev == 0:
            delay_dev = src
        elif src == 0 and out_dev != 0:
            delay_dev = out_dev
        else:
            delay_dev = -1
        tail.append((k, x, delay_dev))

    return PlanProgram(len(devices), tuple(table), tuple(tiles),
                       _lower(tiles, tail), tuple(compute), tuple(tail),
                       num_transfers)


def _lower(tiles: Sequence[Tuple[int, tuple]],
           tail: Sequence[Tuple[int, int, int]]
           ) -> Tuple[Tuple[int, tuple, int, int], ...]:
    """``tiles`` as :attr:`PlanProgram.entries`.

    A tile whose only step is ``ready[g]`` of the tile just before it,
    on its own device (or of the input, before any tile ran), finds
    ``dev_ready[dst] == ready[g]``: that tile wrote both.  So it ends at
    ``ready[g] + compute[g]``, and a run of such tiles skips every
    ``ready`` slot nothing else reads.
    """
    reads = Counter(k for _, steps in tiles for _, k, _ in steps)
    reads.update(k for k, _, _ in tail)
    entries: List[Tuple[int, tuple, int, int]] = []
    for g, (dst, steps) in enumerate(tiles):
        chained = (steps == ((_READY, g, -1),)
                   and (g == 0 or tiles[g - 1][0] == dst))
        if chained and entries and not entries[-1][1] and reads[g] == 1:
            entries[-1] = (dst, (), entries[-1][2], g + 1)
        else:
            entries.append((dst, () if chained else steps, g, g + 1))
    return tuple(entries)


def price(program: PlanProgram, cluster) -> float:
    """``simulate_latency(graph, plan, cluster).total_s`` for the pair
    ``program`` was compiled from, bit for bit.

    Link state is read from ``cluster`` here, never at compile time: a
    program outlives any one condition, and a mesh reroutes.
    """
    if cluster.num_devices != program.num_devices:
        raise ValueError(
            f"program compiled for {program.num_devices} devices priced "
            f"on a cluster of {cluster.num_devices}")
    transfer_time = cluster.transfer_time
    t = [transfer_time(src, dst, nbytes)
         for src, dst, nbytes in program.transfers]
    compute = program.compute

    ready = [0.0] * (len(compute) + 1)
    dev_ready = [0.0] * program.num_devices
    for dst, steps, lo, hi in program.entries:
        if steps:
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
            end = max(dev_ready[dst], arrival) + compute[lo]
        else:
            # the tiles' own sequential adds, so never sum() (compensated
            # on Python >= 3.12) and never math.fsum (one rounding)
            end = reduce(add, compute[lo:hi], ready[lo])
        dev_ready[dst] = ready[hi] = end

    done = 0.0
    for k, x, delay_dev in program.tail:
        if x < 0:
            done = max(done, ready[k])
            continue
        delay_s = (cluster.delay_to(delay_dev) / 1e3
                   if delay_dev >= 0 else 0.0)
        done = max(done, ready[k] + max(t[x] - delay_s, 0.0))
    return done
