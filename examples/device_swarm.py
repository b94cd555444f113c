#!/usr/bin/env python
"""Device-swarm scenario: five Raspberry-Pi-class devices cooperating
on inference (search-and-rescue drones, field sensors, ...).

Part 1 — *real* distributed execution: trains the tiny executable
supernet and runs an actual FDSP-partitioned inference across simulated
Pis through the distributed executor, showing that the partitioned
logits match the monolithic ones and what the partition costs in time.

Part 2 — paper-scale scaling sweep (Fig. 17 flavour): how much latency
an accuracy-constrained deployment saves as the swarm grows.

Run:  python examples/device_swarm.py        (~2 min)
"""

import numpy as np

from repro.core import SLO, SearchDecisionEngine
from repro.devices import rpi4
from repro.nas import (Supernet, SupernetTrainer, SyntheticImageDataset,
                       TrainConfig, build_graph, lattice_archs, max_arch,
                       tiny_space)
from repro.netsim import NetworkCondition, star_topology
from repro.partition import Grid, spatial_front_plan
from repro.runtime import DistributedExecutor
from repro.nas import MBV3_SPACE


def real_partitioned_execution() -> None:
    print("=== Part 1: real FDSP execution on the tiny supernet ===")
    space = tiny_space()
    net = Supernet(space, seed=0)
    ds = SyntheticImageDataset(resolution=32, train_size=256, val_size=64,
                               seed=0, noise=0.45)
    print("training tiny supernet (progressive shrinking)...")
    result = SupernetTrainer(net, ds, TrainConfig(
        warmup_steps=80, steps_per_phase=30, batch_size=16)).train()
    print(f"  val accuracy: max-net {result.val_accuracy['max']:.1f}%, "
          f"min-net {result.val_accuracy['min']:.1f}%")

    cluster = star_topology([rpi4() for _ in range(5)],
                            NetworkCondition((200.0,) * 4, (5.0,) * 4))
    from repro.nas import recalibrate_bn
    arch = max_arch(space)
    recalibrate_bn(net, ds, arch)
    net.eval()
    graph = build_graph(arch, space)
    x, y = ds.val_batch(limit=32)

    executor = DistributedExecutor(net, cluster)
    mono = net.forward_arch(x, arch)
    plan = spatial_front_plan(graph, Grid(2, 2), [1, 2, 3, 4], min_hw=8)
    res = executor.execute(x, arch, plan)

    agree = float((res.logits.argmax(1) == mono.argmax(1)).mean())
    acc = float((res.logits.argmax(1) == y).mean())
    print(f"  2x2 FDSP across 4 remote Pis: latency {res.latency_ms:.1f} ms, "
          f"{res.comm_bytes / 1e3:.0f} kB moved in {res.num_messages} messages")
    print(f"  prediction agreement with monolithic run: {agree:.0%} "
          f"(accuracy {acc:.0%})\n")


def scaling_sweep() -> None:
    print("=== Part 2: swarm scaling at an accuracy SLO (Fig. 17) ===")
    slo = SLO.accuracy(75.0)
    condition_of = lambda n: NetworkCondition((1000.0,) * (n - 1),
                                              (2.0,) * (n - 1))
    base = None
    print(f"{'devices':>8s} {'latency':>10s} {'speedup':>8s} {'accuracy':>9s}")
    for n in (1, 2, 3, 5, 7, 9):
        engine = SearchDecisionEngine(MBV3_SPACE, [rpi4() for _ in range(n)],
                                      archs=lattice_archs(MBV3_SPACE))
        s = engine.decide(slo, condition_of(n)).strategy
        lat = s.expected_latency_s * 1e3
        base = base or lat
        print(f"{n:8d} {lat:8.1f}ms {base / lat:7.2f}x "
              f"{s.expected_accuracy:8.1f}%")


def main() -> None:
    real_partitioned_execution()
    scaling_sweep()


if __name__ == "__main__":
    main()
