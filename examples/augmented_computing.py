#!/usr/bin/env python
"""Augmented-computing scenario (paper Sec. 6): an AR/VR-class headset
(Raspberry Pi stand-in) paired with a GPU desktop.

Trains a SUPREME policy (small budget), then replays a mobility trace —
the user walks away from the access point and back — while serving
inference under a 140 ms latency SLO.  Compares the adaptive RL-driven
system against the best *fixed* model+split baseline chosen for the
initial conditions.

Run:  python examples/augmented_computing.py        (~2 min)
"""

import numpy as np

from repro.baselines import make_baseline
from repro.core import SLO, Murmuration, RLDecisionEngine
from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE
from repro.netsim import (NetworkCondition, TraceConfig, mobility_trace,
                          star_topology)
from repro.rl import EnvConfig, MurmurationEnv, SupremeConfig, SupremeTrainer

SLO_MS = 140.0
TRAIN_STEPS = 600


def train_policy(devices):
    print(f"training SUPREME policy ({TRAIN_STEPS} steps)...")
    env = MurmurationEnv(MBV3_SPACE, devices,
                         EnvConfig(slo_kind="latency", slo_range=(0.05, 0.5)))
    trainer = SupremeTrainer(env, SupremeConfig(
        total_steps=TRAIN_STEPS, eval_every=10 ** 9, seed=0))
    trainer.train(eval_tasks=[], eval_mask=np.zeros(0, dtype=bool))
    return env, trainer.policy


def main() -> None:
    devices = [rpi4(), desktop_gtx1080()]
    env, policy = train_policy(devices)

    start = NetworkCondition((350.0,), (8.0,))
    system = Murmuration(MBV3_SPACE, devices, start,
                         RLDecisionEngine(env, policy),
                         slo=SLO.latency_ms(SLO_MS), seed=1)

    baseline = make_baseline("neurosurgeon", "resnet50")

    trace = mobility_trace(TraceConfig(
        num_remote=1, bw_range=(30.0, 400.0), delay_range=(5.0, 90.0),
        steps=24, seed=2))

    print(f"\n{'t':>3s} {'bw':>6s} {'delay':>6s} | "
          f"{'murmuration':>22s} | {'neurosurgeon+resnet50':>22s}")
    ours_ok = base_ok = 0
    for t, cond in enumerate(trace):
        system.update_condition(cond)
        for _ in range(3):
            system.observed_condition()
        try:
            rec = system.infer()
            ours = f"{rec.latency_ms:6.1f}ms @{rec.accuracy:4.1f}%"
            ours_ok += rec.satisfied
        except RuntimeError:
            ours = "     -- no strategy --"
        out = baseline.evaluate(star_topology(devices, cond),
                                SLO.latency_ms(SLO_MS))
        base = (f"{out.latency_s * 1e3:6.1f}ms @{out.accuracy:4.1f}%"
                if out.satisfied else "     -- misses SLO --")
        base_ok += out.satisfied
        print(f"{t:3d} {cond.bandwidths_mbps[0]:6.0f} "
              f"{cond.delays_ms[0]:6.0f} | {ours:>22s} | {base:>22s}")

    n = len(trace)
    print(f"\nSLO compliance: Murmuration {ours_ok}/{n} "
          f"({100 * ours_ok / n:.0f}%), fixed baseline {base_ok}/{n} "
          f"({100 * base_ok / n:.0f}%)")
    print(f"strategy cache hit rate: {system.cache.hit_rate:.0%}")


if __name__ == "__main__":
    main()
