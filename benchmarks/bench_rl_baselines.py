"""Appendix — the RL baselines head-to-head.

Sec. 4.3 argues that "traditional RL algorithms such as PPO or DQN give
suboptimal performance" because the goal-conditioned reward is zero
until exploration finds an SLO-satisfying strategy.  This bench measures
SUPREME, its bucketed-sharing variant, GCSL and PPO at a common budget
and prints final reward/compliance.
"""

import pytest

from benchmarks.conftest import full_scale
from repro.devices import desktop_gtx1080, rpi4
from repro.eval import run_training_curves

STEPS = 6_000 if full_scale() else 480
METHODS = ["SUPREME (Ours)", "Murmuration", "GCSL", "PPO"]


@pytest.mark.benchmark(group="rl-baselines")
def test_all_rl_baselines(benchmark):
    histories = benchmark.pedantic(
        lambda: run_training_curves([rpi4(), desktop_gtx1080()],
                                    total_steps=STEPS, eval_every=STEPS,
                                    seed=3, methods=METHODS),
        rounds=1, iterations=1)
    print("\n=== RL baselines at a common budget ===")
    print(f"{'method':<18s}{'reward':>8s}{'compliance':>12s}")
    for name, h in histories.items():
        print(f"{name:<18s}{h.avg_reward[-1]:8.3f}{h.compliance[-1]:12.3f}")
    # the policy-gradient baseline trails the relabeling methods
    assert histories["SUPREME (Ours)"].avg_reward[-1] \
        >= histories["PPO"].avg_reward[-1]
