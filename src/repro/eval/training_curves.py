"""Library driver for the RL training-curve experiments (Figs. 11/12).

Runs the paper's four training curves — full SUPREME, the intermediate
"Murmuration" variant (bucketed sharing only), GCSL and PPO — or any
roster of those, on a given scenario, under one validation task set,
and returns their
:class:`~repro.rl.common.TrainingHistory` curves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..devices.profiles import DeviceProfile
from ..nas.search_space import MBV3_SPACE, SearchSpace
from ..rl import (EnvConfig, GCSLConfig, GCSLTrainer, MurmurationEnv,
                  PPOConfig, PPOTrainer, SupremeConfig, SupremeTrainer,
                  TrainingHistory, murmuration_basic_config,
                  satisfiable_mask)

__all__ = ["run_training_curves", "format_training_curves"]


def run_training_curves(devices: Sequence[DeviceProfile],
                        total_steps: int = 800, eval_every: int = 200,
                        seed: int = 0, space: SearchSpace = MBV3_SPACE,
                        slo_range=(0.05, 0.5), eval_points: int = 3,
                        methods: Optional[Sequence[str]] = None,
                        ) -> Dict[str, TrainingHistory]:
    """Train every requested method on one scenario.

    ``methods`` defaults to the paper's Fig. 11 roster; pass a subset
    (e.g. ``["SUPREME (Ours)", "PPO"]``) to save time.
    """
    env = MurmurationEnv(space, list(devices),
                         EnvConfig(slo_kind="latency", slo_range=slo_range))
    tasks = env.validation_tasks(points=eval_points)
    mask = satisfiable_mask(env, tasks)

    roster = list(methods) if methods is not None else [
        "SUPREME (Ours)", "Murmuration", "GCSL", "PPO"]

    histories: Dict[str, TrainingHistory] = {}
    for name in roster:
        if name == "SUPREME (Ours)":
            trainer = SupremeTrainer(env, SupremeConfig(
                total_steps=total_steps, eval_every=eval_every, seed=seed))
        elif name == "Murmuration":
            trainer = SupremeTrainer(env, murmuration_basic_config(
                total_steps=total_steps, eval_every=eval_every, seed=seed))
        elif name == "GCSL":
            trainer = GCSLTrainer(env, GCSLConfig(
                total_steps=total_steps, eval_every=eval_every, seed=seed))
        elif name == "PPO":
            trainer = PPOTrainer(env, PPOConfig(
                total_steps=total_steps, eval_every=eval_every, seed=seed))
        else:
            raise ValueError(f"unknown method {name!r}")
        histories[name] = trainer.train(tasks, mask)
    return histories


def format_training_curves(histories: Dict[str, TrainingHistory]) -> str:
    """Render reward and compliance curves as two aligned tables."""
    any_hist = next(iter(histories.values()))
    steps = any_hist.steps
    lines = ["-- average validation reward (Fig. 11) --"]
    header = f"{'method':<18s}" + "".join(f"{s:>8d}" for s in steps)
    lines.append(header)
    for name, h in histories.items():
        lines.append(f"{name:<18s}" + "".join(f"{r:8.3f}"
                                              for r in h.avg_reward))
    lines.append("-- normalized SLO compliance rate (Fig. 12) --")
    lines.append(header)
    for name, h in histories.items():
        lines.append(f"{name:<18s}" + "".join(f"{c:8.3f}"
                                              for c in h.compliance))
    return "\n".join(lines)
