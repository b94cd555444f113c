"""Library driver for the RL training-curve experiments (Figs. 11/12).

Runs the paper's four training curves — full SUPREME, the intermediate
"Murmuration" variant (bucketed sharing only), GCSL and PPO — or any
roster of those, on a given scenario, under one validation task set,
and returns their
:class:`~repro.rl.common.TrainingHistory` curves; also the SUPREME
component ablation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..devices.profiles import DeviceProfile, desktop_gtx1080, rpi4
from ..nas.search_space import MBV3_SPACE, SearchSpace
from ..rl import (EnvConfig, GCSLConfig, GCSLTrainer, MurmurationEnv,
                  PPOConfig, PPOTrainer, SupremeConfig, SupremeTrainer,
                  TrainingHistory, murmuration_basic_config,
                  satisfiable_mask)

__all__ = ["run_training_curves", "format_training_curves",
           "supreme_ablation"]


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

    trainers = {"SUPREME (Ours)": (SupremeTrainer, SupremeConfig),
                "Murmuration": (SupremeTrainer, murmuration_basic_config),
                "GCSL": (GCSLTrainer, GCSLConfig),
                "PPO": (PPOTrainer, PPOConfig)}
    histories: Dict[str, TrainingHistory] = {}
    for name in roster:
        if name not in trainers:
            raise ValueError(f"unknown method {name!r}")
        trainer, config = trainers[name]
        histories[name] = trainer(env, config(
            total_steps=total_steps, eval_every=eval_every, seed=seed,
        )).train(tasks, mask)
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


#: SUPREME with each of its mechanisms disabled in turn
SUPREME_ABLATIONS = {
    "full": {},
    "no-share": {"share": False},
    "no-prune": {"prune": False},
    "no-mutate": {"mutate": False},
    "no-curriculum": {"curriculum": False},
    "no-epsilon": {"epsilon_start": 0.0, "epsilon_end": 0.0},
}


def supreme_ablation(steps: int = 6_000,
                     ) -> Dict[str, Tuple[float, float, int]]:
    """Each :data:`SUPREME_ABLATIONS` variant trained on the augmented
    pair (seed 7): ``{variant: (final reward, final compliance, replay
    buffer entries)}``."""
    env = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                         EnvConfig(slo_kind="latency"))
    tasks = env.validation_tasks(points=3)
    mask = satisfiable_mask(env, tasks)
    out = {}
    for name, overrides in SUPREME_ABLATIONS.items():
        trainer = SupremeTrainer(env, SupremeConfig(
            total_steps=steps, eval_every=steps, seed=7, **overrides))
        hist = trainer.train(tasks, mask)
        out[name] = (hist.avg_reward[-1], hist.compliance[-1],
                     trainer.buffer.num_entries)
    return out
