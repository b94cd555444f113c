"""The accuracy-SLO formulation (Eq. 3) end-to-end, and heterogeneous
clusters with a third device class."""

import numpy as np
import pytest

from repro.devices import desktop_gtx1080, jetson_class, rpi4
from repro.nas import MBV3_SPACE
from repro.rl import (EnvConfig, MurmurationEnv, SupremeConfig,
                      SupremeTrainer, Task, bootstrap_actions,
                      satisfiable_mask)
from repro.netsim import NetworkCondition


@pytest.fixture(scope="module")
def acc_env():
    return MurmurationEnv(
        MBV3_SPACE, [rpi4(), desktop_gtx1080()],
        EnvConfig(slo_kind="accuracy", acc_slo_range=(72.0, 78.0)))


class TestAccuracySLOEnv:
    def test_sampled_tasks_in_accuracy_range(self, acc_env):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t = acc_env.sample_task(rng)
            assert 72.0 <= t.slo <= 78.0

    def test_max_submodel_satisfies_tight_goal(self, acc_env):
        task = Task(78.0, NetworkCondition((200.0,), (20.0,)))
        out = acc_env.evaluate_actions(bootstrap_actions(acc_env)[1], task)
        assert out.satisfied
        assert out.reward > 0

    def test_min_submodel_misses_tight_goal(self, acc_env):
        task = Task(78.0, NetworkCondition((200.0,), (20.0,)))
        out = acc_env.evaluate_actions(bootstrap_actions(acc_env)[0], task)
        assert not out.satisfied
        assert out.reward == 0.0

    def test_reward_prefers_lower_latency(self, acc_env):
        """Eq. 3: among accuracy-satisfying strategies, faster is better."""
        task = Task(76.0, NetworkCondition((400.0,), (5.0,)))
        slow = acc_env.evaluate_actions(bootstrap_actions(acc_env)[1], task)
        fast = acc_env.evaluate_actions(bootstrap_actions(acc_env)[2], task)
        assert slow.satisfied and fast.satisfied
        assert fast.latency_s < slow.latency_s
        assert fast.reward > slow.reward

    def test_relabeling_uses_achieved_accuracy(self, acc_env):
        task = Task(79.5, NetworkCondition((200.0,), (20.0,)))  # impossible
        out = acc_env.evaluate_actions(bootstrap_actions(acc_env)[1], task)
        vals = acc_env.achieved_values(out, task)
        assert vals[0] == pytest.approx(out.accuracy)
        assert acc_env.relabeled_reward(out) > 0


class TestAccuracySLOTraining:
    def test_supreme_trains_in_accuracy_mode(self, acc_env):
        """Short SUPREME run with the Eq. 3 reward: buffer fills, metrics
        finite, buckets keyed by achieved accuracy."""
        tasks = acc_env.validation_tasks(points=2)
        mask = satisfiable_mask(acc_env, tasks)
        tr = SupremeTrainer(acc_env, SupremeConfig(
            total_steps=96, rollout_batch=16, eval_every=48, seed=0))
        hist = tr.train(tasks, mask)
        assert tr.buffer.num_entries > 0
        assert all(np.isfinite(r) for r in hist.avg_reward)
        # accuracy dimension relaxes downward: a strategy achieving 78%
        # must be visible at the 72% requirement.
        strong = tr.buffer.lookup((72.0,) + (400.0,) + (5.0,))
        assert isinstance(strong, list)


class TestHeterogeneousCluster:
    def test_three_device_classes_encode_distinctly(self):
        env = MurmurationEnv(
            MBV3_SPACE, [rpi4(), desktop_gtx1080(), jetson_class()],
            EnvConfig())
        task = Task(0.2, NetworkCondition((100.0, 100.0), (10.0, 10.0)))
        ctx = env.encode_task(task)
        assert ctx.shape == (env.context_dim,)
        # the trailing 9 entries are three one-hot device classes
        onehots = ctx[-9:].reshape(3, 3)
        assert (onehots.sum(axis=1) == 1.0).all()
        assert not (onehots[0] == onehots[1]).all()

    def test_the_fastest_plan_offloads_to_the_gpu(self):
        """With a GPU and a Jetson attached and good links, the fastest
        plan above an accuracy floor offloads to the GPU."""
        from repro.core import SLO, SearchDecisionEngine
        from repro.nas import lattice_archs
        devices = [rpi4(), jetson_class(), desktop_gtx1080()]
        engine = SearchDecisionEngine(MBV3_SPACE, devices,
                                      archs=lattice_archs(MBV3_SPACE))
        s = engine.decide(SLO.accuracy(78.5), NetworkCondition(
            (300.0, 300.0), (5.0, 5.0))).strategy
        assert s is not None
        assert s.plan.devices_used() == (0, 2)  # the GTX1080
