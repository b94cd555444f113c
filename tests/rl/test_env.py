"""Environment: schedule, decode, rewards, curriculum, relabeling."""

from dataclasses import astuple

import numpy as np
import pytest

from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE, ArchConfig, random_arch
from repro.rl import (ACTION_TYPES, EnvConfig, MurmurationEnv, Task,
                      bootstrap_actions, build_schedule)
from repro.netsim import NetworkCondition


@pytest.fixture(scope="module")
def env():
    return MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                          EnvConfig(slo_kind="latency"))


@pytest.fixture(scope="module")
def swarm_env():
    return MurmurationEnv(MBV3_SPACE, [rpi4()] * 5,
                          EnvConfig(slo_kind="latency"))


class TestSchedule:
    def test_structure(self, env):
        sched = env.schedule
        kinds = [s.kind for s in sched]
        assert kinds[0] == "resolution"
        assert kinds[-1] == "head_device"
        assert kinds.count("depth") == MBV3_SPACE.num_stages
        assert kinds.count("device") == MBV3_SPACE.num_stages * 4

    def test_unknown_kind_rejected(self):
        from repro.rl.spaces import ActionStep
        with pytest.raises(ValueError):
            ActionStep("banana", 3)

    def test_kind_ids_match_action_types(self, env):
        for s in env.schedule:
            assert ACTION_TYPES[s.kind_id] == s.kind

    def test_episode_length(self, env):
        # 1 resolution + 5*(5 settings + 4 devices) + 1 head device
        assert env.episode_length == 1 + 5 * 9 + 1


class TestDecode:
    def test_bootstrap_min_local(self, env):
        actions = bootstrap_actions(env)[0]
        arch, plan = env.decode(actions)
        assert arch.resolution == min(MBV3_SPACE.resolution_options)
        assert all(d == 2 for d in arch.depths)
        assert plan.devices_used() == (0,)

    def test_bootstrap_max_remote(self, env):
        actions = bootstrap_actions(env)[2]
        arch, plan = env.decode(actions)
        assert arch.resolution == max(MBV3_SPACE.resolution_options)
        # trunk runs on device 1, output returns to 0
        assert 1 in plan.devices_used()

    def test_wrong_length_rejected(self, env):
        with pytest.raises(ValueError, match="expected 47 actions, got 2"):
            env.decode([0, 1])

    def test_out_of_range_action_rejected(self, env):
        actions = bootstrap_actions(env)[0].copy()
        actions[0] = 99
        with pytest.raises(ValueError):
            env.decode(actions)

    @pytest.mark.parametrize("index,bad", [(0, 5), (4, -1), (6, 2), (46, 7)])
    def test_out_of_range_action_names_its_step(self, env, index, bad):
        actions = [int(a) for a in bootstrap_actions(env)[1]]
        actions[index] = bad
        with pytest.raises(ValueError) as caught:
            env.decode(actions)
        assert str(caught.value) == (
            f"action {bad} out of range for {env.schedule[index]}")

    def test_equal_block_settings_are_one_object_per_env(self, env):
        rng = np.random.default_rng(3)
        actions = [int(rng.integers(s.n_choices)) for s in env.schedule]
        (arch_a, plan_a), (arch_b, plan_b) = (env.decode(actions),
                                              env.decode(actions))
        assert arch_a == arch_b and plan_a is not plan_b
        assert plan_a.block_plans == plan_b.block_plans
        assert all(a is b for a, b in zip(plan_a, plan_b))
        distinct = {(bp.grid, bp.devices, bp.bits) for bp in plan_a}
        assert len({id(bp) for bp in plan_a}) == len(distinct)
        other = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()])
        _, plan_c = other.decode(actions)
        assert plan_c.block_plans == plan_a.block_plans
        assert not any(a is c for a, c in zip(plan_a, plan_c))

    def test_too_few_tile_slots_for_the_grid_still_raise(self):
        """A 2x2 grid under ``max_tiles=2`` would name two devices for
        four tiles: the env refuses it when built, naming the field,
        before any action is decoded."""
        with pytest.raises(ValueError, match="max_tiles must be at least "
                           r"the space's largest grid \(4 tiles\), got 2"):
            MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                           EnvConfig(max_tiles=2))

    def test_decode_random_rollouts_always_valid(self, env):
        rng = np.random.default_rng(0)
        for _ in range(25):
            actions = [int(rng.integers(s.n_choices)) for s in env.schedule]
            arch, plan = env.decode(actions)
            arch.validate(MBV3_SPACE)
            plan.validate_for(env._graph(arch), env.num_devices)


class TestReward:
    def test_latency_slo_eq2(self, env):
        r_ok, ok = env.reward(latency_s=0.1, accuracy=78.0, slo=0.2)
        assert ok and r_ok > 0
        r_miss, miss = env.reward(latency_s=0.3, accuracy=78.0, slo=0.2)
        assert not miss and r_miss == 0.0

    def test_latency_slo_rewards_accuracy(self, env):
        hi, _ = env.reward(0.1, 78.0, 0.2)
        lo, _ = env.reward(0.1, 72.0, 0.2)
        assert hi > lo

    def test_accuracy_slo_eq3(self):
        env = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                             EnvConfig(slo_kind="accuracy"))
        fast, ok = env.reward(latency_s=0.05, accuracy=76.0, slo=75.0)
        slow, _ = env.reward(latency_s=0.5, accuracy=76.0, slo=75.0)
        assert ok and fast > slow
        miss, sat = env.reward(latency_s=0.05, accuracy=74.0, slo=75.0)
        assert not sat and miss == 0.0

    def test_invalid_slo_kind(self):
        with pytest.raises(ValueError):
            EnvConfig(slo_kind="throughput")

    @pytest.mark.parametrize("settings", [
        dict(acc_norm=(80.0, 80.0)),
        dict(acc_norm=(70.0, float("nan"))),
        dict(slo_kind="accuracy", latency_ref_s=0.0),
        dict(latency_ref_s=float("inf")),
        dict(alpha=float("nan")),
        dict(beta=float("-inf")),
        dict(slo_range=(0.0, 0.5)),
        dict(acc_slo_range=(78.5, 72.0)),
        dict(bw_range=(0.0, 400.0)),
        dict(delay_range=(0.0, 0.0)),
        dict(delay_range=(5.0, float("nan"))),
        dict(max_tiles=0),
        dict(max_tiles=2),                   # MBV3_SPACE has a 2x2 grid
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_a_hostile_setting_raises_before_anything_is_priced(
            self, settings):
        """Each once crashed mid-run (``ZeroDivisionError`` at the first
        satisfied strategy, ``IndexError`` in ``decode``) or priced NaN
        rewards; now building the env refuses it, naming the field."""
        field = list(settings)[-1]
        with pytest.raises(ValueError,
                           match=rf"^EnvConfig\.{field}(\[\d\])? must be"):
            MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                           EnvConfig(**settings))


class TestEvaluate:
    def test_outcome_fields(self, env):
        task = Task(0.3, NetworkCondition((200.0,), (20.0,)))
        actions = bootstrap_actions(env)[0]
        out = env.evaluate_actions(actions, task)
        assert out.latency_s > 0
        assert 68.0 < out.accuracy < 80.0
        assert out.satisfied == (out.latency_s <= 0.3)

    def test_better_network_not_slower(self, env):
        actions = bootstrap_actions(env)[2]  # max on remote
        slow = env.evaluate_actions(actions, Task(
            1.0, NetworkCondition((50.0,), (100.0,))))
        fast = env.evaluate_actions(actions, Task(
            1.0, NetworkCondition((400.0,), (5.0,))))
        assert fast.latency_s <= slow.latency_s


    def test_custom_accuracy_fn_is_called_once_and_wins(self):
        """The graph is tagged with the analytical accuracy; a custom
        function's value, not the tag, is what the outcome reports."""
        calls = []

        def measured(arch):
            calls.append(arch)
            return 71.25

        custom = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                                accuracy_fn=measured)
        task = Task(0.3, NetworkCondition((200.0,), (20.0,)))
        actions = bootstrap_actions(custom)[0]     # everything local
        out = custom.evaluate_actions(actions, task)
        assert calls == [out.arch]
        assert out.accuracy == 71.25               # no plan penalty locally
        assert custom._graph(out.arch).accuracy != 71.25
        custom.evaluate_actions(actions, task)
        assert len(calls) == 2

    def test_default_accuracy_is_the_analytical_model(self, env):
        from repro.nas.accuracy_model import (plan_accuracy_penalty,
                                              strategy_accuracy)
        task = Task(0.3, NetworkCondition((200.0,), (20.0,)))
        for actions in bootstrap_actions(env):
            out = env.evaluate_actions(actions, task)
            assert out.accuracy == (strategy_accuracy(out.arch, MBV3_SPACE)
                                    - plan_accuracy_penalty(out.plan))
            # evaluate_strategy alone, on an arch the env did not decode
            again = env.evaluate_strategy(
                ArchConfig(*astuple(out.arch)), out.plan, task)
            assert (again.latency_s, again.accuracy, again.reward) \
                == (out.latency_s, out.accuracy, out.reward)


class TestGraphMemo:
    def test_a_full_memo_evicts_one_graph_not_all(self):
        """Entry 4 097 used to clear the memo, so a long run rebuilt
        every live graph together; now the least recently used goes."""
        env = MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()])
        rng = np.random.default_rng(7)
        archs = {}
        while len(archs) < 4097:
            arch = random_arch(MBV3_SPACE, rng)
            archs.setdefault(arch.canonical_key(MBV3_SPACE), arch)
        archs = list(archs.values())
        graphs = [env._graph(a) for a in archs[:4096]]
        assert env._graph(archs[0]) is graphs[0]      # now the most recent
        env._graph(archs[4096])                       # entry 4 097
        for i in (0, 2, 2048, 4095):
            assert env._graph(archs[i]) is graphs[i]
        assert env._graph(archs[1]) is not graphs[1]  # the one evicted
        assert env._graph(archs[1]).blocks == graphs[1].blocks

    def test_an_equal_arch_finds_the_graph_of_its_canonical_key(self, env):
        arch = random_arch(MBV3_SPACE, np.random.default_rng(1))
        graph = env._graph(arch)
        assert env._graph(arch) is graph
        assert env._graph(ArchConfig(*astuple(arch))) is graph


class TestTasks:
    def test_context_vector_dim(self, env):
        task = env.sample_task(np.random.default_rng(0))
        assert env.encode_task(task).shape == (env.context_dim,)

    def test_curriculum_freezes_inactive_dims(self, swarm_env):
        rng = np.random.default_rng(1)
        tasks = [swarm_env.sample_task(rng, active_dims=2)
                 for _ in range(20)]
        # dims beyond (slo, bw1): delay1 and all later stay at easiest
        for t in tasks:
            assert t.condition.delays_ms[0] == swarm_env.cfg.delay_range[0]
            assert t.condition.bandwidths_mbps[1] == swarm_env.cfg.bw_range[1]
        # slo and bw1 actually vary
        assert len({t.slo for t in tasks}) > 1
        assert len({t.condition.bandwidths_mbps[0] for t in tasks}) > 1

    def test_validation_tasks_grid(self, env):
        tasks = env.validation_tasks(points=3)
        assert len(tasks) == 27  # 3 slo x 3 bw x 3 delay

    def test_validation_tasks_multi_remote(self, swarm_env):
        tasks = swarm_env.validation_tasks(points=3)
        assert len(tasks) == 27
        assert all(t.condition.num_remote == 4 for t in tasks)


class TestRelabeling:
    def test_constraint_values_roundtrip(self, swarm_env):
        task = swarm_env.sample_task(np.random.default_rng(2))
        values = swarm_env.constraint_values(task)
        back = swarm_env.task_from_values(values)
        assert back == task

    def test_achieved_values_use_outcome(self, env):
        task = Task(0.3, NetworkCondition((100.0,), (10.0,)))
        out = env.evaluate_actions(bootstrap_actions(env)[0], task)
        vals = env.achieved_values(out, task)
        assert vals[0] == pytest.approx(out.latency_s)
        assert vals[1] == 100.0 and vals[2] == 10.0

    def test_relabeled_reward_positive(self, env):
        task = Task(0.001, NetworkCondition((100.0,), (10.0,)))  # impossible
        out = env.evaluate_actions(bootstrap_actions(env)[0], task)
        assert out.reward == 0.0  # missed the real goal
        assert env.relabeled_reward(out) > 0.0  # but achieves its own
