"""LSTM policy: rollout behaviour and teacher-forced BPTT gradients."""

import numpy as np
import pytest

from repro.devices import desktop_gtx1080, rpi4
from repro.nas import MBV3_SPACE
from repro.nn import functional as F
from repro.rl import EnvConfig, LSTMPolicy, MurmurationEnv, PolicyConfig
from tests.conftest import numeric_grad


@pytest.fixture(scope="module")
def env():
    return MurmurationEnv(MBV3_SPACE, [rpi4(), desktop_gtx1080()],
                          EnvConfig())


@pytest.fixture
def policy(env):
    return LSTMPolicy.for_env(env, PolicyConfig(hidden_size=32, seed=0))


class TestRollout:
    def test_shapes(self, env, policy):
        rng = np.random.default_rng(0)
        ctx = np.stack([env.encode_task(env.sample_task(rng))
                        for _ in range(5)])
        batch = policy.rollout(ctx, env.schedule, rng)
        assert batch.actions.shape == (5, env.episode_length)
        assert batch.log_probs.shape == batch.actions.shape
        assert (batch.log_probs <= 0).all()
        assert (batch.entropies >= 0).all()

    def test_actions_within_ranges(self, env, policy):
        rng = np.random.default_rng(1)
        ctx = np.stack([env.encode_task(env.sample_task(rng))
                        for _ in range(8)])
        batch = policy.rollout(ctx, env.schedule, rng, epsilon=0.5)
        for t, step in enumerate(env.schedule):
            assert batch.actions[:, t].max() < step.n_choices

    def test_greedy_deterministic(self, env, policy):
        task = env.sample_task(np.random.default_rng(2))
        ctx = env.encode_task(task)
        a1 = policy.greedy_actions(ctx, env.schedule)
        a2 = policy.greedy_actions(ctx, env.schedule)
        np.testing.assert_array_equal(a1, a2)

    def test_epsilon_increases_diversity(self, env, policy):
        rng = np.random.default_rng(3)
        ctx = np.stack([env.encode_task(env.sample_task(
            np.random.default_rng(9)))] * 32)
        greedy = policy.rollout(ctx, env.schedule,
                                np.random.default_rng(4), greedy=True)
        noisy = policy.rollout(ctx, env.schedule,
                               np.random.default_rng(4), epsilon=1.0)
        assert len({tuple(r) for r in greedy.actions}) == 1
        assert len({tuple(r) for r in noisy.actions}) > 10

    def test_inconsistent_head_sizes_rejected(self):
        class FakeEnv:
            context_dim = 3
            max_choices = 4
            from repro.rl.spaces import ActionStep
            schedule = [ActionStep("device", 2), ActionStep("device", 3)]
        with pytest.raises(ValueError, match="inconsistent"):
            LSTMPolicy.for_env(FakeEnv())


class TestTeacherForcing:
    def test_logits_shapes(self, env, policy):
        rng = np.random.default_rng(5)
        ctx = np.stack([env.encode_task(env.sample_task(rng))
                        for _ in range(3)])
        batch = policy.rollout(ctx, env.schedule, rng)
        logits, values = policy.teacher_forward(ctx, batch.actions,
                                                env.schedule)
        assert len(logits) == env.episode_length
        for lg, step in zip(logits, env.schedule):
            assert lg.shape == (3, step.n_choices)
        assert values[0].shape == (3,)
        # consume the tape
        policy.teacher_backward([np.zeros_like(l) for l in logits])

    def test_bptt_gradient_matches_numeric(self, env):
        """Full NLL gradient check on a small policy over a short
        truncated schedule."""
        policy = LSTMPolicy.for_env(env, PolicyConfig(hidden_size=8, seed=1))
        sched = env.schedule[:6]
        rng = np.random.default_rng(6)
        ctx = np.stack([env.encode_task(env.sample_task(rng))
                        for _ in range(2)])
        actions = np.stack([[int(rng.integers(s.n_choices)) for s in sched]
                            for _ in range(2)])

        def nll():
            logits, _ = policy.teacher_forward(ctx, actions, sched)
            total = 0.0
            for t in range(len(sched)):
                logp = F.log_softmax(logits[t], axis=-1)
                total += -logp[np.arange(2), actions[:, t]].sum()
            # drop the tape so repeated calls are safe
            policy.teacher_backward([np.zeros_like(l) for l in logits])
            return total

        logits, _ = policy.teacher_forward(ctx, actions, sched)
        grads = []
        for t in range(len(sched)):
            p = np.exp(F.log_softmax(logits[t], axis=-1))
            g = p.copy()
            g[np.arange(2), actions[:, t]] -= 1.0
            grads.append(g)
        policy.zero_grad()
        policy.teacher_backward(grads)

        got = policy.cell.w_ih.grad.copy()
        num = numeric_grad(nll, policy.cell.w_ih.data, eps=1e-6)
        np.testing.assert_allclose(got, num, atol=1e-4)

        head = policy.heads["depth"]
        got_h = head.weight.grad.copy()
        num_h = numeric_grad(nll, head.weight.data, eps=1e-6)
        np.testing.assert_allclose(got_h, num_h, atol=1e-4)

    def test_parameters_cover_heads(self, env, policy):
        params = {id(p) for p in policy.parameters()}
        for head in (*policy.heads.values(), policy.value_head):
            assert {id(head.weight), id(head.bias)} <= params
