"""SUPREME bucketed replay buffer: top-n filtering, the sharing walk,
domination pruning — including hypothesis properties on the lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl import BucketDim, BucketedReplayBuffer, Entry


def dims_2d(n=5):
    """(slo relax up, bandwidth relax up) 2-D lattice as in Fig. 7."""
    return [
        BucketDim("slo", tuple(np.linspace(0.1, 1.0, n)), relax_sign=+1),
        BucketDim("bw", tuple(np.linspace(10, 100, n)), relax_sign=+1),
    ]


def entry(reward, actions=None):
    return Entry(actions=np.asarray(actions if actions is not None else [0]),
                 reward=reward, latency_s=0.1, accuracy=75.0)


class TestBucketDim:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            BucketDim("x", (3.0, 1.0), +1)

    def test_relax_sign_validated(self):
        with pytest.raises(ValueError):
            BucketDim("x", (1.0, 2.0), 0)

    def test_index_easier_relax_up(self):
        d = BucketDim("slo", (0.1, 0.2, 0.3), +1)
        # achieved 0.15 -> valid at grid points >= 0.15 -> index of 0.2
        assert d.index_easier(0.15) == 1
        assert d.index_easier(0.05) == 0
        assert d.index_easier(0.9) == 2  # clamped

    def test_index_easier_relax_down(self):
        d = BucketDim("delay", (10.0, 20.0, 30.0), -1)
        # achieved under delay 25 -> valid at delays <= 25 -> index of 20
        assert d.index_easier(25.0) == 1
        assert d.index_easier(5.0) == 0  # clamped


class TestInsertAndTopN:
    def test_top_n_kept_by_reward(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2)
        for r in (0.1, 0.9, 0.5, 0.7):
            buf.insert((0.5, 50.0), entry(r))
        kept = buf.lookup((0.5, 50.0))
        assert sorted(e.reward for e in kept) == [0.7, 0.9]

    def test_insert_returns_retention(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=1)
        assert buf.insert((0.5, 50.0), entry(0.5))
        assert not buf.insert((0.5, 50.0), entry(0.1))
        assert buf.insert((0.5, 50.0), entry(0.9))

    def test_wrong_dimensionality(self):
        buf = BucketedReplayBuffer(dims_2d())
        with pytest.raises(ValueError):
            buf.insert((0.5,), entry(1.0))

    def test_counters(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=4)
        buf.insert((0.2, 20.0), entry(1.0))
        buf.insert((0.9, 90.0), entry(1.0))
        assert buf.num_buckets == 2
        assert buf.num_entries == 2


class TestSharing:
    def test_empty_bucket_borrows_from_harder(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        # Strategy achieved at a *hard* point: low slo, low bw.
        buf.insert((0.1, 10.0), entry(0.8, actions=[1, 2, 3]))
        # Query at an easier point (higher slo, higher bw): shared.
        got = buf.lookup((1.0, 100.0))
        assert len(got) == 1 and got[0].reward == 0.8

    def test_no_share_from_easier(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        # Strategy only valid at the easiest corner...
        buf.insert((1.0, 100.0), entry(0.8))
        # ...must NOT leak to harder constraints.
        assert buf.lookup((0.1, 10.0)) == []

    def test_share_disabled(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=False)
        buf.insert((0.1, 10.0), entry(0.8))
        assert buf.lookup((1.0, 100.0)) == []

    def test_nearest_ancestor_wins(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        buf.insert((0.1, 10.0), entry(0.3))   # far ancestor
        buf.insert((0.55, 55.0), entry(0.6))  # near ancestor
        got = buf.lookup((0.77, 77.0))
        assert got[0].reward == 0.6

    def test_best_helper(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=3)
        buf.insert((0.5, 50.0), entry(0.2))
        buf.insert((0.5, 50.0), entry(0.9))
        assert buf.best((0.5, 50.0)).reward == 0.9
        assert buf.best((0.1, 10.0)) is None


class TestPruning:
    def test_dominated_bucket_pruned(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        buf.insert((0.1, 10.0), entry(0.9))   # strong, hard-constraint
        buf.insert((0.55, 55.0), entry(0.4))  # weaker at an easier point
        removed = buf.prune()
        assert removed == 1
        # the easier bucket now resolves to the ancestor's data
        assert buf.best((0.55, 55.0)).reward == 0.9

    def test_better_easier_bucket_survives(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        buf.insert((0.1, 10.0), entry(0.4))
        buf.insert((0.55, 55.0), entry(0.9))
        assert buf.prune() == 0
        assert buf.best((0.55, 55.0)).reward == 0.9

    def test_prune_without_ancestors_noop(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2, share=True)
        buf.insert((0.1, 10.0), entry(0.5))  # hardest corner, no ancestor
        assert buf.prune() == 0


class TestSampling:
    def test_sample_returns_pairs(self):
        buf = BucketedReplayBuffer(dims_2d(), top_n=2)
        buf.insert((0.3, 30.0), entry(0.5, actions=[4, 5]))
        rng = np.random.default_rng(0)
        pairs = buf.sample(10, rng)
        assert len(pairs) >= 1
        values, e = pairs[0]
        assert len(values) == 2
        assert isinstance(e, Entry)

    def test_sample_empty_buffer(self):
        buf = BucketedReplayBuffer(dims_2d())
        assert buf.sample(5, np.random.default_rng(0)) == []


class TestLatticeProperties:
    @given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(10, 100),
                              st.floats(0, 1)), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_shared_data_is_always_valid(self, points):
        """Anything lookup() returns at constraint c was inserted at a
        point no easier than c in every dimension."""
        buf = BucketedReplayBuffer(dims_2d(7), top_n=3, share=True)
        inserted = {}
        for slo, bw, r in points:
            e = entry(r)
            buf.insert((slo, bw), e)
            idx = buf.bucket_of((slo, bw), toward_easier=True)
            inserted[id(e)] = idx
        # probe every lattice point
        for i, slo in enumerate(buf.dims[0].grid):
            for j, bw in enumerate(buf.dims[1].grid):
                for e in buf.lookup((slo, bw)):
                    src = inserted[id(e)]
                    assert src[0] <= i and src[1] <= j

    @given(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(10, 100),
                              st.floats(0, 1)), min_size=2, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_prune_never_lowers_best_reward(self, points):
        """Pruning removes only dominated data: the best reachable reward
        at every lattice point is unchanged."""
        buf = BucketedReplayBuffer(dims_2d(6), top_n=3, share=True)
        for slo, bw, r in points:
            buf.insert((slo, bw), entry(r))
        before = {}
        for slo in buf.dims[0].grid:
            for bw in buf.dims[1].grid:
                b = buf.best((slo, bw))
                before[(slo, bw)] = b.reward if b else None
        buf.prune()
        for key, val in before.items():
            b = buf.best(key)
            after = b.reward if b else None
            if val is None:
                assert after is None
            else:
                assert after is not None and after >= val - 1e-12
