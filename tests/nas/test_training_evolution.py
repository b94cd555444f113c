"""Progressive-shrinking training, the dataset, and evolutionary search."""

import numpy as np
import pytest

from repro.devices import desktop_gtx1080, rpi4
from repro.nas import (EvolutionConfig, MBV3_SPACE, Supernet,
                       SupernetTrainer, SyntheticImageDataset, TrainConfig,
                       downsample, evaluate_arch, evolutionary_search,
                       max_arch, min_arch, partition_aware_forward,
                       tiny_space)
from repro.netsim import NetworkCondition, star_topology
from repro.partition import Grid


SPACE = tiny_space()


class TestDataset:
    def test_deterministic(self):
        a = SyntheticImageDataset(seed=5, train_size=32, val_size=16)
        b = SyntheticImageDataset(seed=5, train_size=32, val_size=16)
        np.testing.assert_allclose(a.x_train, b.x_train)

    def test_split_sizes(self):
        ds = SyntheticImageDataset(train_size=40, val_size=24)
        assert ds.x_train.shape == (40, 3, 32, 32)
        assert ds.x_val.shape == (24, 3, 32, 32)

    def test_downsample(self):
        x = np.arange(64, dtype=float).reshape(1, 1, 8, 8)
        d = downsample(x, 4)
        assert d.shape == (1, 1, 4, 4)
        assert d[0, 0, 0, 0] == pytest.approx((0 + 1 + 8 + 9) / 4)

    def test_downsample_must_divide(self):
        with pytest.raises(ValueError):
            downsample(np.zeros((1, 1, 8, 8)), 3)

    def test_batches_cover_epoch(self):
        ds = SyntheticImageDataset(train_size=64, val_size=8)
        rng = np.random.default_rng(0)
        n = sum(x.shape[0] for x, _ in ds.batches(16, rng))
        assert n == 64

    def test_labels_in_range(self):
        ds = SyntheticImageDataset(num_classes=7, train_size=50, val_size=10)
        assert ds.y_train.min() >= 0 and ds.y_train.max() < 7

    def test_classes_are_separable(self):
        """Same-class images correlate more than cross-class ones."""
        ds = SyntheticImageDataset(train_size=200, val_size=10, noise=0.3,
                                   seed=2)
        x = ds.x_train.reshape(200, -1)
        y = ds.y_train
        cls = y[0]
        same = [i for i in range(1, 200) if y[i] == cls][:10]
        diff = [i for i in range(1, 200) if y[i] != cls][:10]
        corr_same = np.mean([np.dot(x[0], x[i]) for i in same])
        corr_diff = np.mean([np.dot(x[0], x[i]) for i in diff])
        assert corr_same > corr_diff


class TestTrainer:
    @pytest.fixture(scope="class")
    def trained(self):
        net = Supernet(SPACE, seed=0)
        ds = SyntheticImageDataset(resolution=32, train_size=96, val_size=64,
                                   seed=0, noise=0.4)
        cfg = TrainConfig(warmup_steps=25, steps_per_phase=15, batch_size=16,
                          lr=0.1, partition_prob=0.2, quantize_prob=0.2)
        trainer = SupernetTrainer(net, ds, cfg)
        result = trainer.train()
        return net, ds, result

    def test_warmup_loss_decreases(self, trained):
        """Compare within the warmup phase: later phases sample random
        submodels, whose losses are not comparable step to step."""
        _, _, result = trained
        warm = [l for p, l in zip(result.phase_names, result.losses)
                if p == "warmup"]
        assert np.mean(warm[-5:]) < np.mean(warm[:5])

    def test_phases_recorded_in_order(self, trained):
        _, _, result = trained
        phases = list(dict.fromkeys(result.phase_names))
        assert phases == ["warmup", "kernel", "depth", "expand"]

    def test_max_beats_chance(self, trained):
        net, ds, result = trained
        assert result.val_accuracy["max"] > 100.0 / SPACE.num_classes + 5

    def test_min_submodel_functional(self, trained):
        net, ds, result = trained
        assert result.val_accuracy["min"] > 100.0 / SPACE.num_classes - 5

    def test_partition_aware_forward_close_to_plain(self, trained):
        """FDSP stem partitioning perturbs logits only mildly after
        partition-aware training."""
        net, ds, _ = trained
        net.eval()
        a = max_arch(SPACE)
        x, y = ds.val_batch(limit=32)
        plain = net.forward_arch(x, a)
        part = partition_aware_forward(net, x, a, Grid(1, 2))
        agree = (plain.argmax(1) == part.argmax(1)).mean()
        assert agree > 0.6
        net.train()

    def test_evaluate_arch_bounds(self, trained):
        net, ds, _ = trained
        acc = evaluate_arch(net, ds, max_arch(SPACE), limit=32)
        assert 0.0 <= acc <= 100.0


class TestEvolution:
    @pytest.fixture
    def cluster(self):
        return star_topology([rpi4(), desktop_gtx1080()],
                             NetworkCondition((200.0,), (20.0,)))

    def test_finds_feasible_under_loose_slo(self, cluster):
        res = evolutionary_search(
            MBV3_SPACE, cluster, latency_slo_s=1.0,
            config=EvolutionConfig(population=12, generations=3, seed=0))
        assert res.feasible
        assert res.latency_s <= 1.0
        assert res.accuracy > 70.0

    def test_respects_tight_slo(self, cluster):
        res = evolutionary_search(
            MBV3_SPACE, cluster, latency_slo_s=0.08,
            config=EvolutionConfig(population=12, generations=4, seed=1))
        if res.feasible:
            assert res.latency_s <= 0.08

    def test_tighter_slo_not_higher_accuracy(self, cluster):
        cfg = EvolutionConfig(population=16, generations=4, seed=2)
        loose = evolutionary_search(MBV3_SPACE, cluster, 1.0, config=cfg)
        tight = evolutionary_search(MBV3_SPACE, cluster, 0.12, config=cfg)
        if loose.feasible and tight.feasible:
            assert tight.accuracy <= loose.accuracy + 0.3

    def test_counts_evaluations(self, cluster):
        res = evolutionary_search(
            MBV3_SPACE, cluster, 0.5,
            config=EvolutionConfig(population=8, generations=2, seed=3))
        assert res.evaluations >= 8 * 2
