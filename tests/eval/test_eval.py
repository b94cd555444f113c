"""Figure drivers: shapes of the returned structures and the paper's
qualitative claims on reduced grids (full grids run in benchmarks/)."""

import pytest

from repro.core import SLO, SearchDecisionEngine
from repro.core.decision import DecisionRecord
from repro.eval import (augmented_devices,
                        fig13_augmented_accuracy, fig15_accuracy_slo_latency,
                        fig16b_compliance_swarm, fig17_scalability,
                        fig18_search_time, fig19_switch_time,
                        format_accuracy_grid, format_compliance,
                        format_latency_grid, format_scalability,
                        format_search_time, format_switch_time,
                        swarm_devices)
from repro.eval.spec import PinnedTimeEngine
from repro.nas import MBV3_SPACE, lattice_archs
from repro.netsim import NetworkCondition


def lattice_engine(devices):
    """Murmuration's decider in Figs. 13-17."""
    return SearchDecisionEngine(MBV3_SPACE, devices,
                                archs=lattice_archs(MBV3_SPACE))


class TestOracle:
    """The figures' exhaustive decider: the engine over the lattice."""

    def test_lattice_covers_all_levels(self):
        archs = lattice_archs(MBV3_SPACE)
        assert len(archs) == 5 * 3 * 3 * 3
        assert len({a.resolution for a in archs}) == 5

    def test_latency_slo_maximizes_accuracy(self):
        engine = lattice_engine(augmented_devices())
        cond = NetworkCondition((400.0,), (5.0,))
        loose = engine.decide(SLO.latency(1.0), cond).strategy
        tight = engine.decide(SLO.latency(0.12), cond).strategy
        assert loose and tight
        assert loose.expected_accuracy >= tight.expected_accuracy

    def test_impossible_slo_none(self):
        engine = lattice_engine(augmented_devices())
        assert engine.decide(SLO.latency(0.0001), NetworkCondition(
            (50.0,), (100.0,))).strategy is None


class TestPinnedTimeEngine:
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0,
                                         -1e-12])
    def test_a_bad_pinned_time_is_rejected_when_built(self, seconds):
        """Regression: NaN served a whole run with NaN latencies and
        "100 %" compliance; a negative time died mid-run rewinding the
        clock."""
        with pytest.raises(ValueError, match="decision_time_s"):
            PinnedTimeEngine(None, seconds)

    def test_zero_is_a_legal_pin(self):
        class Engine:
            def decide(self, slo, condition):
                return DecisionRecord(None, 0.5, "stub")

        rec = PinnedTimeEngine(Engine(), 0.0).decide(
            SLO.latency(1.0), NetworkCondition((400.0,), (5.0,)))
        assert rec == DecisionRecord(None, 0.0, "stub")


class TestFig13:
    @pytest.fixture(scope="class")
    def data(self):
        return fig13_augmented_accuracy(bandwidths=(50.0, 400.0),
                                        delays=(5.0, 100.0))

    def test_all_methods_present(self, data):
        assert "Murmuration (Ours)" in data
        assert "Neurosurgeon + DenseNet161" in data
        assert len(data) == 8

    def test_murmuration_covers_every_condition(self, data):
        assert all(p.satisfied for p in data["Murmuration (Ours)"].values())

    def test_densenet_covers_nothing(self, data):
        assert not any(p.satisfied
                       for p in data["Neurosurgeon + DenseNet161"].values())

    def test_murmuration_beats_mbv3_on_good_network(self, data):
        ours = data["Murmuration (Ours)"][(5.0, 400.0)]
        mbv3 = data["Neurosurgeon + MobileNetV3"][(5.0, 400.0)]
        assert ours.accuracy > mbv3.accuracy + 2.0  # the paper's "up to 5%"

    def test_formatting_renders(self, data):
        txt = format_accuracy_grid(data)
        assert "Murmuration" in txt and "-" in txt


class TestFig15:
    def test_latency_increases_with_accuracy_slo(self):
        data = fig15_accuracy_slo_latency(accuracy_slos=(73.0, 77.0),
                                          bandwidths=(200.0,))
        ours = data["Murmuration (Ours)"]
        lo = ours[(200.0, 73.0)]
        hi = ours[(200.0, 77.0)]
        assert lo.satisfied and hi.satisfied
        assert hi.latency_ms >= lo.latency_ms

    def test_large_latency_reduction_at_high_accuracy(self):
        """Paper: up to 6.7x latency reduction at tight accuracy SLOs."""
        data = fig15_accuracy_slo_latency(accuracy_slos=(77.0,),
                                          bandwidths=(400.0,))
        ours = data["Murmuration (Ours)"][(400.0, 77.0)]
        feas = [pts[(400.0, 77.0)] for name, pts in data.items()
                if name != "Murmuration (Ours)"
                and pts[(400.0, 77.0)].satisfied]
        assert ours.satisfied and feas
        best_baseline = min(p.latency_ms for p in feas)
        assert best_baseline / ours.latency_ms > 2.0

    def test_format_latency_grid(self):
        data = fig15_accuracy_slo_latency(accuracy_slos=(73.0,),
                                          bandwidths=(100.0,))
        assert "latency ms" in format_latency_grid(data)


class TestFig16:
    def test_murmuration_dominates_swarm_compliance(self):
        data = fig16b_compliance_swarm(latency_slos_ms=(600.0,))
        ours = data["Murmuration (Ours)"][600.0]
        for name, pts in data.items():
            if name != "Murmuration (Ours)":
                assert ours >= pts[600.0]

    def test_compliance_rates_bounded(self):
        data = fig16b_compliance_swarm(latency_slos_ms=(1000.0,))
        for pts in data.values():
            for v in pts.values():
                assert 0.0 <= v <= 100.0

    def test_format(self):
        data = fig16b_compliance_swarm(latency_slos_ms=(600.0,))
        assert "compliance" in format_compliance(data).lower()


class TestFig17:
    def test_latency_improves_with_devices(self):
        data = fig17_scalability(accuracy_slos=(75.0,),
                                 device_counts=(1, 5, 9))
        pts = data[75.0]
        assert pts[9] < pts[5] < pts[1]

    def test_speedup_at_least_1p7(self):
        data = fig17_scalability(accuracy_slos=(75.0,),
                                 device_counts=(1, 9))
        assert data[75.0][1] / data[75.0][9] > 1.7

    def test_format(self):
        data = fig17_scalability(accuracy_slos=(75.0,), device_counts=(1, 2))
        assert "devices" in format_scalability(data)


class TestFig18And19:
    def test_rl_much_faster_even_vs_tiny_evolution(self):
        """With a deliberately tiny evolutionary budget the RL decision
        is still clearly faster; the full-budget ratio (~1000x, Fig. 18)
        is measured in the benchmark.

        Evolution shares the latency simulator every pricing speed-up
        makes cheaper, while an RL decision is LSTM-bound, so this 16 x 4
        budget is held to its share of the paper-scale (100 x 20) bar of
        50x — 1.6x; it read 9.9–12.2x before PR 20 and 6.3–8.3x after.
        Ten RL decisions average out the first, cold one."""
        data = fig18_search_time(population=16, generations=4, repeats=10)
        share = 50.0 * (16 * 4) / (100 * 20)
        for dev in ("rpi4", "desktop_gtx1080"):
            assert data["rl"][dev] < data["evolutionary"][dev] / share
        assert "seconds" in format_search_time(data).lower()

    def test_supernet_switch_is_milliseconds(self):
        data = fig19_switch_time()
        reconf = data["Murmuration (supernet reconfig)"]
        assert reconf < 0.05
        for name, t in data.items():
            if name.startswith("reload"):
                assert t > 10 * reconf
        assert "switch" in format_switch_time(data).lower()
