"""The library driver behind the Fig. 11/12 benchmarks."""

import pytest

from repro.devices import desktop_gtx1080, rpi4
from repro.eval import format_training_curves, run_training_curves


class TestRunTrainingCurves:
    def test_subset_of_methods(self):
        histories = run_training_curves(
            [rpi4(), desktop_gtx1080()], total_steps=64, eval_every=32,
            eval_points=2, methods=["SUPREME (Ours)", "GCSL"])
        assert set(histories) == {"SUPREME (Ours)", "GCSL"}
        for h in histories.values():
            assert len(h.steps) >= 1

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_training_curves([rpi4()], total_steps=16,
                                methods=["AlphaZero"])

    def test_formatting(self):
        histories = run_training_curves(
            [rpi4(), desktop_gtx1080()], total_steps=32, eval_every=32,
            eval_points=2, methods=["GCSL"])
        txt = format_training_curves(histories)
        assert "Fig. 11" in txt and "Fig. 12" in txt and "GCSL" in txt
