"""ModelGraph / ComputeBlock invariants."""

import pytest

from repro.models import ComputeBlock, ModelGraph, conv_flops, linear_flops


def _block(name="b", flops=1e6, hw=(8, 8), ch=16, **kw):
    return ComputeBlock(name, flops, hw, ch, **kw)


class TestComputeBlock:
    def test_out_elements(self):
        b = _block(hw=(7, 5), ch=3)
        assert b.out_elements == 7 * 5 * 3

    def test_frozen(self):
        b = _block()
        with pytest.raises(Exception):
            b.flops = 0

    def test_default_halo(self):
        assert _block().halo == 1


class TestModelGraph:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ModelGraph("m", [], 75.0)

    @pytest.mark.parametrize("acc", [0.0, -1.0, 101.0])
    def test_bad_accuracy_rejected(self, acc):
        with pytest.raises(ValueError):
            ModelGraph("m", [_block()], acc)

    def test_aggregates(self):
        g = ModelGraph("m", [_block(flops=10, weight_bytes=4),
                             _block(flops=20, weight_bytes=8)], 70.0)
        assert g.total_flops == 30
        assert g.total_weight_bytes == 12
        assert len(g) == 2

    def test_input_elements(self):
        g = ModelGraph("m", [_block()], 70.0, input_hw=(10, 12), input_ch=3)
        assert g.input_elements == 360

    def test_split_points(self):
        g = ModelGraph("m", [_block(), _block(), _block()], 70.0)
        assert g.split_points() == [0, 1, 2, 3]

    def test_iteration_and_indexing(self):
        blocks = [_block(name=f"b{i}") for i in range(4)]
        g = ModelGraph("m", blocks, 70.0)
        assert [b.name for b in g] == ["b0", "b1", "b2", "b3"]
        assert g[2].name == "b2"


class TestFlopHelpers:
    def test_conv_flops_formula(self):
        # 2 * OH * OW * IC/g * OC * K^2
        assert conv_flops(8, 8, 3, 16, 3) == 2 * 8 * 8 * 3 * 16 * 9

    def test_conv_flops_stride(self):
        assert conv_flops(8, 8, 4, 4, 1, stride=2) == 2 * 4 * 4 * 4 * 4

    def test_conv_flops_groups(self):
        full = conv_flops(8, 8, 16, 16, 3, groups=1)
        dw = conv_flops(8, 8, 16, 16, 3, groups=16)
        assert full == 16 * dw

    def test_linear_flops(self):
        assert linear_flops(100, 10) == 2000
