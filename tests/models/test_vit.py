"""ViT extension: profiles and patch-parallel (global attention)
partitioning semantics in the simulator."""

import pytest

from repro.devices import rpi4
from repro.models import vit_base_16, vit_profile, vit_small_16
from repro.netsim import NetworkCondition, star_topology
from repro.partition import (Grid, simulate_latency, single_device_plan,
                             spatial_plan)


class TestViTProfiles:
    def test_vit_base_calibration(self):
        v = vit_base_16()
        assert v.total_flops / 2e9 == pytest.approx(17.5, rel=0.1)
        assert v.total_weight_bytes / 4e6 == pytest.approx(86.0, rel=0.1)
        assert v.accuracy == 77.9

    def test_vit_small_smaller(self):
        assert vit_small_16().total_flops < vit_base_16().total_flops / 3

    def test_transformer_blocks_carry_sync(self):
        v = vit_base_16()
        trunk = [b for b in v.blocks if b.name.startswith("block")]
        assert len(trunk) == 12
        assert all(b.sync_elements > 0 for b in trunk)
        assert v.blocks[0].sync_elements == 0  # patch embed is local

    def test_custom_profile(self):
        v = vit_profile("tiny", depth=2, hidden=64, mlp_ratio=2,
                        accuracy=50.0, resolution=64, patch=16)
        assert len(v) == 4  # embed + 2 blocks + head


class TestPatchParallelSimulation:
    def _cluster(self, bw):
        return star_topology([rpi4() for _ in range(5)],
                             NetworkCondition((bw,) * 4, (2.0,) * 4))

    def test_patch_parallel_speedup_on_fast_links(self):
        v = vit_small_16()
        cl = self._cluster(1000.0)
        single = simulate_latency(v, single_device_plan(v), cl).total_s
        pp = simulate_latency(v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3]),
                              cl).total_s
        assert pp < single / 2.5

    def test_kv_exchange_priced_per_block(self):
        """Partitioned attention must move far more bytes than a conv
        model of similar activation size would."""
        v = vit_small_16()
        cl = self._cluster(100.0)
        rep = simulate_latency(v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3]),
                               cl)
        # 12 blocks x 4 tiles x 3 peers = 144 sync transfers + scatter
        assert rep.num_transfers > 100

    def test_slow_links_erode_the_win(self):
        v = vit_small_16()
        fast = simulate_latency(
            v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3]),
            self._cluster(1000.0)).total_s
        slow = simulate_latency(
            v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3]),
            self._cluster(5.0)).total_s
        assert slow > fast * 1.5

    def test_quantized_kv_exchange_helps_on_slow_links(self):
        v = vit_small_16()
        cl = self._cluster(10.0)
        fp32 = simulate_latency(
            v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3], bits=32), cl).total_s
        int8 = simulate_latency(
            v, spatial_plan(v, Grid(2, 2), [0, 1, 2, 3], bits=8), cl).total_s
        assert int8 < fp32
