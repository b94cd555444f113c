"""Cost-graph builder: structural and monotonicity properties."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.graph import ComputeBlock
from repro.nas import (MBV3_SPACE, ArchConfig, build_graph, max_arch,
                       min_arch, random_arch)
from repro.nas.accuracy_model import arch_accuracy

SPACE = MBV3_SPACE


def arch_strategy():
    slots = SPACE.num_stages * SPACE.max_depth
    return st.builds(
        ArchConfig,
        resolution=st.sampled_from(SPACE.resolution_options),
        depths=st.tuples(*[st.sampled_from(SPACE.depth_options)
                           for _ in range(SPACE.num_stages)]),
        kernels=st.tuples(*[st.sampled_from(SPACE.kernel_options)
                            for _ in range(slots)]),
        expands=st.tuples(*[st.sampled_from(SPACE.expand_options)
                            for _ in range(slots)]),
    )


class TestStructure:
    @given(arch_strategy())
    @settings(max_examples=30, deadline=None)
    def test_block_count_matches_arch(self, arch):
        g = build_graph(arch, SPACE)
        # stem + active blocks + final conv + pool + fc
        assert len(g) == 1 + arch.num_blocks() + 3

    @given(arch_strategy())
    @settings(max_examples=30, deadline=None)
    def test_stage_tags_cover_blocks(self, arch):
        g = build_graph(arch, SPACE)
        stages = [b.stage for b in g if 1 <= b.stage <= SPACE.num_stages]
        assert len(stages) == arch.num_blocks()

    @given(arch_strategy())
    @settings(max_examples=30, deadline=None)
    def test_halo_matches_kernels(self, arch):
        g = build_graph(arch, SPACE)
        active = arch.active_slots(SPACE)
        trunk = [b for b in g if 1 <= b.stage <= SPACE.num_stages]
        for block, slot in zip(trunk, active):
            assert block.halo == arch.kernels[slot] // 2

    def test_flops_bracketed_by_extremes(self):
        rng = np.random.default_rng(0)
        lo = build_graph(min_arch(SPACE), SPACE).total_flops
        hi = build_graph(max_arch(SPACE), SPACE).total_flops
        for _ in range(15):
            f = build_graph(random_arch(SPACE, rng), SPACE).total_flops
            assert lo <= f <= hi


class TestSharedBlocks:
    """Graphs are assembled from shared frozen ``ComputeBlock``s."""

    def test_archs_that_share_a_stage_share_its_block_objects(self):
        a = random_arch(SPACE, np.random.default_rng(4))
        slots = SPACE.max_depth
        # same resolution and first two stages; the rest differs
        b = ArchConfig(
            a.resolution, a.depths[:2] + (2, 4, 3),
            a.kernels[:2 * slots] + (3,) * (3 * slots),
            a.expands[:2 * slots] + (6,) * (3 * slots))
        ga, gb = build_graph(a, SPACE), build_graph(b, SPACE)
        front = 1 + sum(a.depths[:2])
        for x, y in zip(ga.blocks[1:front], gb.blocks[1:front]):
            assert x is y
        assert ga.blocks[:front] == gb.blocks[:front]
        assert ga.blocks is not gb.blocks           # the lists are not shared
        # an inactive slot does not reach the graph
        c = ArchConfig(a.resolution, a.depths, a.kernels,
                       tuple(e if i in a.active_slots(SPACE) else 3
                             for i, e in enumerate(a.expands)))
        assert all(x is y for x, y in zip(
            ga.blocks[1:-3], build_graph(c, SPACE).blocks[1:-3]))

    def test_a_stride_or_input_size_change_is_another_block(self):
        lo = build_graph(min_arch(SPACE), SPACE)
        hi = build_graph(dataclasses.replace(
            min_arch(SPACE), resolution=max(SPACE.resolution_options)), SPACE)
        for x, y in zip(lo.blocks[1:-3], hi.blocks[1:-3]):
            assert x is not y and x.name == y.name and x.flops < y.flops

    @given(arch_strategy())
    @settings(max_examples=20, deadline=None)
    def test_explicit_accuracy_still_tags_the_graph(self, arch):
        tagged = build_graph(arch, SPACE, accuracy=61.5)
        plain = build_graph(arch, SPACE)
        assert tagged.accuracy == 61.5 != plain.accuracy
        assert plain.accuracy == arch_accuracy(arch, SPACE)
        assert all(x is y for x, y in zip(tagged.blocks[1:-3],
                                          plain.blocks[1:-3]))
        assert tagged.blocks == plain.blocks

    def test_an_invalid_arch_is_rejected_either_way(self):
        bad = dataclasses.replace(min_arch(SPACE), resolution=100)
        with pytest.raises(ValueError, match="resolution 100"):
            build_graph(bad, SPACE)
        with pytest.raises(ValueError, match="resolution 100"):
            build_graph(bad, SPACE, accuracy=70.0)

    def test_the_block_memo_is_bounded(self):
        from repro.nas.graph_builder import _mbconv_block
        info = _mbconv_block.cache_info()
        assert info.maxsize == 4096 and info.currsize <= info.maxsize

    def test_archs_at_one_resolution_share_their_stem_and_tail(self):
        rng = np.random.default_rng(5)
        a = random_arch(SPACE, rng)
        b = dataclasses.replace(random_arch(SPACE, rng),
                                resolution=a.resolution,
                                depths=tuple(reversed(a.depths)))
        ga, gb = build_graph(a, SPACE), build_graph(b, SPACE)
        assert [x.name for x in ga.blocks[-3:]] == [
            "conv_last", "head.pool", "head.fc"]
        assert ga.blocks[0] is gb.blocks[0]
        assert all(x is y for x, y in zip(ga.blocks[-3:], gb.blocks[-3:]))
        other = build_graph(dataclasses.replace(
            a, resolution=min(SPACE.resolution_options)), SPACE)
        assert ga.blocks[0] is not other.blocks[0]

    def test_a_second_pass_builds_no_block_and_memos_stay_in_their_key_space(
            self, monkeypatch):
        """Pricing the same fresh strategies again, through a new env,
        builds no ``ComputeBlock``; each module-level memo then holds
        exactly the keys those strategies reach (DESIGN.md, "Bounds")."""
        from repro.devices import desktop_gtx1080, jetson_class, rpi4
        from repro.nas import graph_builder as gb
        from repro.netsim import NetworkCondition
        from repro.partition import simulate
        from repro.rl import MurmurationEnv, Task

        memos = (gb._mbconv_block, gb._stem, gb._tail, simulate._fdsp_factor)
        for memo in memos:
            memo.cache_clear()
        devices = [rpi4(), desktop_gtx1080(), jetson_class()]
        task = Task(0.2, NetworkCondition((120.0, 300.0), (20.0, 5.0)))
        rng = np.random.default_rng(8)
        schedule = MurmurationEnv(SPACE, devices).schedule
        strategies = [[int(rng.integers(s.n_choices)) for s in schedule]
                      for _ in range(60)]

        def price():
            env = MurmurationEnv(SPACE, devices)
            return [env.decode(a) for a in strategies], [
                env.evaluate_actions(a, task) for a in strategies]

        price()
        built = []
        init = ComputeBlock.__init__
        monkeypatch.setattr(ComputeBlock, "__init__",
                            lambda self, *a, **k: built.append(1)
                            or init(self, *a, **k))
        pairs, _ = price()
        assert built == []
        graphs = [build_graph(arch, SPACE) for arch, _ in pairs]
        trunk = {(b.name, b.flops) for g in graphs for b in g.blocks[1:-3]}
        resolutions = {arch.resolution for arch, _ in pairs}
        # a one-tile block's factor is 1.0 without the table
        fdsp = {(b.out_hw, bp.grid.rows, bp.grid.cols, b.halo)
                for g, (_, plan) in zip(graphs, pairs)
                for b, bp in zip(g, plan) if bp.grid.ntiles > 1}
        assert gb._mbconv_block.cache_info().currsize == len(trunk) <= 900
        assert gb._stem.cache_info().currsize == len(resolutions) <= 5
        tails = {g.blocks[-3].out_hw for g in graphs}   # 7x7, 6x6, 5x5
        assert gb._tail.cache_info().currsize == len(tails) <= 3
        assert simulate._fdsp_factor.cache_info().currsize == len(fdsp)


class TestMonotonicity:
    def _flops(self, **overrides):
        base = max_arch(SPACE)
        arch = ArchConfig(
            overrides.get("resolution", base.resolution),
            overrides.get("depths", base.depths),
            overrides.get("kernels", base.kernels),
            overrides.get("expands", base.expands))
        return build_graph(arch, SPACE).total_flops

    def test_resolution_monotone(self):
        flops = [self._flops(resolution=r)
                 for r in sorted(SPACE.resolution_options)]
        assert flops == sorted(flops)

    def test_depth_monotone(self):
        flops = [self._flops(depths=(d,) * SPACE.num_stages)
                 for d in sorted(SPACE.depth_options)]
        assert flops == sorted(flops)

    def test_kernel_monotone(self):
        slots = SPACE.num_stages * SPACE.max_depth
        flops = [self._flops(kernels=(k,) * slots)
                 for k in sorted(SPACE.kernel_options)]
        assert flops == sorted(flops)

    def test_expand_monotone(self):
        slots = SPACE.num_stages * SPACE.max_depth
        flops = [self._flops(expands=(e,) * slots)
                 for e in sorted(SPACE.expand_options)]
        assert flops == sorted(flops)

    def test_accuracy_and_flops_correlate(self):
        """Across random submodels, higher accuracy should broadly cost
        more compute (the trade-off the whole system navigates)."""
        from repro.nas import arch_accuracy
        rng = np.random.default_rng(1)
        archs = [random_arch(SPACE, rng) for _ in range(40)]
        acc = np.array([arch_accuracy(a, SPACE) for a in archs])
        flops = np.array([build_graph(a, SPACE).total_flops for a in archs])
        corr = np.corrcoef(acc, flops)[0, 1]
        assert corr > 0.5
