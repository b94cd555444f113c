"""Execution plans: constructors and validation."""

import pytest

from repro.devices import desktop_gtx1080, rpi4
from repro.models import get_model
from repro.nas.evolution import candidate_plans
from repro.netsim import Cluster, NetworkCondition
from repro.partition import (BlockPlan, ExecutionPlan, Grid,
                             layerwise_split_plan, simulate_latency,
                             single_device_plan, spatial_front_plan,
                             spatial_plan)
from repro.partition.compiled import compile_plan, price
from repro.partition.plan import greedy_spatial_plan


@pytest.fixture(scope="module")
def graph():
    return get_model("mobilenet_v3_large")


class TestBlockPlan:
    def test_device_count_must_match_grid(self):
        with pytest.raises(ValueError):
            BlockPlan(Grid(2, 2), (0, 1))

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            BlockPlan(Grid(1, 1), (0,), bits=12)

    def test_negative_device(self):
        with pytest.raises(ValueError):
            BlockPlan(Grid(1, 1), (-1,))

    def test_device_set_sorted_unique(self):
        bp = BlockPlan(Grid(2, 2), (3, 1, 3, 0))
        assert bp.device_set == (0, 1, 3)


class TestExecutionPlanValidation:
    def test_empty_plan(self):
        with pytest.raises(ValueError):
            ExecutionPlan([])

    def test_length_mismatch(self, graph):
        plan = ExecutionPlan([BlockPlan(Grid(1, 1), (0,))])
        with pytest.raises(ValueError, match="entries"):
            plan.validate_for(graph, 2)

    def test_fused_block_must_be_unpartitioned(self, graph):
        plans = [BlockPlan(Grid(1, 1), (0,)) for _ in graph]
        plans[-1] = BlockPlan(Grid(1, 2), (0, 1))  # head.fc is fused
        with pytest.raises(ValueError, match="fused"):
            ExecutionPlan(plans).validate_for(graph, 2)

    def test_device_out_of_range(self, graph):
        plans = [BlockPlan(Grid(1, 1), (5,)) for _ in graph]
        with pytest.raises(ValueError, match="device 5"):
            ExecutionPlan(plans).validate_for(graph, 2)

    def test_output_device_out_of_range(self, graph):
        plans = [BlockPlan(Grid(1, 1), (0,)) for _ in graph]
        with pytest.raises(ValueError, match="output device"):
            ExecutionPlan(plans, output_device=9).validate_for(graph, 2)

    @pytest.mark.parametrize("walker", ["simulate", "compiled"])
    def test_negative_output_device_is_rejected_not_priced(self, graph,
                                                           walker):
        """-1 used to pass validation and die in ``transfer_time`` with
        a bare ``KeyError: -1``, in both plan walkers."""
        cluster = Cluster([rpi4(), desktop_gtx1080()],
                          NetworkCondition((100.0,), (10.0,)))
        plan = ExecutionPlan([BlockPlan(Grid(1, 1), (1,)) for _ in graph],
                             output_device=-1)
        with pytest.raises(ValueError, match="output device out of range"):
            if walker == "simulate":
                simulate_latency(graph, plan, cluster)
            else:
                price(compile_plan(graph, plan, cluster.devices), cluster)


class TestConstructors:
    def test_single_device(self, graph):
        plan = single_device_plan(graph, 0)
        plan.validate_for(graph, 1)
        assert plan.devices_used() == (0,)

    def test_layerwise_split(self, graph):
        plan = layerwise_split_plan(graph, 5, remote=1)
        plan.validate_for(graph, 2)
        assert all(bp.devices == (0,) for bp in plan.block_plans[:5])
        assert all(bp.devices == (1,) for bp in plan.block_plans[5:])

    def test_layerwise_split_bounds(self, graph):
        with pytest.raises(ValueError):
            layerwise_split_plan(graph, len(graph) + 1)
        # 0 and len(graph) are both legal extremes
        layerwise_split_plan(graph, 0).validate_for(graph, 2)
        layerwise_split_plan(graph, len(graph)).validate_for(graph, 2)

    def test_spatial_plan_heads_on_aggregator(self, graph):
        plan = spatial_plan(graph, Grid(2, 2), [1, 2, 3, 4])
        plan.validate_for(graph, 5)
        assert plan.block_plans[-1].devices == (0,)
        assert plan.block_plans[2].grid == Grid(2, 2)

    def test_spatial_plan_device_count(self, graph):
        with pytest.raises(ValueError):
            spatial_plan(graph, Grid(2, 2), [1, 2])

    def test_spatial_front_only_large_maps(self, graph):
        plan = spatial_front_plan(graph, Grid(2, 2), [1, 2, 3, 4], min_hw=14)
        plan.validate_for(graph, 5)
        for bp, block in zip(plan.block_plans, graph):
            if bp.grid.ntiles > 1:
                assert min(block.out_hw) >= 14

    def test_greedy_plan_valid_and_mixed(self, graph):
        plan = greedy_spatial_plan(graph, list(range(5)))
        plan.validate_for(graph, 5)
        grids = {str(bp.grid) for bp in plan}
        assert len(grids) >= 2  # mixes at least two grid sizes

    def test_greedy_plan_respects_device_pool(self, graph):
        plan = greedy_spatial_plan(graph, [0, 1])
        plan.validate_for(graph, 2)
        assert all(max(bp.devices) <= 1 for bp in plan)


class TestSharedBlockPlans:
    """The constructors build each distinct ``(grid, devices, bits)``
    once per plan and repeat the frozen instance."""

    def test_a_plan_holds_one_instance_per_distinct_setting(self, graph):
        plans = candidate_plans(graph, Cluster(
            [rpi4()] * 9, NetworkCondition.uniform(8, 100.0, 10.0)))
        assert len(plans) >= 30
        for plan in plans:
            distinct = {(bp.grid, bp.devices, bp.bits) for bp in plan}
            assert len({id(bp) for bp in plan}) == len(distinct)

    def test_a_cold_enumeration_validates_few_block_plans(self, graph,
                                                          monkeypatch):
        built = []
        post_init = BlockPlan.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(BlockPlan, "__post_init__", counted)
        plans = candidate_plans(graph, Cluster(
            [rpi4()] * 3, NetworkCondition.uniform(2, 100.0, 10.0)))
        # at most a handful of settings per template, not one per block
        assert len(built) <= 4 * len(plans)
        assert sum(len(plan) for plan in plans) >= 15 * len(plans)

    def test_settings_are_built_only_when_a_block_needs_them(self, graph):
        """An invalid id for a role no block plays raised nothing before
        the instances were shared, and raises nothing now."""
        layerwise_split_plan(graph, len(graph), remote=-1)     # all local
        layerwise_split_plan(graph, 0, local=-1)               # all remote
        spatial_front_plan(graph, Grid(1, 2), [-1, -2], min_hw=10 ** 6)
        with pytest.raises(ValueError, match="non-negative"):
            layerwise_split_plan(graph, 1, local=-1)
        with pytest.raises(ValueError, match="non-negative"):
            spatial_plan(graph, Grid(1, 2), [0, -1])
        with pytest.raises(ValueError, match="non-negative"):
            greedy_spatial_plan(graph, [0, 1], aggregator=-1)
