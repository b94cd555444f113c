"""Search space and architecture configs (with hypothesis properties)."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nas import (MBV3_SPACE, ArchConfig, crossover_arch, max_arch,
                       min_arch, mutate_arch, random_arch, tiny_space)
from repro.nas.search_space import SearchSpace, StageSpec


def arch_strategy(space=MBV3_SPACE):
    slots = space.num_stages * space.max_depth
    return st.builds(
        ArchConfig,
        resolution=st.sampled_from(space.resolution_options),
        depths=st.tuples(*[st.sampled_from(space.depth_options)
                           for _ in range(space.num_stages)]),
        kernels=st.tuples(*[st.sampled_from(space.kernel_options)
                            for _ in range(slots)]),
        expands=st.tuples(*[st.sampled_from(space.expand_options)
                            for _ in range(slots)]),
    )


class TestSearchSpace:
    def test_mbv3_dimensions(self):
        assert MBV3_SPACE.num_stages == 5
        assert MBV3_SPACE.max_depth == 4
        assert MBV3_SPACE.max_blocks == 20

    def test_submodel_count_is_huge(self):
        # The paper's OFA-style spaces have >1e9 submodels.
        assert MBV3_SPACE.num_submodels() > 1e9

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(stages=())

    def test_duplicate_options_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(stages=(StageSpec(16, 2, False, "relu"),),
                        kernel_options=(3, 3))

    def test_derived_constants_leave_the_dataclass_as_it_was(self):
        """``num_stages`` / ``max_depth`` / ``min_depth`` are computed
        once and kept on the instance; they are not fields."""
        fresh, read = tiny_space(), tiny_space()
        assert (read.num_stages, read.max_depth, read.min_depth,
                read.max_blocks) == (3, 2, 1, 6)
        assert read.max_depth is read.max_depth
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert dataclasses.astuple(read) == dataclasses.astuple(fresh)
        deeper = dataclasses.replace(read, depth_options=(2, 3, 5))
        assert (deeper.min_depth, deeper.max_depth, deeper.max_blocks) \
            == (2, 5, 15)
        assert dataclasses.replace(read) == fresh
        assert copy.deepcopy(read) == fresh
        with pytest.raises(dataclasses.FrozenInstanceError):
            read.stem_ch = 4

    def test_tiny_space_trains_fast(self):
        ts = tiny_space()
        assert ts.max_blocks <= 6
        assert max(ts.resolution_options) <= 32


class TestArchConfig:
    def test_max_min_valid(self):
        for a in (max_arch(MBV3_SPACE), min_arch(MBV3_SPACE)):
            a.validate(MBV3_SPACE)

    def test_max_bigger_than_min(self):
        mx, mn = max_arch(MBV3_SPACE), min_arch(MBV3_SPACE)
        assert mx.num_blocks() > mn.num_blocks()
        assert mx.resolution > mn.resolution

    def test_validate_rejects_bad_resolution(self):
        a = max_arch(MBV3_SPACE)
        bad = ArchConfig(999, a.depths, a.kernels, a.expands)
        with pytest.raises(ValueError):
            bad.validate(MBV3_SPACE)

    def test_validate_rejects_bad_depth(self):
        a = max_arch(MBV3_SPACE)
        bad = ArchConfig(a.resolution, (9,) * 5, a.kernels, a.expands)
        with pytest.raises(ValueError):
            bad.validate(MBV3_SPACE)

    def test_active_slots_respects_depth(self):
        a = min_arch(MBV3_SPACE)
        slots = a.active_slots(MBV3_SPACE)
        assert len(slots) == a.num_blocks()
        assert all(s % MBV3_SPACE.max_depth < 2 for s in slots)

    def test_encoding_length(self):
        a = max_arch(MBV3_SPACE)
        enc = a.encode(MBV3_SPACE)
        assert enc.shape == (ArchConfig.encoding_length(MBV3_SPACE),)

    @given(arch_strategy())
    @settings(max_examples=40, deadline=None)
    def test_encoding_bounded(self, arch):
        enc = arch.encode(MBV3_SPACE)
        assert (enc >= 0).all() and (enc <= 1).all()

    @given(arch_strategy())
    @settings(max_examples=40, deadline=None)
    def test_canonical_key_ignores_inactive_slots(self, arch):
        """Perturbing an inactive slot must not change identity."""
        space = MBV3_SPACE
        active = set(arch.active_slots(space))
        inactive = [i for i in range(space.num_stages * space.max_depth)
                    if i not in active]
        if not inactive:
            return
        kernels = list(arch.kernels)
        kernels[inactive[0]] = (7 if kernels[inactive[0]] != 7 else 3)
        other = ArchConfig(arch.resolution, arch.depths, tuple(kernels),
                           arch.expands)
        assert arch.canonical_key(space) == other.canonical_key(space)

    def test_a_kept_key_is_each_spaces_own_and_leaves_the_dataclass(self):
        """The key is kept on the instance beside its space: asked under
        another space it is that space's; it is not a field."""
        shallow = dataclasses.replace(MBV3_SPACE, depth_options=(2, 3))
        rng = np.random.default_rng(3)
        arch = dataclasses.replace(random_arch(MBV3_SPACE, rng),
                                   depths=(2,) * MBV3_SPACE.num_stages)
        fresh = dataclasses.replace(arch)
        deep = ArchConfig(*dataclasses.astuple(arch)).canonical_key(MBV3_SPACE)
        flat = ArchConfig(*dataclasses.astuple(arch)).canonical_key(shallow)
        assert deep != flat
        for space, want in ((MBV3_SPACE, deep), (shallow, flat),
                            (MBV3_SPACE, deep), (MBV3_SPACE, deep)):
            assert arch.canonical_key(space) == want
        assert arch == fresh and hash(arch) == hash(fresh)
        assert repr(arch) == repr(fresh)
        assert dataclasses.asdict(arch) == dataclasses.asdict(fresh)
        assert dataclasses.replace(arch) == fresh
        assert repr(dataclasses.replace(arch)) == repr(fresh)
        copied = copy.deepcopy(arch)
        assert copied == fresh and hash(copied) == hash(fresh)
        assert repr(copied) == repr(fresh)
        assert copied.canonical_key(shallow) == flat

    @given(arch_strategy(), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_mutation_stays_in_space(self, arch, seed):
        rng = np.random.default_rng(seed)
        m = mutate_arch(arch, MBV3_SPACE, rate=0.5, rng=rng)
        m.validate(MBV3_SPACE)

    @given(arch_strategy(), arch_strategy(), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_crossover_stays_in_space(self, a, b, seed):
        rng = np.random.default_rng(seed)
        c = crossover_arch(a, b, rng=rng)
        c.validate(MBV3_SPACE)

    def test_random_arch_deterministic_per_seed(self):
        a = random_arch(MBV3_SPACE, np.random.default_rng(5))
        b = random_arch(MBV3_SPACE, np.random.default_rng(5))
        assert a == b
