"""The graph builder and accuracy model against their frozen oracle.

``tests/nas/reference_graph.py`` is ``build_graph`` and ``arch_accuracy``
as they stood before the stem and tail blocks were shared per resolution,
the penalties tabled per space and the means taken by a replica of
NumPy's pairwise sum.  Everything here builds the same arch with both and
requires ``==`` on every :class:`ComputeBlock` field (types included)
and ``float.hex`` equality on the accuracy, over ``hypothesis`` archs of
``MBV3_SPACE`` and ``tiny_space()``, and holds the replica mean to
``np.add.reduce(v) / n`` bit for bit at every length from 1 to 128 and
beyond.  ``PRICE_KERNEL_N`` sets the example count; CI multiplies it by
ten.
"""

import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.graph import ComputeBlock
from repro.nas.accuracy_model import _mean, arch_accuracy
from repro.nas.arch import ArchConfig
from repro.nas.graph_builder import build_graph
from repro.nas.search_space import MBV3_SPACE, tiny_space
from tests.nas import reference_graph

KERNEL_N = int(os.environ.get("PRICE_KERNEL_N", "100"))
SPACES = {"mbv3": MBV3_SPACE, "tiny": tiny_space()}
FIELDS = [f.name for f in fields(ComputeBlock)]


def archs(space):
    """Any arch of ``space``, inactive slots included."""
    slots = space.num_stages * space.max_depth

    def options(opts, n):
        return st.tuples(*[st.sampled_from(opts) for _ in range(n)])

    return st.builds(
        ArchConfig, resolution=st.sampled_from(space.resolution_options),
        depths=options(space.depth_options, space.num_stages),
        kernels=options(space.kernel_options, slots),
        expands=options(space.expand_options, slots))


def assert_same_graph(got, want):
    assert (got.name, got.input_hw, got.input_ch, len(got)) == (
        want.name, want.input_hw, want.input_ch, len(want))
    assert got.accuracy.hex() == want.accuracy.hex()
    for a, b in zip(got, want):
        for name in FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            assert type(x) is type(y) and x == y, (a.name, name)


@pytest.mark.parametrize("name", SPACES)
def test_graphs_and_accuracies_equal_the_oracle(name):
    space = SPACES[name]

    @given(archs(space), st.sampled_from([None, 61.5]))
    @settings(max_examples=KERNEL_N, deadline=None)
    def check(arch, accuracy):
        assert (arch_accuracy(arch, space).hex()
                == reference_graph.arch_accuracy(arch, space).hex())
        assert_same_graph(build_graph(arch, space, accuracy),
                          reference_graph.build_graph(arch, space, accuracy))

    check()


def _numpy_mean(values):
    with np.errstate(all="ignore"):          # overflow and inf - inf only warn
        return float(np.add.reduce(np.asarray(values)) / len(values))


def test_the_mean_is_numpys_at_every_length():
    """Each pairwise-sum branch — a plain loop under 8 values, eight
    accumulators up to 128, halves above — on values of one sign, of both,
    of wild magnitudes, signed zeros and the penalty fractions."""
    rng = np.random.default_rng(0)
    for n in list(range(1, 129)) + [129, 136, 255, 256, 257, 1000]:
        for values in (rng.random(n), rng.normal(0.0, 1e6, n),
                       rng.random(n) * 10.0 ** rng.integers(-30, 30, n),
                       rng.choice([0.0, -0.0], n),
                       rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1 / 3], n)):
            values = values.tolist()
            assert _mean(values).hex() == _numpy_mean(values).hex(), n


@given(st.lists(st.floats(), min_size=1, max_size=300))
@settings(max_examples=KERNEL_N, deadline=None)
def test_the_mean_is_numpys_on_any_floats(values):
    assert _mean(values).hex() == _numpy_mean(values).hex()
