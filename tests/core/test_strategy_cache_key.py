"""``StrategyCache._key`` snaps a lookup in one pass, to the same cells.

The key is built with list comprehensions instead of a nested helper
and two generator expressions; the law holds it equal to the formula it
replaced on any SLO, condition and snap steps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SLO, StrategyCache
from repro.netsim import NetworkCondition


def formula_key(cache, slo, condition):
    """The key as it was first written."""
    def snap(v, step):
        return int(round(v / step))

    return (
        slo.kind,
        snap(slo.value, cache.slo_step),
        tuple(snap(b, cache.bw_step) for b in condition.bandwidths_mbps),
        tuple(snap(d, cache.delay_step) for d in condition.delays_ms),
    )


steps = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["latency", "accuracy"]), st.floats(1e-3, 100.0),
       st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.lists(st.floats(0.01, 5e3), min_size=n, max_size=n),
           st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n))),
       steps, steps, steps)
def test_the_key_is_the_formula_it_replaced(kind, value, links, slo_step,
                                            bw_step, delay_step):
    slo = SLO.latency(value) if kind == "latency" else SLO.accuracy(value)
    condition = NetworkCondition(tuple(links[0]), tuple(links[1]))
    cache = StrategyCache(slo_step=slo_step, bw_step=bw_step,
                          delay_step=delay_step)
    assert cache._key(slo, condition) == formula_key(cache, slo, condition)
