"""Fig. 18 — Strategy decision time: evolutionary search vs the RL
policy, projected onto the GPU desktop and the Raspberry Pi.

Paper numbers: evolutionary 50.7 s (desktop) / 778 s (Pi); RL 0.03 s /
1.05 s — a ~1700x / ~740x gap.  We measure both implementations' host
wall-time and project through each device's control-plane speed factor;
the shape to reproduce is the orders-of-magnitude gap.

Evolutionary search runs on the shared latency simulator, so every
speed-up of ``simulate_latency`` / ``build_graph`` / the plan templates
narrows the host ratio while one RL decision stays LSTM-bound (PR 20:
66x -> 36x at the reduced budget).  A reduced budget is therefore held
to its *share* of the paper-scale bar — ``50 x population x generations
/ (100 x 20)`` — and the full-scale run to the bar itself (``> 50``).
The RL side averages 20 decisions so that the first, cold one (about
twice a warm one) does not decide the ratio.
"""

import pytest

from benchmarks.conftest import full_scale
from repro.eval import fig18_search_time, format_search_time
from repro.nas.evolution import EvolutionConfig

PAPER_SCALE = EvolutionConfig(population=100, generations=20)
CFG = (PAPER_SCALE if full_scale()
       else EvolutionConfig(population=40, generations=10))
#: evolutionary / RL host-time ratio this budget must exceed
MIN_RATIO = 50.0 * (CFG.population * CFG.generations) / (
    PAPER_SCALE.population * PAPER_SCALE.generations)


@pytest.mark.benchmark(group="fig18")
def test_fig18_search_time(benchmark):
    data = benchmark.pedantic(
        lambda: fig18_search_time(evolution_config=CFG, repeats=20),
        rounds=1, iterations=1)
    print("\n=== Fig 18: decision time ===")
    print(format_search_time(data))

    for dev in ("desktop_gtx1080", "rpi4"):
        ratio = data["evolutionary"][dev] / data["rl"][dev]
        print(f"{dev}: evolutionary/RL ratio = {ratio:.0f}x "
              f"(must exceed {MIN_RATIO:.0f}x)")
        assert ratio > MIN_RATIO
    # RL decisions are sub-second even on the Pi-class device at the
    # reduced budget, and ~tens of ms on the desktop.
    assert data["rl"]["desktop_gtx1080"] < 0.2
