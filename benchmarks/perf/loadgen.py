"""Seeded load generators: every input the benchmark feeds the program.

Pure functions of ``(seed, parameters)`` over NumPy generators; nothing
here imports ``repro``.  The adapter turns these arrays into the
program's own types (conditions, fault events, tasks), so the program
under test only ever sees generated inputs.

Each generator draws from its own stream ``default_rng((seed, stream))``
so adding a draw to one never shifts another.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

# one stream id per kind of input
(_ARRIVALS, _PACED, _SWEEP, _TENANT, _RING, _ACTIONS, _CAPACITY,
 TASKS) = range(8)


def stream_rng(seed: int, stream: int, sub: int = 0) -> np.random.Generator:
    """The generator behind one input stream of one seed."""
    return np.random.default_rng((int(seed), stream, sub))


def poisson_arrivals(seed: int, rate_hz: float, n: int,
                     sub: int = 0) -> np.ndarray:
    """``n`` open-loop Poisson arrival times (seconds, increasing)."""
    rng = stream_rng(seed, _ARRIVALS, sub)
    return np.cumsum(rng.exponential(1.0 / rate_hz, n))


def paced_arrivals(seed: int, rate_hz: float, n: int) -> np.ndarray:
    """``n`` arrival times, one per ``1 / rate_hz`` slot at a seeded
    offset inside it: the rate never wanders, only the instants do."""
    rng = stream_rng(seed, _PACED)
    return (np.arange(n) + rng.uniform(0.0, 1.0, n)) / rate_hz


def sweep(seed: int, num_remote: int, bw_range: Tuple[float, float],
          delay_range: Tuple[float, float], steps: int,
          bw_speed: float, delay_speed: float,
          jitter: float = 0.005) -> Tuple[np.ndarray, np.ndarray]:
    """Drifting link conditions: ``(bandwidth[steps, r], delay[steps, r])``.

    Every remote approaches at constant speed -- bandwidth climbs its
    range while delay falls, ``*_speed`` ranges per step -- and on
    reaching the end hands over to the far end of the range and starts
    again (a sawtooth), from a seeded phase and with Gaussian jitter of
    ``jitter`` ranges.  Unlike a free random walk, every seed crosses
    the same number of cache cells per second and spends the same time
    in every part of each range, so the miss rate and the latency
    distribution barely depend on the seed, while the exact conditions
    always do.
    """
    rng = stream_rng(seed, _SWEEP)
    t = np.arange(steps)[:, None]

    def ramp(speed: float) -> np.ndarray:
        x = (rng.uniform(0.0, 1.0, num_remote) + speed * t) % 1.0
        return np.clip(x + rng.normal(0.0, jitter, x.shape), 0.0, 1.0)

    (blo, bhi), (dlo, dhi) = bw_range, delay_range
    return (blo + (bhi - blo) * ramp(bw_speed),
            dhi - (dhi - dlo) * ramp(delay_speed))


def tenant_arrivals(seed: int, tenants: Sequence[Tuple[str, float, float]],
                    n: int, burst_window: Tuple[float, float],
                    burst_every_s: float) -> Tuple[np.ndarray, List[str]]:
    """Merged per-tenant streams, truncated to ``n`` requests.

    ``tenants`` holds ``(name, rate_hz, burst_factor)``; a tenant's rate
    is multiplied by its factor while ``t mod burst_every_s`` lies in
    ``burst_window``.  Arrivals are evenly spaced in each tenant's own
    intensity (one per unit of integrated rate) with a seeded jitter
    inside each slot: the bursts are the designed stress, and Poisson
    clumping on top of them only made the shed count swing with the
    seed.  Returns arrival times and aligned tenant tags.
    """
    t0, t1 = burst_window
    merged: List[Tuple[float, str]] = []
    for k, (name, rate_hz, factor) in enumerate(tenants):
        slots = np.arange(n) + stream_rng(seed, _TENANT, k).uniform(0, 1, n)
        t = done = 0.0
        for target in slots:
            # advance t until the integrated rate reaches ``target``
            while True:
                phase = t % burst_every_s
                bursting = t0 <= phase < t1
                rate = rate_hz * factor if bursting else rate_hz
                edge = t - phase + (t1 if bursting else
                                    t0 if phase < t0 else burst_every_s + t0)
                if done + rate * (edge - t) >= target:
                    t += (target - done) / rate
                    done = target
                    break
                done += rate * (edge - t)
                t = edge
            merged.append((t, name))
    merged.sort()
    merged = merged[:n]
    return (np.array([t for t, _ in merged]), [name for _, name in merged])


def ring_transfers(seed: int, n: int, nodes: int, base_hz: float,
                   burst_flows: int, burst_every_s: float,
                   median_bytes: float, sigma: float) -> dict:
    """Transfers on a ring: a Poisson base stream plus ``burst_flows``
    uniform arrivals in the first second of every ``burst_every_s``
    window (starting with the second window), lognormal sizes, and a
    1-3 hop path from a random node in a random direction."""
    rng = stream_rng(seed, _RING)
    base = np.cumsum(rng.exponential(1.0 / base_hz, n))
    bursts = [k * burst_every_s + rng.uniform(0.0, 1.0, burst_flows)
              for k in range(1, int(base[-1] / burst_every_s) + 2)]
    times = np.sort(np.concatenate([base] + bursts))[:n]
    return {
        "t": times,
        "nbytes": median_bytes * rng.lognormal(0.0, sigma, n),
        "src": rng.integers(0, nodes, n),
        "hops": rng.integers(1, 4, n),
        "step": rng.choice((-1, 1), n),
    }


def action_sequences(seed: int, n_choices: Sequence[int],
                     n: int) -> np.ndarray:
    """``n`` uniform-random action sequences over a decision schedule
    whose step ``k`` has ``n_choices[k]`` options: ``int[n, steps]``."""
    rng = stream_rng(seed, _ACTIONS)
    return rng.integers(0, np.asarray(n_choices), (n, len(n_choices)))


def capacity_steps(seed: int, pattern: Sequence[float], steps: int,
                   wobble: float = 0.05) -> List[float]:
    """A piecewise-constant capacity trace: ``pattern`` repeated, each
    cell scaled by a seeded factor within ``1 +- wobble``.  The dips sit
    at the same instants for every seed; their exact depths do not."""
    rng = stream_rng(seed, _CAPACITY)
    scale = rng.uniform(1.0 - wobble, 1.0 + wobble, steps)
    return [float(pattern[k % len(pattern)] * scale[k]) for k in range(steps)]
