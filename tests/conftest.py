"""Shared fixtures."""

import functools

import numpy as np
import pytest

from tests import frozen


@pytest.fixture(scope="session")
def moved():
    """:func:`tests.frozen.moved`, each entry computed once a session."""
    return functools.lru_cache(maxsize=None)(frozen.moved)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * eps)
    return g
