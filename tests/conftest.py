import tracemalloc

import numpy as np
import pytest

from posreal import realize


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls fn() under tracemalloc: (its result, the peak of traced bytes)."""
    def run(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run


@pytest.fixture
def parallel():
    """Realization of z1 z2 / (z1 + z2) (two conductances in series)."""
    return realize([np.array([[1.0, 1.0], [1.0, 1.0]]),
                    np.array([[0.0, 0.0], [0.0, 1.0]])], 1)


def parallel_value(z):
    z = np.asarray(z, dtype=complex)
    return z[..., 0] * z[..., 1] / (z[..., 0] + z[..., 1])
