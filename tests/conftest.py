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
def dense_kernel_gate():
    """``dense_kernel_gate(ws, thetas, svals)``: the kernel identity residual of disk data, every pair written out.

    At z = z(w), F = (I + S)(I - S)^{-1} and phi_k = (1 - w_k) theta_k (I - S)^{-1};
    with E(c, b) = sum_k z_k(b) phi_k(c)* phi_k(b) - F(b), the value is
    max_b ||E(:, b)||_F / (1 + ||F(b)||_F), the column norm that the
    synthesis' gate reads from R.
    """
    def gate(ws, thetas, svals):
        n = svals.shape[-1]
        inv = np.linalg.inv(np.eye(n) - svals)
        fvals = 2.0 * inv - np.eye(n)
        z = (1.0 + ws) / (1.0 - ws)
        e = -np.broadcast_to(fvals, (len(ws),) + fvals.shape).copy()  # e[c, b] = E(c, b)
        for k, t in enumerate(thetas):
            phi = (1.0 - ws[:, k])[:, None, None] * (t @ inv)
            e += z[None, :, k, None, None] * np.einsum("cji,bjl->cbil", phi.conj(), phi)
        cols = np.sqrt(np.sum(np.abs(e) ** 2, axis=(0, 2, 3)))
        return float(np.max(cols / (1.0 + np.linalg.norm(fvals, axis=(1, 2)))))
    return gate


@pytest.fixture
def parallel():
    """Realization of z1 z2 / (z1 + z2) (two conductances in series)."""
    return realize([np.array([[1.0, 1.0], [1.0, 1.0]]),
                    np.array([[0.0, 0.0], [0.0, 1.0]])], 1)


def parallel_value(z):
    z = np.asarray(z, dtype=complex)
    return z[..., 0] * z[..., 1] / (z[..., 0] + z[..., 1])
