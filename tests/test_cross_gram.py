"""The blockwise cross-Gram residual against the dense all-pairs formulas.

Each reference below builds the full (N, g, g, n, n) kernel tensor and
the two-point target over grid x grid, as the identity residuals were
computed before they went through ``core.cross_gram_residual``; the
library values must agree with them to roundoff.
"""

import tracemalloc

import numpy as np
import pytest

from posreal import core, sampling
from posreal.cayley import DiskKernelEvaluator
from posreal.colligation import AglerColligation, agler_identity_residual, build_colligation
from posreal.core import ShapeError, cross_gram_residual
from posreal.kernels import (
    KernelEvaluator,
    kernel_identity_residual,
    plus_minus_residuals,
    sample_kernels,
)
from posreal.pencil import diagonal_realization, realize


def _pair_kernels(lefts, rights):
    """(N, B, C, n, n) with entry [k, b, c] = lefts[k][c]* rights[k][b]."""
    return np.stack([np.einsum("cmi,bmj->bcij", l.conj(), r) for l, r in zip(lefts, rights)])


def _worst(lhs, target, scale):
    return float(np.max(np.linalg.norm(lhs - target, axis=(2, 3)) / scale[:, None]))


def dense_kernel(pts, tables, fvals):
    lhs = np.einsum("bk,kbcij->bcij", pts, _pair_kernels(tables, tables))
    return _worst(lhs, fvals[:, None], 1.0 + np.linalg.norm(fvals, axis=(1, 2)))


def dense_plus_minus(pts, tables, fvals):
    kern = _pair_kernels(tables, tables)
    fstar = fvals.conj().transpose(0, 2, 1)
    scale = 1.0 + np.linalg.norm(fvals, axis=(1, 2))
    out = []
    for sign in (1.0, -1.0):
        weights = pts[:, None, :] + sign * pts.conj()[None, :, :]
        lhs = np.einsum("bck,kbcij->bcij", weights, kern)
        out.append(_worst(lhs, fvals[:, None] + sign * fstar[None, :], scale))
    return tuple(out)


def dense_disk(pts, lefts, rights, vals, herglotz, scaled):
    """Disk-side plus/minus residuals; the plus target is F(w) + F(o)* when
    ``herglotz`` and I - S(o)* S(w) otherwise."""
    kern = _pair_kernels(lefts, rights)
    vstar = vals.conj().transpose(0, 2, 1)
    scale = 1.0 + np.linalg.norm(vals, axis=(1, 2)) if scaled else np.ones(len(pts))
    if herglotz:
        tgt_plus = vals[:, None] + vstar[None, :]
    else:
        tgt_plus = np.eye(vals.shape[-1]) - np.einsum("cij,bjl->bcil", vstar, vals)
    lhs_plus = np.einsum("bck,kbcij->bcij", 1.0 - pts.conj()[None, :, :] * pts[:, None, :], kern)
    lhs_minus = np.einsum("bck,kbcij->bcij", pts[:, None, :] - pts.conj()[None, :, :], kern)
    return (_worst(lhs_plus, tgt_plus, scale),
            _worst(lhs_minus, vals[:, None] - vstar[None, :], scale))


def dense_agler(c, pts):
    a, b, _, _ = c.blocks()
    pw = c.state_weights(pts)
    eye = np.eye(c.dim_state)
    rhs = np.broadcast_to(b, (len(pts),) + b.shape)
    right = np.linalg.solve(eye - a[None] * pw[:, None, :], rhs)
    left = np.linalg.solve(eye - a.conj().T[None] * pw[:, None, :], rhs)
    cuts = np.cumsum(c.dims)[:-1]
    return dense_disk(pts, np.split(left, cuts, axis=1), np.split(right, cuts, axis=1),
                      c(pts), herglotz=False, scaled=False)


def _rank_deficient():
    rng = np.random.default_rng(11)
    v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    return realize([np.outer(v[k], v[k].conj()) for k in range(3)], 2)


PENCILS = {
    "random": lambda: sampling.random_pencil(np.random.default_rng(5), 3, 2, 4),
    "rank-deficient": _rank_deficient,
    "p0": lambda: diagonal_realization([np.eye(2), np.diag([1.0, 3.0])]),
}


def _library_and_dense(identity, f, g):
    zs = sampling.halfplane_grid(f.num_vars, g, 3)
    ws = sampling.disk_grid(f.num_vars, g, 3)
    if identity in ("kernel", "sample-set", "plus-minus"):
        tables = KernelEvaluator(f).phi_table(zs)
        fvals = f(zs)
        if identity == "kernel":
            return kernel_identity_residual(f, zs), dense_kernel(zs, tables, fvals)
        if identity == "sample-set":
            return sample_kernels(f, zs).identity_residual(), dense_kernel(zs, tables, fvals)
        return plus_minus_residuals(f, zs), dense_plus_minus(zs, tables, fvals)
    disk = DiskKernelEvaluator(f)
    if identity == "herglotz":
        xis = [disk.xi(k, ws) for k in range(f.num_vars)]
        return (disk.herglotz_identity_residuals(ws),
                dense_disk(ws, xis, xis, disk.view.eval_F(ws), herglotz=True, scaled=True))
    thetas = disk.theta_table(ws)
    svals = disk.view.eval_double_cayley(ws)
    if identity == "schur":
        return (disk.schur_identity_residuals(ws),
                dense_disk(ws, thetas, thetas, svals, herglotz=False, scaled=True))
    coll = build_colligation(ws, thetas, svals).colligation
    return agler_identity_residual(coll, ws), dense_agler(coll, ws)


@pytest.mark.parametrize("g", [1, core._ROW_BLOCK + 3])
@pytest.mark.parametrize("pencil", sorted(PENCILS))
@pytest.mark.parametrize("identity", ["kernel", "sample-set", "plus-minus", "herglotz",
                                      "schur", "agler"])
def test_matches_dense_formula(identity, pencil, g):
    got, want = _library_and_dense(identity, PENCILS[pencil](), g)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.max(want) < 1e-12  # the identities hold, so both are roundoff


def test_broken_colligation_matches_relatively():
    f = PENCILS["random"]()
    ws = sampling.disk_grid(f.num_vars, core._ROW_BLOCK + 3, 3)
    disk = DiskKernelEvaluator(f)
    c = build_colligation(ws, disk.theta_table(ws), disk.view.eval_double_cayley(ws)).colligation
    u = c.U.copy()
    u[0, -1] += 0.3  # still selfadjoint, no longer unitary
    u[-1, 0] += 0.3
    broken = AglerColligation(c.dims, c.n, u, selfadjoint=True)
    got, want = agler_identity_residual(broken, ws), dense_agler(broken, ws)
    assert want[0] > 0.1
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("u", [np.diag([1.0, -1.0]), np.array([[0.6, 0.8], [0.8, -0.6]])])
def test_stateless_colligation(u):
    c = AglerColligation((0, 0), 2, u, selfadjoint=True)
    ws = sampling.disk_grid(2, core._ROW_BLOCK + 3, 1)
    got = agler_identity_residual(c, ws)
    np.testing.assert_allclose(got, dense_agler(c, ws), rtol=0, atol=1e-12)
    assert max(got) < 1e-12


@pytest.mark.parametrize("g", [1, 5, 2 * core._ROW_BLOCK + 3])
def test_primitive_on_explicit_families(g):
    rng = np.random.default_rng(g)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    scale = 1.0 + rng.random(g)
    scale[-1] = 1e-3  # the largest ratio sits in the last, partial block
    want = max(np.linalg.norm(x[c].conj().T @ y[b]) / scale[b]
               for b in range(g) for c in range(g))
    assert cross_gram_residual(x, y, scale) == pytest.approx(want, rel=1e-13)
    assert cross_gram_residual(x, y) == pytest.approx(
        max(np.linalg.norm(x[c].conj().T @ y[b]) for b in range(g) for c in range(g)), rel=1e-13)
    with pytest.raises(ShapeError):
        cross_gram_residual(x, y[:, :2])


def test_memory_stays_blockwise():
    f = sampling.random_pencil(np.random.default_rng(1), 3, 4, 4)
    zs = sampling.halfplane_grid(3, 600, 1)
    dense_bytes = 3 * 600 ** 2 * 4 ** 2 * 16  # one (N, g, g, n, n) complex tensor
    tracemalloc.start()
    try:
        res = kernel_identity_residual(f, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res < 1e-12
    assert peak < dense_bytes / 10
