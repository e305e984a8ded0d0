"""The blockwise cross-Gram residual against the dense all-pairs formulas.

Each reference below builds the full (N, g, g, n, n) kernel tensor and
the two-point target over grid x grid, as the identity residuals were
computed before they went through ``core.cross_gram_residual``; the
library values must agree with them to roundoff.
"""

import warnings

import numpy as np
import pytest

from posreal import core, sampling
from posreal.cayley import DiskFunctionView, DiskKernelEvaluator, disk_to_halfplane
from posreal.colligation import AglerColligation, agler_identity_residual, build_colligation
from posreal.core import ShapeError, cross_gram_residual, hermitian_split_residuals
from posreal.kernels import (
    KernelEvaluator,
    kernel_identity_residual,
    plus_minus_residuals,
    sample_kernels,
)
from posreal.pencil import realize


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
    "p0": lambda: realize([np.eye(2), np.diag([1.0, 3.0])], 2),
}


def _library_and_dense(identity, f, g):
    zs = sampling.halfplane_grid(f.num_vars, g, 3)
    ws = sampling.disk_grid(f.num_vars, g, 3)
    if identity in ("kernel", "sample-set", "plus-minus"):
        tables = KernelEvaluator(f).phi_table(zs).factors
        fvals = f(zs)
        if identity == "kernel":
            return kernel_identity_residual(f, zs), dense_kernel(zs, tables, fvals)
        if identity == "sample-set":
            return sample_kernels(f, zs).identity_residual(), dense_kernel(zs, tables, fvals)
        return plus_minus_residuals(f, zs), dense_plus_minus(zs, tables, fvals)
    disk = DiskKernelEvaluator(f)
    if identity == "herglotz":
        xis = [disk.xi(k, ws) for k in range(f.num_vars)]
        return (plus_minus_residuals(f, disk_to_halfplane(ws)),
                dense_disk(ws, xis, xis, DiskFunctionView(f).eval_F(ws), herglotz=True, scaled=True))
    thetas = disk.theta_table(ws)
    svals = DiskFunctionView(f).eval_double_cayley(ws)
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
    c = build_colligation(ws, disk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation
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


def _rows(x, y):
    """The (g, n, M) row layout of the primitives: x(c)* and y(b)^T."""
    return x.conj().transpose(0, 2, 1), y.transpose(0, 2, 1)


_EDGE = 2 * core._ROW_BLOCK + 3  # two full tiles and a partial one


@pytest.mark.parametrize("g, corner", [pytest.param(g, "b-last", id=str(g)) for g in (1, 5, _EDGE)]
                         + [pytest.param(_EDGE, "c-last-b-first", id=f"{_EDGE}-c-last-b-first")])
def test_primitive_on_explicit_families(g, corner):
    rng = np.random.default_rng(g)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    scale = 1.0 + rng.random(g)
    if corner == "b-last":
        scale[-1] = 1e-3  # the largest ratio has b in the last, partial tile
    else:
        scale[0] = 1e-3  # ... b in the first tile and c in the last, partial one
        x[-1] *= 10.0
    ratios = np.array([[np.linalg.norm(x[c].conj().T @ y[b]) / scale[b] for b in range(g)]
                       for c in range(g)])
    c, b = np.unravel_index(np.argmax(ratios), ratios.shape)
    assert b == g - 1 if corner == "b-last" else (c, b) == (g - 1, 0)
    want = ratios[c, b]
    assert cross_gram_residual(*_rows(x, y), scale) == pytest.approx(want, rel=1e-13)
    assert cross_gram_residual(*_rows(x, y)) == pytest.approx(
        max(np.linalg.norm(x[c].conj().T @ y[b]) for b in range(g) for c in range(g)), rel=1e-13)
    with pytest.raises(ShapeError):
        cross_gram_residual(*_rows(x, y[:, :2]))


def test_memory_stays_blockwise(traced_peak):
    f = sampling.random_pencil(np.random.default_rng(1), 3, 4, 4)
    zs = sampling.halfplane_grid(3, 600, 1)
    dense_bytes = 3 * 600 ** 2 * 4 ** 2 * 16  # one (N, g, g, n, n) complex tensor
    res, peak = traced_peak(lambda: kernel_identity_residual(f, zs))
    assert res < 1e-12
    assert peak < dense_bytes / 10
    # beyond the two families, read in place, the cross-Gram holds tiles of
    # a fixed size: quadrupling the grid adds at most one tile to the peak
    n, m = 4, 28
    tile = (core._ROW_BLOCK * n) ** 2 * 16
    peaks = []
    for g in (150, 600):
        rng = np.random.default_rng(g)
        x = rng.standard_normal((g, n, m)) + 1j * rng.standard_normal((g, n, m))
        y = rng.standard_normal((g, n, m)) + 1j * rng.standard_normal((g, n, m))
        scale = 1.0 + rng.random(g)
        peaks.append(traced_peak(lambda: cross_gram_residual(x, y, scale))[1])
    assert peaks[1] - peaks[0] <= tile


def _brute_split(x, y, scale):
    """(plus, minus, argmax of plus) over all pairs (c, b), from the dense (g, g, n, n) Gram."""
    e = np.einsum("cmi,bmj->cbij", x.conj(), y)  # e[c, b] = x(c)* y(b)
    adj = e.conj().transpose(1, 0, 3, 2)  # adj[c, b] = e[b, c]*
    plus = np.linalg.norm(e + adj, axis=(2, 3)) / scale[None, :]
    minus = np.linalg.norm(e - adj, axis=(2, 3)) / scale[None, :]
    return plus.max(), minus.max(), np.unravel_index(np.argmax(plus), plus.shape)


@pytest.mark.parametrize("g", [1, 5, 2 * core._ROW_BLOCK + 3])
def test_split_on_explicit_families(g):
    rng = np.random.default_rng(100 + g)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    scale = 1.0 + rng.random(g)
    scale[0] = 1e-3  # the largest ratios divide by the first point's scale ...
    x[-1] *= 10.0  # ... and pair it with the last point
    y[-1] *= 10.0
    plus, minus, (c, b) = _brute_split(x, y, scale)
    if g > core._ROW_BLOCK:
        # the worst pair (c, b) has b in an earlier tile than c: only the
        # mirror of the tile (b, c) covers it
        assert b // core._ROW_BLOCK < c // core._ROW_BLOCK
    got = hermitian_split_residuals(*_rows(x, y), scale)
    assert got[0] == pytest.approx(plus, rel=1e-13)
    assert got[1] == pytest.approx(minus, rel=1e-13)
    want = _brute_split(x, y, np.ones(g))
    assert hermitian_split_residuals(*_rows(x, y)) == pytest.approx(want[:2], rel=1e-13)
    with pytest.raises(ShapeError):
        hermitian_split_residuals(*_rows(x, y[:, :2]))


@pytest.mark.parametrize("where", [0, -1])
def test_split_keeps_a_nan(where):
    g = 2 * core._ROW_BLOCK + 3
    rng = np.random.default_rng(7)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    x[where, 1, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isnan(hermitian_split_residuals(*_rows(x, y))))
        assert np.isnan(cross_gram_residual(*_rows(x, y)))
        y[where, 1, 0] = 1e160  # overflow in the products is silent
        x[where, 1, 0] = 1e160
        assert not np.any(np.isfinite(hermitian_split_residuals(*_rows(x, y))))


def test_split_memory_stays_tilewise(traced_peak):
    f = sampling.random_pencil(np.random.default_rng(1), 3, 4, 4)
    zs = sampling.halfplane_grid(3, 600, 1)
    dense_bytes = 3 * 600 ** 2 * 4 ** 2 * 16  # one (N, g, g, n, n) complex tensor
    res, peak = traced_peak(lambda: plus_minus_residuals(f, zs))
    assert max(res) < 1e-12
    assert peak < dense_bytes / 10
