"""The two-point residuals against the dense all-pairs formulas.

Each reference below builds the full (N, g, g, n, n) kernel tensor and
the two-point target over grid x grid, as the identity residuals were
computed before they went through ``core.cross_gram_residual``.  On
identities that hold, both are roundoff and agree to it.  Where the
identity fails, the library value is the column bound of the core
docstrings: it is at least the largest pair, and it equals the largest
column norm of the dense cross-Gram, formed here from all pairs.
"""

import warnings

import numpy as np
import pytest

import posreal.colligation as colligation
from posreal import core, sampling, serialize
from posreal.cayley import DiskFunctionView, DiskKernelEvaluator, disk_to_halfplane
from posreal.cli import main
from posreal.colligation import AglerColligation, agler_identity_residual, build_colligation
from posreal.core import DEFAULT_POLICY, ShapeError, cross_gram_residual, hermitian_split_residuals
from posreal.kernels import (
    KernelEvaluator,
    KernelSampleSet,
    kernel_identity_residual,
    plus_minus_residuals,
    sample_kernels,
)
from posreal.pencil import realize
from posreal.verify import run_verification


def _pair_kernels(lefts, rights):
    """(N, B, C, n, n) with entry [k, b, c] = lefts[k][c]* rights[k][b]."""
    return np.stack([np.einsum("cmi,bmj->bcij", l.conj(), r) for l, r in zip(lefts, rights)])


def _worst(lhs, target, scale, columns=False):
    """Largest ||lhs[b, c] - target[b, c]|| / scale[b] over pairs, or with ``columns`` over b,
    the norm taken over all c at once."""
    err = lhs - target
    if columns:
        return float(np.max(np.linalg.norm(err.reshape(len(err), -1), axis=1) / scale))
    return float(np.max(np.linalg.norm(err, axis=(2, 3)) / scale[:, None]))


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


def dense_disk(pts, lefts, rights, vals, herglotz, scaled, columns=False):
    """Disk-side plus/minus residuals; the plus target is F(w) + F(o)* when
    ``herglotz`` and I - S(o)* S(w) otherwise; ``columns`` as in ``_worst``."""
    kern = _pair_kernels(lefts, rights)
    vstar = vals.conj().transpose(0, 2, 1)
    scale = 1.0 + np.linalg.norm(vals, axis=(1, 2)) if scaled else np.ones(len(pts))
    if herglotz:
        tgt_plus = vals[:, None] + vstar[None, :]
    else:
        tgt_plus = np.eye(vals.shape[-1]) - np.einsum("cij,bjl->bcil", vstar, vals)
    lhs_plus = np.einsum("bck,kbcij->bcij", 1.0 - pts.conj()[None, :, :] * pts[:, None, :], kern)
    lhs_minus = np.einsum("bck,kbcij->bcij", pts[:, None, :] - pts.conj()[None, :, :], kern)
    return (_worst(lhs_plus, tgt_plus, scale, columns),
            _worst(lhs_minus, vals[:, None] - vstar[None, :], scale, columns))


def dense_agler(c, pts, columns=False):
    a, b, _, _ = c.blocks()
    pw = c.state_weights(pts)
    eye = np.eye(c.dim_state)
    rhs = np.broadcast_to(b, (len(pts),) + b.shape)
    right = np.linalg.solve(eye - a[None] * pw[:, None, :], rhs)
    left = np.linalg.solve(eye - a.conj().T[None] * pw[:, None, :], rhs)
    cuts = np.cumsum(c.dims)[:-1]
    return dense_disk(pts, np.split(left, cuts, axis=1), np.split(right, cuts, axis=1),
                      c(pts), herglotz=False, scaled=False, columns=columns)


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
        # the transfer identities of the pencil's colligation, whose tables are theta
        return (agler_identity_residual(colligation.colligation_from_pencil(f), ws),
                dense_disk(ws, thetas, thetas, svals, herglotz=False, scaled=False))
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
    got, pairs = agler_identity_residual(broken, ws), dense_agler(broken, ws)
    columns = dense_agler(broken, ws, columns=True)
    assert pairs[0] > 0.1
    assert got[0] >= pairs[0]  # the bound covers the worst pair
    np.testing.assert_allclose(got[0], columns[0], rtol=1e-12)
    np.testing.assert_allclose(got[1], columns[1], rtol=0, atol=1e-12)


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


_EDGE = 2 * core._ROW_BLOCK + 3  # two full point blocks and a partial one


def _dense_columns(x, y, scale):
    """||E(:, b)||_F / scale(b) for each b, from the dense (g n, g n) cross-Gram E = X* Y."""
    g, m, n = x.shape
    gram = x.conj().transpose(0, 2, 1).reshape(g * n, m) @ y.transpose(1, 0, 2).reshape(m, g * n)
    return np.linalg.norm(gram.reshape(g * n, g, n), axis=(0, 2)) / scale


@pytest.mark.parametrize("g, corner", [pytest.param(g, "b-last", id=str(g)) for g in (1, 5, _EDGE)]
                         + [pytest.param(_EDGE, "c-last-b-first", id=f"{_EDGE}-c-last-b-first")])
def test_primitive_on_explicit_families(g, corner):
    rng = np.random.default_rng(g)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    scale = 1.0 + rng.random(g)
    if corner == "b-last":
        scale[-1] = 1e-3  # the worst pair and column have b in the last, partial block
    else:
        scale[0] = 1e-3  # ... b in the first block and c in the last, partial one
        x[-1] *= 10.0
    ratios = np.array([[np.linalg.norm(x[c].conj().T @ y[b]) / scale[b] for b in range(g)]
                       for c in range(g)])
    c, b = np.unravel_index(np.argmax(ratios), ratios.shape)
    assert b == g - 1 if corner == "b-last" else (c, b) == (g - 1, 0)
    columns = _dense_columns(x, y, scale)
    assert np.argmax(columns) == b
    got = cross_gram_residual(*_rows(x, y), scale)
    assert got >= ratios[c, b] * (1 - 1e-13)  # at g = 1 the column is the pair
    assert got == pytest.approx(columns[b], rel=1e-12)
    unscaled = cross_gram_residual(*_rows(x, y))
    assert unscaled >= max(np.linalg.norm(x[c].conj().T @ y[b])
                           for b in range(g) for c in range(g)) * (1 - 1e-13)
    assert unscaled == pytest.approx(np.max(_dense_columns(x, y, np.ones(g))), rel=1e-12)
    with pytest.raises(ShapeError):
        cross_gram_residual(*_rows(x, y[:, :2]))


def test_memory_stays_blockwise(traced_peak):
    f = sampling.random_pencil(np.random.default_rng(1), 3, 4, 4)
    zs = sampling.halfplane_grid(3, 600, 1)
    dense_bytes = 3 * 600 ** 2 * 4 ** 2 * 16  # one (N, g, g, n, n) complex tensor
    res, peak = traced_peak(lambda: kernel_identity_residual(f, zs))
    assert res < 1e-12
    assert peak < dense_bytes / 10
    # beyond the two families, read in place, the TSQR and the products hold
    # one point block of rows and R: quadrupling the grid adds at most one
    # block's rows to the peak
    assert _growth(traced_peak, cross_gram_residual, 4, 28) <= core._ROW_BLOCK * 4 * 28 * 16


def _growth(traced_peak, residual, n, m):
    """Traced peak of ``residual`` on random (g, n, m) families at g = 600 less that at g = 150."""
    peaks = []
    for g in (150, 600):
        rng = np.random.default_rng(g)
        x = rng.standard_normal((g, n, m)) + 1j * rng.standard_normal((g, n, m))
        y = rng.standard_normal((g, n, m)) + 1j * rng.standard_normal((g, n, m))
        scale = 1.0 + rng.random(g)
        peaks.append(traced_peak(lambda: residual(x, y, scale))[1])
    return peaks[1] - peaks[0]


def _brute_split(x, y, scale):
    """Over all pairs (c, b), from the dense (g, g, n, n) Gram: the largest plus and minus
    pairs, the argmax of plus, and the largest plus and minus columns over b."""
    e = np.einsum("cmi,bmj->cbij", x.conj(), y)  # e[c, b] = x(c)* y(b)
    adj = e.conj().transpose(1, 0, 3, 2)  # adj[c, b] = e[b, c]*
    plus = np.linalg.norm(e + adj, axis=(2, 3)) / scale[None, :]
    minus = np.linalg.norm(e - adj, axis=(2, 3)) / scale[None, :]
    columns = [np.max(np.sqrt(np.sum(part ** 2, axis=0))) for part in (plus, minus)]
    return plus.max(), minus.max(), np.unravel_index(np.argmax(plus), plus.shape), *columns


@pytest.mark.parametrize("g", [1, 5, 2 * core._ROW_BLOCK + 3])
def test_split_on_explicit_families(g):
    rng = np.random.default_rng(100 + g)
    x = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    y = rng.standard_normal((g, 3, 2)) + 1j * rng.standard_normal((g, 3, 2))
    scale = 1.0 + rng.random(g)
    scale[0] = 1e-3  # the largest ratios divide by the first point's scale ...
    x[-1] *= 10.0  # ... and pair it with the last point
    y[-1] *= 10.0
    plus, minus, (c, b), plus_col, minus_col = _brute_split(x, y, scale)
    if g > core._ROW_BLOCK:
        # the worst pair (c, b) has b in an earlier point block than c
        assert b // core._ROW_BLOCK < c // core._ROW_BLOCK
    got = hermitian_split_residuals(*_rows(x, y), scale)
    assert got[0] >= plus * (1 - 1e-13) and got[1] >= minus * (1 - 1e-13)
    assert got == pytest.approx((plus_col, minus_col), rel=1e-12)
    want = _brute_split(x, y, np.ones(g))
    unscaled = hermitian_split_residuals(*_rows(x, y))
    assert unscaled[0] >= want[0] * (1 - 1e-13) and unscaled[1] >= want[1] * (1 - 1e-13)
    assert unscaled == pytest.approx(want[3:], rel=1e-12)
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


def test_split_memory_stays_blockwise(traced_peak):
    f = sampling.random_pencil(np.random.default_rng(1), 3, 4, 4)
    zs = sampling.halfplane_grid(3, 600, 1)
    dense_bytes = 3 * 600 ** 2 * 4 ** 2 * 16  # one (N, g, g, n, n) complex tensor
    res, peak = traced_peak(lambda: plus_minus_residuals(f, zs))
    assert max(res) < 1e-12
    assert peak < dense_bytes / 10
    # one point block of the 2M-column stack [x*, y^H] and its R
    assert _growth(traced_peak, hermitian_split_residuals, 4, 28) <= core._ROW_BLOCK * 4 * 56 * 16


class TestOneCorruptedSample:
    """Every two-point row fails when one sample of f, or of S, moves by a relative 1e-8.

    The move changes one column of the cross-Gram by about 1e-8 ||f(b)||
    in every pair, so the column bound reads about sqrt(g) times the worst
    pair; both are above residual_tol, and the bound is never below the pair.
    """

    BAD, REL, GRID = 7, 1e-8, 20

    @staticmethod
    def _moved(values, bad):
        values = values.copy()
        values[bad] *= 1.0 + TestOneCorruptedSample.REL
        return values

    @pytest.fixture
    def f(self):
        return PENCILS["random"]()

    @pytest.fixture
    def corrupt_f(self, monkeypatch):
        phi_table = KernelEvaluator.phi_table

        def corrupted(evaluator, grid):
            ks = phi_table(evaluator, grid)
            return KernelSampleSet(ks.grid, ks.factors, self._moved(ks.f_samples, self.BAD))

        monkeypatch.setattr(KernelEvaluator, "phi_table", corrupted)

    def test_kernel_rows(self, f, corrupt_f):
        zs = sampling.halfplane_grid(f.num_vars, self.GRID, 3)
        tol = DEFAULT_POLICY.residual_tol
        ks = sample_kernels(f, zs)
        fvals = np.delete(ks.f_samples, self.BAD, axis=0)
        assert np.array_equal(fvals, np.delete(f(zs), self.BAD, axis=0))  # one sample moved
        pair = dense_kernel(zs, ks.factors, ks.f_samples)
        assert pair > tol
        assert ks.identity_residual() >= pair
        assert kernel_identity_residual(f, zs) >= pair
        pairs = dense_plus_minus(zs, ks.factors, ks.f_samples)
        got = plus_minus_residuals(f, zs)
        assert min(pairs) > tol
        assert got[0] >= pairs[0] and got[1] >= pairs[1]
        row = next(r for r in run_verification(f, seed=3, grid_size=self.GRID).checks
                   if r.name == "kernel-identity")
        assert row.value > tol and not row.passed

    def test_rebuild_of_a_corrupted_file_exits_2(self, f, corrupt_f, tmp_path, capsys):
        path = tmp_path / "samples.json"
        zs = sampling.halfplane_grid(f.num_vars, self.GRID, 3)
        serialize.dump(serialize.kernel_samples_to_json(sample_kernels(f, zs)), str(path))
        assert main(["kernels", "--rebuild", str(path)]) == 2
        assert "kernel identity violated" in capsys.readouterr().err

    def _corrupt_s(self, monkeypatch):
        """Move S, as the state solve hands it to the transfer identities, at one point."""
        state_response = colligation.state_response

        def corrupted(c, grid, pol=DEFAULT_POLICY):
            tables, svals = state_response(c, grid, pol)
            return tables, self._moved(svals, self.BAD)

        monkeypatch.setattr(colligation, "state_response", corrupted)

    def test_schur_pair(self, f, monkeypatch):
        ws = sampling.disk_grid(f.num_vars, self.GRID, 3)
        c = colligation.colligation_from_pencil(f)
        self._corrupt_s(monkeypatch)
        thetas, svals = colligation.state_response(c, ws)
        pairs = dense_disk(ws, thetas, thetas, svals, herglotz=False, scaled=False)
        got = agler_identity_residual(c, ws)
        assert min(pairs) > DEFAULT_POLICY.residual_tol
        assert got[0] >= pairs[0] and got[1] >= pairs[1]

    def test_agler_pair(self, f, monkeypatch):
        ws = sampling.disk_grid(f.num_vars, self.GRID, 3)
        disk = DiskKernelEvaluator(f)
        c = build_colligation(ws, disk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation
        assert max(agler_identity_residual(c, ws)) < 1e-12
        self._corrupt_s(monkeypatch)
        got = agler_identity_residual(c, ws)
        assert min(got) > DEFAULT_POLICY.residual_tol


def _former_identity_rows(ks):
    """x* = [phi*, I] and y^T = [(z.phi)^T, -f^T] as the kernel identity filled them
    before ``core.factor_rows``: one (2, g, n, m + n) buffer."""
    fvals = ks.f_samples
    g, n = fvals.shape[:2]
    m = sum(t.shape[1] for t in ks.factors)
    rows = np.empty((2, g, n, m + n), dtype=complex)
    lo = 0
    for k, t in enumerate(ks.factors):
        hi = lo + t.shape[1]
        np.conjugate(t.transpose(0, 2, 1), out=rows[0, :, :, lo:hi])
        np.multiply(ks.grid[:, k, None, None], t.transpose(0, 2, 1), out=rows[1, :, :, lo:hi])
        lo = hi
    rows[0, :, :, m:] = np.eye(n)
    np.negative(fvals.transpose(0, 2, 1), out=rows[1, :, :, m:])
    return rows[0], rows[1]


def _former_transfer_rows(grid, tables, values, op):
    """P^T (op np.add) or M^T (np.subtract) as the colligation filled them before
    ``core.factor_rows``."""
    g, n = values.shape[:2]
    m = sum(t.shape[1] for t in tables)
    rows = np.empty((g, n, m + n), dtype=complex)
    lo = 0
    for k, t in enumerate(tables):
        hi = lo + t.shape[1]
        np.multiply(op(grid[:, k], 1.0)[:, None, None], t.transpose(0, 2, 1), out=rows[:, :, lo:hi])
        lo = hi
    op(np.eye(n), values.transpose(0, 2, 1), out=rows[:, :, m:])
    return rows


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("g", [1, 33, 67])
@pytest.mark.parametrize("shape", [(3, 2, 4), (3, 4, 32)])
def test_factor_rows_keeps_the_former_layouts(shape, g, monkeypatch):
    import posreal.kernels as kernels

    f = sampling.random_pencil(np.random.default_rng(g), *shape)
    ks = sample_kernels(f, sampling.halfplane_grid(shape[0], g, 5))
    for got, want in zip(kernels._identity_families(ks)[:2], _former_identity_rows(ks)):
        assert got.shape == want.shape and np.array_equal(_bits(got), _bits(want))

    # P^T and M^T, as the Schur-side residuals of the pencil's colligation
    # receive them from factor_rows (copied before they are finished in
    # place); the synthesis reads the kernel identity's families instead
    seen = []
    real = colligation.factor_rows

    def spy(*args):
        seen.append(real(*args))
        return seen[-1].copy()

    monkeypatch.setattr(colligation, "factor_rows", spy)
    ws = sampling.disk_grid(shape[0], g, 5)
    c = colligation.colligation_from_pencil(f)
    thetas, svals = colligation.state_response(c, ws)
    agler_identity_residual(c, ws)
    want = [_former_transfer_rows(ws, thetas, svals, op) for op in (np.add, np.subtract)]
    assert len(seen) == 2
    for got, ref in zip(seen, want):
        assert got.shape == ref.shape and np.array_equal(_bits(got), _bits(ref))
