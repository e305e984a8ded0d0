"""Certified conditioning bounds and the small-side Gram residual.

The guard may skip its condition estimate only on a proven bound, so
every bound is checked against ``np.linalg.cond`` on random pencils and
colligations, on and off the evaluation domain.  The Gram residual of
colligation synthesis is checked against the dense 2gn x 2gn
computation, written out here as the independent cross-check.
"""

import numpy as np
import pytest

from posreal.cayley import DiskKernelEvaluator
from posreal.colligation import (
    AglerColligation,
    build_colligation,
    transfer_condition_bound,
    transfer_eval,
)
from posreal.core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ValidationError,
    argument_arc,
    eigh_or_refuse,
    hermitian_part,
)
from posreal.kernels import psi
from posreal.pencil import (
    PsdPencil,
    RealizedFunction,
    _refuse_ill_conditioned,
    compress_realization,
    d_condition_bound,
    eval_schur,
    ldu_factor_residual,
)
from posreal.sampling import disk_grid, random_pencil

SINGULAR = "d(z) is numerically singular (condition inf); boundary or outside-domain evaluation"


def _d_blocks(f, pts):
    n = f.dim_u
    return np.tensordot(pts, f.pencil.stacked(), axes=(1, 0))[:, n:, n:]


def _assert_sound(bound, mats):
    conds = np.linalg.cond(mats)
    finite = np.isfinite(bound)
    assert np.all(bound[finite] >= conds[finite] * (1.0 - 1e-12))
    return finite


def _point_sets(rng, num_vars, count=40):
    """Polyhalfplane, rotated, four-quadrant and off-domain samples."""
    right = rng.random((count, num_vars)) * 3.0 + 1e-3 + 1j * rng.standard_normal((count, num_vars))
    rotated = np.exp(1j * rng.uniform(-np.pi, np.pi, (count, 1))) * right
    base = rng.standard_normal((count, num_vars)) ** 2 + 0.05 + 1j * rng.standard_normal((count, num_vars))
    quadrants = np.concatenate([rot * base for rot in (1.0, -1.0, 1j, -1j)])
    signs = rng.choice([-1.0, 1.0], (count, num_vars))
    mixed = signs * rng.random((count, num_vars)) + 1j * rng.standard_normal((count, num_vars))
    return {"right": right, "rotated": rotated, "quadrants": quadrants, "mixed": mixed}


class TestDConditionBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_condition(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = 1 + seed % 4
        f = random_pencil(rng, num_vars, 1 + seed % 3, 2 + 3 * seed,
                          rank_deficient=bool(seed % 2))
        for name, pts in _point_sets(rng, num_vars).items():
            finite = _assert_sound(d_condition_bound(f, pts), _d_blocks(f, pts))
            if name != "mixed":
                # every rotated polyhalfplane is covered
                assert np.all(finite), name

    def test_unvalidated_indefinite_and_skew_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            coeffs = []
            for _ in range(2):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                # slightly indefinite Hermitian part plus a skew part
                coeffs.append(g @ g.conj().T - 0.3 * np.eye(4) + 0.5 * (s - s.conj().T))
            f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
            for pts in _point_sets(rng, 2).values():
                _assert_sound(d_condition_bound(f, pts), _d_blocks(f, pts))

    @staticmethod
    def _per_call_bound(f, pts):
        """The bound with its pencil-only constants rebuilt on every call."""
        n = f.dim_u
        ds = [m[n:, n:] for m in f.pencil.coeffs]
        herm = [hermitian_part(d) for d in ds]
        eigs = [eigh_or_refuse(h)[0] for h in herm]
        lam = float(eigh_or_refuse(sum(herm))[0][0])
        skew = np.array([np.linalg.norm(d - h) for d, h in zip(ds, herm)])
        norms = np.array([max(-w[0], w[-1]) for w in eigs]) + skew
        neg = np.array([max(-w[0], 0.0) for w in eigs])
        start, gap = argument_arc(pts)
        theta = start + (np.pi - gap / 2.0)
        re = (np.exp(-1j * theta)[:, None] * pts).real
        mu = np.min(re, axis=1)
        mags = np.abs(pts)
        den = mu * lam - (re - mu[:, None]) @ neg - mags @ skew
        out = np.full(len(pts), np.inf)
        ok = (mu > 0) & (den > 0)
        out[ok] = (mags @ norms)[ok] / den[ok]
        return out

    @pytest.mark.parametrize("validated", [True, False])
    def test_constants_computed_once_per_realization(self, monkeypatch, validated):
        import posreal.pencil as pencil

        rng = np.random.default_rng(21)
        if validated:
            f = random_pencil(rng, 3, 2, 4, rank_deficient=True)
        else:
            coeffs = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
            f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        calls = []

        def counting(m):
            calls.append(np.shape(m))
            return eigh_or_refuse(m)

        monkeypatch.setattr(pencil, "eigh_or_refuse", counting)
        for pts in _point_sets(rng, f.num_vars).values():
            got = d_condition_bound(f, pts)
            assert got.tobytes() == self._per_call_bound(f, pts).tobytes()
        # one eigendecomposition per Re d_k and one of their sum, on the first call only
        assert len(calls) == f.num_vars + 1

    def test_indefinite_block_singular_inside_halfplane(self):
        # d(z) = diag(z1, z2 - z1/2) is singular at (1, 1/2) although the
        # summed d-blocks diag(1, 1/2) are positive definite
        coeffs = [np.diag([0.0, 1.0, -0.5]), np.diag([0.0, 0.0, 1.0])]
        f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        z = np.array([1.0, 0.5])
        assert d_condition_bound(f, z[None])[0] == np.inf
        with pytest.raises(NumericalRefusalError):
            eval_schur(f, z)

    def test_off_domain_singular_point_refused(self, parallel):
        z = np.array([1.0, -1.0])
        assert d_condition_bound(parallel, z[None])[0] == np.inf
        for call in (lambda: eval_schur(parallel, z), lambda: psi(parallel, z),
                     lambda: ldu_factor_residual(parallel, z)):
            with pytest.raises(NumericalRefusalError) as err:
                call()
            assert str(err.value) == SINGULAR

    def test_compressed_unchecked_pencil(self, rng):
        # compression leaves the coefficients Hermitian only up to roundoff
        v = np.zeros(5, dtype=complex)
        v[1:] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        proj = np.eye(5) - np.outer(v, v.conj()) / np.vdot(v, v)
        coeffs = []
        for _ in range(3):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            coeffs.append(proj @ g @ g.conj().T @ proj)
        f = compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False)))
        assert f.dim_h == 3
        for pts in _point_sets(rng, 3).values():
            _assert_sound(d_condition_bound(f, pts), _d_blocks(f, pts))


class TestGuard:
    def test_bound_never_changes_the_decision(self):
        near = np.diag([1.0, 1e-12]).astype(complex)
        mats = np.stack([np.eye(2, dtype=complex), 2.0 * np.eye(2), near])
        messages = []
        for bound in (None, np.array([1.0, 1.0, np.inf])):
            with pytest.raises(NumericalRefusalError) as err:
                _refuse_ill_conditioned(mats, DEFAULT_POLICY, "M", bound=bound)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "condition 1.000e+12" in messages[0]

    def test_bound_near_threshold_falls_back(self):
        # a bound above 1/(2 psd_slack) is not trusted: the estimate decides
        near = np.diag([1.0, 2e-10]).astype(complex)[None]
        _refuse_ill_conditioned(near, DEFAULT_POLICY, "M", bound=np.array([0.6e10]))
        with pytest.raises(NumericalRefusalError):
            _refuse_ill_conditioned(np.diag([1.0, 5e-11]).astype(complex)[None],
                                    DEFAULT_POLICY, "M", bound=np.array([0.6e10]))


def _random_contraction(rng, dims, n, norm):
    size = sum(dims) + n
    u = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    u *= norm / np.linalg.norm(u, 2)
    return AglerColligation(dims, n, u)


class TestTransferConditionBound:
    @pytest.mark.parametrize("norm", [0.5, 1.0, 1.3])
    def test_bound_dominates_condition(self, rng, norm):
        for _ in range(4):
            dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
            c = _random_contraction(rng, dims, 2, norm)
            pts = np.concatenate([disk_grid(3, 30, seed=int(rng.integers(1000))),
                                  0.999 * np.exp(2j * np.pi * rng.random((20, 3)))])
            a = c.blocks()[0]
            pw = c.state_weights(pts)
            sys = np.eye(c.dim_state) - a[None] * pw[:, None, :]
            finite = _assert_sound(transfer_condition_bound(c, pts), sys)
            if norm <= 1.0:
                assert np.all(finite)

    def test_state_block_norm_above_one(self):
        # ||A|| = 1.3: I - A P(w) is singular at w_1 = 1/1.3 inside the disk
        c = AglerColligation((1, 1), 1, np.diag([1.3, 0.1, 0.5]))
        w = np.array([1.0 / 1.3, 0.5])
        assert transfer_condition_bound(c, w[None])[0] == np.inf
        with pytest.raises(NumericalRefusalError):
            transfer_eval(c, w)

    def test_synthesized_colligation(self, rng):
        f = random_pencil(rng, 3, 2, 4)
        ws = disk_grid(3, 20, seed=4)
        dk = DiskKernelEvaluator(f)
        c = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws)).colligation
        a = c.blocks()[0]
        sys = np.eye(c.dim_state) - a[None] * c.state_weights(ws)[:, None, :]
        assert np.all(_assert_sound(transfer_condition_bound(c, ws), sys))


def _dense_gram_residual(ws, tables, svals):
    """The 2gn x 2gn Gram computation: ||G_d - G_r||, ||X - X*|| over 1 + ||G_d||."""
    g, n = svals.shape[:2]
    dims = [t.shape[1] for t in tables]
    h = np.concatenate(tables, axis=1)
    d_vecs = np.concatenate([np.repeat(ws, dims, axis=1)[:, :, None] * h,
                             np.broadcast_to(np.eye(n), (g, n, n))], axis=1)
    r_vecs = np.concatenate([h, svals], axis=1)
    dmat = np.hstack(list(d_vecs) + list(r_vecs))
    rmat = np.hstack(list(r_vecs) + list(d_vecs))
    gram_d = dmat.conj().T @ dmat
    gram_r = rmat.conj().T @ rmat
    cross = dmat.conj().T @ rmat
    scale = 1.0 + np.linalg.norm(gram_d, 2)
    return max(np.linalg.norm(gram_d - gram_r, 2), np.linalg.norm(cross - cross.conj().T, 2)) / scale


def _gate(res, pol=DEFAULT_POLICY):
    if res > 1e-6:
        return "reject"
    return "exact" if res <= pol.residual_tol else "approximate"


class TestGramResidual:
    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (2, 3, 3)])
    def test_matches_dense(self, rng, shape):
        f = random_pencil(rng, *shape)
        ws = disk_grid(shape[0], 16, seed=int(rng.integers(1000)))
        dk = DiskKernelEvaluator(f)
        tables, svals = dk.theta_table(ws), dk.view.eval_double_cayley(ws)
        syn = build_colligation(ws, tables, svals)
        assert abs(syn.gram_residual - _dense_gram_residual(ws, tables, svals)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_gates_follow_dense_decision(self, seed):
        rng = np.random.default_rng(100 + seed)
        f = random_pencil(rng, 2 + seed % 2, 2, 3)
        ws = disk_grid(f.num_vars, 12, seed=seed)
        dk = DiskKernelEvaluator(f)
        tables, svals = dk.theta_table(ws), dk.view.eval_double_cayley(ws)
        e = rng.standard_normal(svals.shape) + 1j * rng.standard_normal(svals.shape)
        slope = _dense_gram_residual(ws, tables, svals + 1e-6 * e) / 1e-6
        seen = set()
        for target in (0.5e-9, 2e-9, 1e-8, 0.5e-6, 2e-6, 1e-4):
            perturbed = svals + (target / slope) * e
            dense = _dense_gram_residual(ws, tables, perturbed)
            expected = _gate(dense)
            seen.add(expected)
            try:
                syn = build_colligation(ws, tables, perturbed)
            except ValidationError as exc:
                assert expected == "reject", (target, dense)
                assert "Gram residual" in str(exc)
                continue
            except NumericalRefusalError as exc:
                # only the interpolation check of exact data may refuse
                assert expected == "exact", (target, dense)
                assert "interpolate" in str(exc)
                continue
            assert _gate(syn.gram_residual) == expected, (target, dense, syn.gram_residual)
            assert abs(syn.gram_residual - dense) <= 1e-12
        assert seen == {"exact", "approximate", "reject"}
