"""Certified conditioning bounds and the small-side Gram residual.

The guard may skip its condition estimate only on a proven bound, so
every bound is checked against ``np.linalg.cond`` on random pencils,
tuples, value stacks and colligations, on and off the evaluation domain.  The gate of
colligation synthesis, the kernel identity residual of the converted
data, is checked against the dense all-pairs computation of the
``dense_kernel_gate`` fixture, the independent cross-check.
"""

import numpy as np
import pytest

import posreal.calculus as calculus
import posreal.cayley as cayley
import posreal.colligation as colligation
from posreal.calculus import calc_realized, make_tuple
from posreal.cayley import (
    DiskFunctionView,
    DiskKernelEvaluator,
    f_plus_i_condition_bound,
    i_minus_s_condition_bound,
    inv_value_cayley,
    value_cayley,
)
from posreal.verify import run_verification
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
    eigvalsh_or_refuse,
    hermitian_part,
    neumann_condition_bound,
)
from posreal.kernels import psi
from posreal.pencil import (
    PsdPencil,
    RealizedFunction,
    _refuse_ill_conditioned,
    compress_realization,
    d_condition_bound,
    d_tuple_condition_bound,
    eval_schur,
)
from posreal.sampling import (
    disk_grid,
    halfplane_grid,
    random_accretive_tuple,
    random_diagonalizable_accretive_pair,
    random_pencil,
)

SINGULAR = "d(z) is numerically singular (condition inf); boundary or outside-domain evaluation"


def _d_blocks(f, pts):
    n = f.dim_u
    return np.tensordot(pts, f.pencil.stacked, axes=(1, 0))[:, n:, n:]


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


def _d_constants(f):
    """lambda_min(sum_k Re d_k), the norm bounds, negative parts and skew norms, written out."""
    n = f.dim_u
    ds = [m[n:, n:] for m in f.pencil.coeffs]
    herm = [hermitian_part(d) for d in ds]
    eigs = [eigvalsh_or_refuse(h) for h in herm]
    lam = float(eigvalsh_or_refuse(sum(herm))[0])
    skew = np.array([np.linalg.norm(d - h) for d, h in zip(ds, herm)])
    norms = np.array([max(-w[0], w[-1]) for w in eigs]) + skew
    neg = np.array([max(-w[0], 0.0) for w in eigs])
    return lam, norms, neg, skew


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
        lam, norms, neg, skew = _d_constants(f)
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
            return eigvalsh_or_refuse(m)

        monkeypatch.setattr(pencil, "eigvalsh_or_refuse", counting)
        for pts in _point_sets(rng, f.num_vars).values():
            got = d_condition_bound(f, pts)
            assert got.tobytes() == self._per_call_bound(f, pts).tobytes()
        # one eigenvalue solve per Re d_k and one of their sum, on the first call only
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
        for call in (lambda: eval_schur(parallel, z), lambda: psi(parallel, z)):
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


def _a_of(f, pts):
    return np.tensordot(pts, f.pencil.stacked, axes=(1, 0))


def _assert_corner_sound(f, pts):
    """cond of the U-corner of A(z)^{-1} is at most the squared A(z) bound wherever that is finite."""
    bound = f.a_bound.bound(pts)
    finite = np.isfinite(bound)
    if np.any(finite):
        corners = np.linalg.inv(_a_of(f, pts[finite]))[:, :f.dim_u, :f.dim_u]
        _assert_sound(bound[finite] ** 2, corners)


class TestAConditionBound:
    """The A(z) certificate of ``eval_long_resolvent``: ``PencilBound`` of the whole coefficients.

    Its square bounds the U-corner of A(z)^{-1}.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_condition(self, seed):
        rng = np.random.default_rng(500 + seed)
        num_vars = 1 + seed % 4
        rank_deficient = bool(seed % 2)
        f = random_pencil(rng, num_vars, 1 + seed % 3, 2 + 3 * seed, rank_deficient=rank_deficient)
        covered = np.linalg.eigvalsh(sum(f.pencil.coeffs))[0] > 1e-8
        for name, pts in _point_sets(rng, num_vars).items():
            finite = _assert_sound(f.a_bound.bound(pts), _a_of(f, pts))
            _assert_corner_sound(f, pts)
            if name != "mixed" and covered:
                # sum_k A_k is positive definite: every rotated polyhalfplane is covered
                assert np.all(finite), name
        assert covered or rank_deficient

    def test_unchecked_non_hermitian_pencils(self):
        rng = np.random.default_rng(13)
        finite = 0
        for trial in range(20):
            coeffs = []
            for _ in range(2):
                g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                shift, skew = (0.02, 0.02) if trial % 2 else (0.3, 0.5)
                coeffs.append(g @ g.conj().T - shift * np.eye(4) + skew * (s - s.conj().T))
            f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
            for pts in _point_sets(rng, 2).values():
                finite += int(np.sum(_assert_sound(f.a_bound.bound(pts), _a_of(f, pts))))
                _assert_corner_sound(f, pts)
        assert finite > 0  # the corrections are exercised, not only the +inf fallback

    def test_off_the_domain_proves_nothing(self, rng):
        f = random_pencil(rng, 3, 2, 3)
        pts = _point_sets(rng, 3)["mixed"]
        start, gap = argument_arc(pts)
        off = np.concatenate([pts[gap <= np.pi], [[1.0, -1.0, 1.0], [1.0, 0.0, 2.0], [1j, -1j, 1.0]]])
        assert len(off) > 3
        assert np.all(f.a_bound.bound(off) == np.inf)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 4), (3, 1, 0), (1, 2, 5)])
    def test_long_resolvent_runs_no_estimate_on_a(self, monkeypatch, shape):
        import posreal.pencil as pencil

        stage, estimated = [None], []
        guard, cond = pencil._refuse_ill_conditioned, np.linalg.cond

        def spy(mats, pol, what, bound=None):
            stage[0] = what
            return guard(mats, pol, what, bound=bound)

        def counting(mats, *args, **kwargs):
            estimated.append(stage[0])
            return cond(mats, *args, **kwargs)

        monkeypatch.setattr(pencil, "_refuse_ill_conditioned", spy)
        monkeypatch.setattr(np.linalg, "cond", counting)
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        zs = halfplane_grid(shape[0], 100, seed=2)
        assert pencil.eval_long_resolvent(f, zs).shape == (len(zs), shape[1], shape[1])
        assert stage[0] == "the U-corner of A(z)^{-1}"
        assert estimated == []  # neither A(z) nor its U-corner runs the estimate


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


def _guard_outcome(call):
    """The refusal message of ``call``, or None when it passes."""
    try:
        call()
    except NumericalRefusalError as exc:
        return str(exc)
    return None


def _accretive_mats(rng, num_vars, dim, skew=3.0):
    """Non-commuting matrices with R_k + R_k* >= beta I, and beta."""
    mats = []
    for _ in range(num_vars):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        low = 0.05 + rng.random()
        mats.append(g @ g.conj().T / dim + low * np.eye(dim) + skew * (h - h.conj().T))
    beta = min(float(np.linalg.eigvalsh(m + m.conj().T)[0]) for m in mats)
    return mats, beta


def _d_of_tuple(f, mats):
    n = f.dim_u
    return sum(np.kron(a[n:, n:], r) for a, r in zip(f.pencil.coeffs, mats))


def _valid_tuple_cases(seed):
    """(f, mats, beta): random pencils under certified and hand-made accretive tuples."""
    rng = np.random.default_rng(300 + seed)
    num_vars = 1 + seed % 3
    f = random_pencil(rng, num_vars, 1 + seed % 2, 2 + 4 * seed, rank_deficient=bool(seed % 2))
    for dim in (1, 2, 3, 4):
        tuples = [random_accretive_tuple(rng, num_vars, dim) for _ in range(3)]
        tuples.append(random_diagonalizable_accretive_pair(rng, dim, num_vars)[0])
        for r in tuples:
            yield f, r.mats, r.bound
        for _ in range(3):
            yield (f,) + _accretive_mats(rng, num_vars, dim)


def _unvalidated_tuple_cases():
    """(f, mats, beta): unchecked pencils with indefinite and skew d-blocks under accretive tuples."""
    rng = np.random.default_rng(12)
    for trial in range(40):
        coeffs = []
        for _ in range(2):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            # slightly indefinite Hermitian part plus a skew part, both
            # small enough that the correction terms often leave a bound
            shift, skew = (0.02, 0.02) if trial % 2 else (0.3, 0.5)
            coeffs.append(g @ g.conj().T - shift * np.eye(4) + skew * (s - s.conj().T))
        f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        for dim in (1, 2, 3):
            yield (f,) + _accretive_mats(rng, 2, dim, skew=0.1)


class TestDTupleConditionBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_dominates_condition(self, seed):
        for f, mats, beta in _valid_tuple_cases(seed):
            bound = d_tuple_condition_bound(f, mats, beta)
            # a valid pencil under an accretive tuple is always covered
            assert np.all(_assert_sound(np.array([bound]), _d_of_tuple(f, mats)[None]))

    def test_unvalidated_indefinite_and_skew_blocks(self):
        finite = 0
        for f, mats, beta in _unvalidated_tuple_cases():
            bound = d_tuple_condition_bound(f, mats, beta)
            finite += int(np.all(_assert_sound(np.array([bound]), _d_of_tuple(f, mats)[None])))
        assert finite > 0  # the corrections are exercised, not only the +inf fallback

    @staticmethod
    def _written_out(f, mats, beta):
        """The d(R) bound with its own constants and formula, as before ``PencilBound``."""
        lam, norms, neg, skew = _d_constants(f)
        mags = np.linalg.norm(np.asarray(mats), axis=(1, 2))
        half = 0.5 * beta
        den = half * lam - (mags - half) @ neg - mags @ skew
        if not (half > 0 and den > 0):
            return np.inf
        return float(mags @ norms / den)

    def test_same_bits_as_the_written_out_bound(self):
        cases = [c for seed in range(6) for c in _valid_tuple_cases(seed)]
        cases += list(_unvalidated_tuple_cases())
        for f, mats, beta in cases:
            got = d_tuple_condition_bound(f, mats, beta)
            assert got.hex() == self._written_out(f, mats, beta).hex()

    def test_singular_d_under_accretive_tuple_is_not_certified(self):
        # d(R) = d_1 (x) R_1 with an indefinite d_1 is singular for R_1 = I
        coeffs = [np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 0.0, 2.0])]
        f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        r = make_tuple([np.eye(2), 1e-3 * np.eye(2)], require="accretive")
        assert d_tuple_condition_bound(f, r.mats, r.bound) == np.inf
        assert d_tuple_condition_bound(f, r.mats, 0.0) == np.inf

    def test_skew_d_blocks_singular_under_accretive_tuple(self):
        # d_1 = 1 + i, d_2 = 1 - i have Re d_1 + Re d_2 = 2 > 0, yet with
        # r_1 = (1 + i)/2 and r_2 = (1 - i)/2 (Re r_k = 1/2) d_1 r_1 + d_2 r_2 = 0,
        # so d(R) = diag(0, 2) is singular under a tuple with beta = 1
        coeffs = [np.diag([1.0, 1.0 + 1j]), np.diag([1.0, 1.0 - 1j])]
        f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        r = make_tuple([np.diag([0.5 + 0.5j, 1.0]), np.diag([0.5 - 0.5j, 1.0])], require="accretive")
        assert r.bound == pytest.approx(1.0)
        assert np.linalg.cond(_d_of_tuple(f, r.mats)) > 1e15
        assert d_tuple_condition_bound(f, r.mats, r.bound) == np.inf
        with pytest.raises(NumericalRefusalError):
            calc_realized(f, r)

    def test_p0_is_trivially_conditioned(self):
        f = random_pencil(np.random.default_rng(2), 2, 2, 0)
        assert d_tuple_condition_bound(f, [np.eye(2), np.eye(2)], 2.0) == 1.0

    @pytest.mark.parametrize("eps", [1e-8, 3e-10, 1e-10, 4e-11, 1e-11])
    def test_near_singular_d_keeps_the_decision(self, eps):
        # d(R) = diag(1, eps) (x) R: its condition crosses 1/psd_slack as eps falls
        coeffs = [np.diag([1.0, 1.0, eps]), np.diag([1.0, 0.5, eps])]
        f = RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False), compressed=True)
        r = make_tuple([np.diag([1.0, 2.0]), np.diag([1.5, 1.0])], require="accretive")
        d = _d_of_tuple(f, r.mats)
        expect = _guard_outcome(lambda: _refuse_ill_conditioned(d[None], DEFAULT_POLICY, "d(R)"))
        assert _guard_outcome(lambda: calc_realized(f, r)) == expect


def _indefinite_values(rng, count, n):
    """Random value stacks whose Hermitian parts are indefinite."""
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return g * rng.uniform(0.1, 3.0, (count, 1, 1))


class TestFPlusIConditionBound:
    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (3, 4, 32), (2, 3, 3)])
    def test_positive_real_values_are_covered(self, rng, shape):
        f = random_pencil(rng, *shape, rank_deficient=shape[1] > 2)
        fv = DiskFunctionView(f).eval_F(disk_grid(shape[0], 60, seed=3))
        n = fv.shape[-1]
        finite = _assert_sound(f_plus_i_condition_bound(fv), fv + np.eye(n))
        # Re F >= 0, but Gershgorin discs may still reach -1 for a few values
        assert np.mean(finite) > 0.9

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_indefinite_real_parts(self, rng, n):
        fv = _indefinite_values(rng, 200, n)
        bound = f_plus_i_condition_bound(fv)
        finite = _assert_sound(bound, fv + np.eye(n))
        assert not np.all(finite)
        # the bound is +inf wherever Re F may reach -1
        herm = 0.5 * (fv + fv.conj().transpose(0, 2, 1))
        assert np.all(np.isinf(bound[np.linalg.eigvalsh(herm)[:, 0] <= -1.0]))

    def test_minus_one_in_the_spectrum(self):
        fv = np.stack([np.diag([1.0, -1.0]), np.diag([2.0, 3.0])]).astype(complex)
        assert f_plus_i_condition_bound(fv)[0] == np.inf
        assert np.isfinite(f_plus_i_condition_bound(fv)[1])

    def test_non_finite_values_prove_nothing(self):
        fv = np.stack([np.full((2, 2), np.nan), np.diag([1e300, 1.0]), np.eye(2)]).astype(complex)
        bound = f_plus_i_condition_bound(fv)
        assert not np.isfinite(bound[0]) and not np.isfinite(bound[1])
        assert bound[2] == np.sqrt(2.0)  # ||2I||_F / 2

    @pytest.mark.parametrize("gap", [1e-6, 3e-10, 1.5e-10, 5e-11, 0.0])
    def test_near_threshold_keeps_the_decision(self, rng, gap):
        # F = diag(-1 + gap, 1) beside well-conditioned values; F + I nears singular
        fv = np.concatenate([np.diag([-1.0 + gap, 1.0]).astype(complex)[None],
                             np.stack([np.eye(2) * (1 + k) for k in range(5)])])
        eye = np.eye(2)
        expect = _guard_outcome(lambda: _refuse_ill_conditioned(fv + eye, DEFAULT_POLICY, "F(w) + I"))
        assert _guard_outcome(lambda: value_cayley(fv)) == expect


class TestIMinusSConditionBound:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_contractive_stacks(self, rng, n):
        sv = _indefinite_values(rng, 200, n)
        sv *= (rng.uniform(0.0, 0.999, 200) / np.linalg.norm(sv, axis=(1, 2)))[:, None, None]
        bound = i_minus_s_condition_bound(sv)
        assert np.all(_assert_sound(bound, np.eye(n) - sv))

    @pytest.mark.parametrize("n", [2, 4])
    def test_non_contractive_stacks(self, rng, n):
        sv = _indefinite_values(rng, 200, n)
        # Frobenius norms from 0.5 to 3: some below one, some with ||S|| < 1 <= ||S||_F
        sv *= (rng.uniform(0.5, 3.0, 200) / np.linalg.norm(sv, axis=(1, 2)))[:, None, None]
        bound = i_minus_s_condition_bound(sv)
        finite = _assert_sound(bound, np.eye(n) - sv)
        s = np.minimum(np.linalg.norm(sv, axis=(1, 2)), np.sqrt(
            np.linalg.norm(sv, 1, axis=(1, 2)) * np.linalg.norm(sv, np.inf, axis=(1, 2))))
        assert np.array_equal(finite, s < 1.0)
        assert 0 < np.sum(finite) < len(sv)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_certified_where_only_the_row_and_column_sums_are_below_one(self, rng, n):
        # ||S||_F >= 1 > sqrt(||S||_1 ||S||_inf): scaled identities, diagonal
        # and permuted diagonal stacks, and random unitaries times a factor
        # below one; the Frobenius norm alone proves nothing here
        scales = rng.uniform(1.0 / np.sqrt(n), 0.999, 30)
        phases = np.exp(2j * np.pi * rng.random((30, n)))
        perm = np.eye(n)[rng.permutation(n)]
        unitary = np.linalg.qr(rng.standard_normal((30, n, n)) + 1j * rng.standard_normal((30, n, n)))[0]
        stacks = [scales[:, None, None] * np.eye(n),
                  scales[:, None, None] * (phases[:, :, None] * np.eye(n)),
                  scales[:, None, None] * (phases[:, :, None] * perm)]
        for sv in stacks:
            assert np.all(np.linalg.norm(sv, axis=(1, 2)) >= 1.0)
            bound = i_minus_s_condition_bound(sv)
            assert np.all(_assert_sound(bound, np.eye(n) - sv))
        # a unitary has row sums above one, so it is certified only while ||S||_F < 1
        sv = (0.999 / np.sqrt(n)) * unitary
        assert np.all(_assert_sound(i_minus_s_condition_bound(sv), np.eye(n) - sv))

    @pytest.mark.parametrize("gap", [1e-6, 3e-10, 1.5e-10, 5e-11, 0.0])
    def test_near_threshold_keeps_the_decision(self, gap):
        # S = diag(0, 1 - gap): cond(I - S) = 1/gap, bound (2 - gap)/gap
        sv = np.concatenate([np.diag([0.0, 1.0 - gap]).astype(complex)[None],
                             np.stack([np.eye(2) * 0.1 * k for k in range(5)])])
        eye = np.eye(2)
        expect = _guard_outcome(lambda: _refuse_ill_conditioned(eye - sv, DEFAULT_POLICY, "I - S(w)"))
        assert _guard_outcome(lambda: inv_value_cayley(sv)) == expect


def _former_neumann(s):
    """(1 + s)/(1 - s) where s < 1, +inf elsewhere, as each caller computed it before
    ``core.neumann_condition_bound``."""
    out = np.full(len(s), np.inf)
    ok = s < 1.0
    out[ok] = (1.0 + s[ok]) / (1.0 - s[ok])
    return out


class TestNeumannConditionBound:
    def test_values_and_unproven_entries(self):
        s = np.array([0.0, 0.5, 1.0 - 1e-12, 1.0, 2.0, np.inf, np.nan])
        got = neumann_condition_bound(s)
        assert got[0] == 1.0 and got[1] == 3.0
        assert got[2] == (1.0 + s[2]) / (1.0 - s[2])
        assert np.all(got[3:] == np.inf)  # s >= 1, and a NaN, prove nothing

    def test_callers_keep_their_bits(self, rng):
        sv = _indefinite_values(rng, 300, 3)
        sv *= (rng.uniform(0.1, 2.0, 300) / np.linalg.norm(sv, axis=(1, 2)))[:, None, None]
        mags = np.abs(sv)
        s = np.minimum(np.linalg.norm(sv, axis=(1, 2)),
                       np.sqrt(np.max(mags.sum(axis=1), axis=1) * np.max(mags.sum(axis=2), axis=1)))
        assert np.array_equal(i_minus_s_condition_bound(sv).view(np.uint64), _former_neumann(s).view(np.uint64))
        c = _random_contraction(rng, (2, 1, 3), 2, 0.9)
        pts = np.concatenate([disk_grid(3, 40, seed=6), 1.6 * disk_grid(3, 40, seed=7)])
        rho = np.linalg.norm(c.blocks()[0], 2) * np.max(np.abs(pts), axis=1)
        want = _former_neumann(rho)
        assert np.array_equal(transfer_condition_bound(c, pts).view(np.uint64), want.view(np.uint64))
        assert 0 < np.sum(np.isfinite(want)) < len(pts)


class TestVerifyNeedsNoEstimate:
    """On valid pencils the d(R), F(w) + I and M(w) guards of ``run_verification`` are certified."""

    @pytest.mark.parametrize("shape, rank_deficient, grid", [
        ((3, 4, 32), False, 20), ((3, 2, 4), True, 30), ((2, 1, 2), False, 25),
        ((2, 2, 3), False, 25), ((3, 1, 3), True, 25), ((2, 2, 0), False, 12),
    ])
    def test_no_condition_estimate(self, monkeypatch, shape, rank_deficient, grid):
        stages, estimated = [], []
        real_cond = np.linalg.cond

        def spy(mats, pol, what, bound=None):
            stages.append(what)
            try:
                return _refuse_ill_conditioned(mats, pol, what, bound=bound)
            finally:
                stages.pop()

        def cond(mats, *args, **kwargs):
            estimated.append(stages[-1] if stages else None)
            return real_cond(mats, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", cond)
        monkeypatch.setattr(calculus, "_refuse_ill_conditioned", spy)
        monkeypatch.setattr(cayley, "_refuse_ill_conditioned", spy)
        monkeypatch.setattr(colligation, "_refuse_ill_conditioned", spy)
        f = random_pencil(np.random.default_rng(sum(shape)), *shape, rank_deficient=rank_deficient)
        report = run_verification(f, seed=4, grid_size=grid)
        assert report.verdict
        assert "d(R)" not in estimated
        assert "F(w) + I" not in estimated
        assert "M(w)" not in estimated


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
        c = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation
        a = c.blocks()[0]
        sys = np.eye(c.dim_state) - a[None] * c.state_weights(ws)[:, None, :]
        assert np.all(_assert_sound(transfer_condition_bound(c, ws), sys))


class TestGramResidual:
    """The synthesis' gate is the kernel identity residual of the converted data."""

    @pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (2, 3, 3)])
    def test_matches_dense(self, rng, shape, dense_kernel_gate):
        f = random_pencil(rng, *shape)
        ws = disk_grid(shape[0], 16, seed=int(rng.integers(1000)))
        dk = DiskKernelEvaluator(f)
        tables, svals = dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)
        syn = build_colligation(ws, tables, svals)
        assert abs(syn.gram_residual - dense_kernel_gate(ws, tables, svals)) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_gates_follow_dense_decision(self, seed, dense_kernel_gate):
        rng = np.random.default_rng(100 + seed)
        f = random_pencil(rng, 2 + seed % 2, 2, 3)
        ws = disk_grid(f.num_vars, 12, seed=seed)
        dk = DiskKernelEvaluator(f)
        tables, svals = dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)
        e = rng.standard_normal(svals.shape) + 1j * rng.standard_normal(svals.shape)
        slope = dense_kernel_gate(ws, tables, svals + 1e-6 * e) / 1e-6
        seen = set()
        for target in (0.5e-9, 2e-9, 1e-8, 0.5e-6, 2e-6, 1e-4):
            perturbed = svals + (target / slope) * e
            dense = dense_kernel_gate(ws, tables, perturbed)
            expected = "exact" if dense <= DEFAULT_POLICY.residual_tol else "reject"
            seen.add(expected)
            try:
                syn = build_colligation(ws, tables, perturbed)
            except ValidationError as exc:
                assert expected == "reject", (target, dense)
                assert "kernel identity violated" in str(exc)
                continue
            except NumericalRefusalError as exc:
                # only the interpolation check of exact data may refuse
                assert expected == "exact", (target, dense)
                assert "interpolate" in str(exc)
                continue
            assert expected == "exact", (target, dense, syn.gram_residual)
            assert abs(syn.gram_residual - dense) <= 1e-12
        assert seen == {"exact", "reject"}


def _reflection_pencils(v, dims, pts):
    """M(w) = V_u* V_u + sum_k z_k V_k* V_k at each point, written out here."""
    bounds = np.cumsum((0,) + tuple(dims))
    vu = v[bounds[-1]:]
    m = np.broadcast_to(vu.conj().T @ vu, (len(pts),) + (v.shape[1],) * 2).copy()
    z = (1.0 + pts) / (1.0 - pts)
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        m += z[:, k, None, None] * (v[lo:hi].conj().T @ v[lo:hi])
    return m


def _assert_covers_once(guarded, stage, expected):
    """The guard calls of one evaluation: their stacks, concatenated in call
    order, are ``expected`` (every point exactly once), each call guards
    ``stage``, and every bound is finite and sound."""
    assert guarded and [what for what, _, _ in guarded] == [stage] * len(guarded)
    mats = np.concatenate([mats for _, mats, _ in guarded])
    bound = np.concatenate([bound for _, _, bound in guarded])
    assert mats.shape == expected.shape and bound.shape == (len(expected),)
    assert np.max(np.abs(mats - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.all(np.isfinite(bound))
    _assert_sound(bound, mats)


class TestReflectionConditionBound:
    """The M(w) certificate of the reflection route, read off the guard it is given to.

    The M(w) solve guards its points in blocks, so each evaluation is
    checked over all of its guard calls: together they cover every point
    exactly once, each with a finite bound that dominates its condition.
    """

    @pytest.fixture
    def guarded(self, monkeypatch):
        seen = []

        def spy(mats, pol, what, bound=None):
            seen.append((what, mats.copy(), None if bound is None else np.array(bound)))
            return _refuse_ill_conditioned(mats, pol, what, bound=bound)

        monkeypatch.setattr(colligation, "_refuse_ill_conditioned", spy)
        return seen

    @pytest.mark.parametrize("shape, rank_deficient", [
        ((2, 2, 3), False), ((3, 2, 4), True), ((3, 1, 0), False), ((2, 1, 5), False),
        ((1, 2, 2), False),
    ])
    def test_bound_dominates_condition(self, rng, guarded, shape, rank_deficient):
        f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
        ws = disk_grid(shape[0], 20, seed=int(rng.integers(1000)))
        dk = DiskKernelEvaluator(f)
        c = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation
        edge = 0.999 * np.exp(2j * np.pi * rng.random((40, shape[0])))
        mixed = np.concatenate([0.999 * np.exp(2j * np.pi * rng.random((20, 1))),
                                0.2 * rng.random((20, shape[0] - 1))], axis=1)
        # every Re z_k > 1 here, so mu = 1 comes from the V_u* V_u term
        near_one = 0.9 + 0.05 * (rng.random((20, shape[0])) + 1j * rng.random((20, shape[0])))
        for pts in (ws, edge, mixed, near_one):
            guarded.clear()
            transfer_eval(c, pts)
            _assert_covers_once(guarded, "M(w)", _reflection_pencils(c.reflection, c.dims, pts))

    @pytest.mark.parametrize("shape, rank_deficient", [
        ((2, 2, 3), False), ((3, 2, 4), True), ((3, 1, 3), True), ((2, 2, 0), False),
        ((3, 1, 0), False), ((3, 4, 32), False),
    ])
    def test_pencil_factor_bound_dominates_condition(self, rng, guarded, shape, rank_deficient):
        # the Schur side of a pencil: the reflection factor W of its colligation,
        # the SVD of V = [-L_1; ...; -L_N; E*], and M(w) congruent to A(z) + E E*
        f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
        c = colligation.colligation_from_pencil(f)
        ws = disk_grid(shape[0], 30, seed=int(rng.integers(1000)))
        edge = 0.999 * np.exp(2j * np.pi * rng.random((40, shape[0])))
        mixed = np.concatenate([0.999 * np.exp(2j * np.pi * rng.random((20, 1))),
                                0.2 * rng.random((20, shape[0] - 1))], axis=1)
        for pts in (ws, edge, mixed):
            guarded.clear()
            transfer_eval(c, pts)
            expected = _reflection_pencils(c.reflection, c.dims, pts)
            assert expected.shape[1:] == (f.pencil.dim, f.pencil.dim)
            _assert_covers_once(guarded, "M(w)", expected)

    def test_off_polydisk_and_rank_deficient_factors_prove_nothing(self, guarded):
        # V_1 = I and V_u = (1, 1): at w = 3, z = -2 and M = V_u* V_u - 2 I is
        # singular; mu < 0 there, so the bound must be +inf, not negative
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=complex)
        with pytest.raises(NumericalRefusalError, match="M"):
            colligation.reflection_transfer(v, (2,), np.array([[0.5], [3.0]]))
        bound = guarded[-1][2]
        assert np.isfinite(bound[0]) and bound[1] == np.inf
        # V_1 = 0: V* V = V_u* V_u is singular, and so is every M(w)
        with pytest.raises(NumericalRefusalError, match="M"):
            colligation.reflection_transfer(v[1:] * [[0.0], [1.0]], (1,), np.array([[0.5]]))
        assert not guarded[-1][2][0] < 1e9

    def test_empty_reflection_factor(self, guarded):
        # U = I has no eigenvalue -1: V has no columns, M(w) is 0 x 0 and S(w) = I
        c = AglerColligation((1, 1), 1, np.eye(3), selfadjoint=True, reflection=np.zeros((3, 0)))
        assert np.array_equal(transfer_eval(c, np.array([[0.1, 0.2], [-0.5, 0.3j]])),
                              np.ones((2, 1, 1), dtype=complex))
        assert guarded[-1][2].tolist() == [0.0, 0.0]

    def test_clears_on_disk_grids_without_the_estimate(self, monkeypatch, rng):
        f = random_pencil(rng, 3, 2, 4)
        ws = disk_grid(3, 60, seed=8)
        dk = DiskKernelEvaluator(f)
        c = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation

        def no_estimate(*args, **kwargs):
            raise AssertionError("the condition estimate was called")

        monkeypatch.setattr(np.linalg, "cond", no_estimate)
        for seed in range(4):
            transfer_eval(c, disk_grid(3, 50, seed=seed))
