import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import posreal.calculus as calculus
from posreal.calculus import (
    CommutingTuple,
    HuntConfig,
    TAYLOR_RADIUS,
    TaylorCoefficients,
    accretive_positivity_check,
    calc_realized,
    calc_series,
    herglotz_taylor_from_schur,
    hunt,
    make_tuple,
    operator_cayley,
    pointwise_diagonal_oracle,
    taylor_from_colligation,
    taylor_from_function,
    von_neumann_check,
)
from posreal.cayley import DiskFunctionView, DiskKernelEvaluator
from posreal.colligation import build_colligation
from posreal.core import (
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    eigvalsh_or_refuse,
    hermitian_part,
    operator_norm,
)
from posreal.pencil import PsdPencil, RealizedFunction, realize
from posreal.sampling import (
    disk_grid,
    random_accretive_tuple,
    random_contraction_tuple,
    random_diagonalizable_accretive_pair,
    random_pencil,
)


def herglotz_coeffs_for(f, degree=45, seed=0):
    """Taylor table of the halfplane function through the disk chart."""
    view = DiskFunctionView(f)
    sch = taylor_from_function(view.eval_double_cayley, f.num_vars, f.dim_u, degree=degree)
    sup_pts = 0.9 * disk_grid(f.num_vars, 16, seed)
    sup = 2.0 * float(np.max(np.linalg.norm(view.eval_F(sup_pts), ord=2, axis=(1, 2))))
    return herglotz_taylor_from_schur(sch, sup_bound=sup, sup_radius=0.9)


class TestMakeTuple:
    def test_identity_pair_is_accretive(self):
        t = make_tuple([np.eye(2), np.eye(2)], require="accretive")
        assert t.kind == "accretive" and t.bound == pytest.approx(2.0)

    def test_diagonal_contraction_margin(self):
        t = make_tuple([np.diag([0.0, 1 / 3]), np.diag([0.25, 0.0])])
        assert t.kind == "contraction"
        assert 1 - t.bound == pytest.approx(2 / 3)

    def test_polynomials_of_seed_commute_exactly(self, rng):
        s = rng.standard_normal((4, 4))
        p = 0.1 * s @ s + 0.3 * s
        q = -0.2 * s @ s + 0.7 * np.eye(4)
        t = make_tuple([p, q])
        # analytically zero; matmul rounding leaves only ulp-level noise
        assert t.commutator_norm < 1e-15

    def test_rejects_noncommuting(self, rng):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            make_tuple([a, b])

    @staticmethod
    def _per_matrix_loop(mats):
        """(commutator norm, largest norm, accretivity bound) with one norm or eigvalsh per matrix."""
        worst = 0.0
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                den = 1.0 + operator_norm(mats[i]) * operator_norm(mats[j])
                worst = max(worst, operator_norm(comm) / den)
        rho = max(operator_norm(m) for m in mats)
        accr = min(float(eigvalsh_or_refuse(hermitian_part(m) * 2.0)[0]) for m in mats)
        return worst, rho, accr

    def test_stacked_certificate_equals_per_matrix_loop(self, monkeypatch):
        rng = np.random.default_rng(8)
        monkeypatch.setattr(TolerancePolicy, "commutator_tol", 10.0)  # admits non-commuting families
        loose = TolerancePolicy()
        families = [random_contraction_tuple(rng, 3, 4).mats, random_accretive_tuple(rng, 2, 3).mats,
                    [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(4)],
                    [np.diag([0.5, -2.0])], [np.eye(2), 3.0 * np.eye(2)]]
        for mats in families:
            t = make_tuple(mats, loose)
            comm, rho, accr = self._per_matrix_loop([np.asarray(m, dtype=complex) for m in mats])
            assert t.commutator_norm == comm
            expected = ("contraction", rho) if rho <= 1.0 - loose.margin else (
                ("accretive", accr) if accr >= loose.margin else ("none", 0.0))
            assert (t.kind, t.bound) == expected
        assert {make_tuple(m, loose).kind for m in families} == {"contraction", "accretive", "none"}


class TestCalcSeries:
    def test_geometric_series(self):
        # F(w) = (1+w)/(1-w) = 1 + 2 sum w^t on diag(0, 1/3)
        f = realize([np.array([[1.0]])], 1)
        co = herglotz_coeffs_for(f, degree=60)
        t = make_tuple([np.diag([0.0, 1 / 3])], require="contraction")
        val, tail = calc_series(co, t)
        assert np.max(np.abs(val - np.diag([1.0, 2.0]))) < 1e-14
        assert tail < 1e-14

    def test_constant_function(self):
        d0 = np.array([[0.25, 0.0], [0.0, -0.5]])
        co = TaylorCoefficients(2, 2, 0, d0[None, None], sup_radius=1.0, sup_bound=0.5)
        t = make_tuple([np.zeros((3, 3)), 0.1 * np.eye(3)], require="contraction")
        val, tail = calc_series(co, t)
        assert np.allclose(val, np.kron(d0, np.eye(3)))
        # the Cauchy estimate cannot see that higher coefficients vanish,
        # but the certified tail stays small at this radius
        assert tail < 0.2

    def test_monomial(self, rng):
        mono = np.zeros((3, 3, 1, 1))
        mono[1, 1] = np.eye(1)
        co = TaylorCoefficients(2, 1, 2, mono, sup_radius=1.0, sup_bound=1.0)
        t = random_contraction_tuple(rng, 2, 3, target_norm=0.3)
        val, _ = calc_series(co, t)
        assert np.allclose(val, np.kron(np.eye(1), t.mats[0] @ t.mats[1]))

    def test_tail_decreases_with_degree(self):
        co_short = TaylorCoefficients(1, 1, 5, np.zeros((6, 1, 1)), sup_radius=0.9, sup_bound=3.0)
        co_long = TaylorCoefficients(1, 1, 25, np.zeros((26, 1, 1)), sup_radius=0.9, sup_bound=3.0)
        assert co_long.tail_bound(0.4) < co_short.tail_bound(0.4) < 1.0

    @pytest.mark.parametrize("num_vars, degree", [(1, 0), (1, 30), (2, 200), (3, 40), (4, 15), (7, 6)])
    @pytest.mark.parametrize("q", [1e-3, 0.1, 0.5, 0.9, 0.99])
    def test_tail_bound_is_the_exact_sum_rounded_up(self, num_vars, degree, q):
        # sup_bound sum_{j > d} binom(j + N - 1, N - 1) q^j in exact rationals:
        # the whole series is (1 - q)^{-N}, minus the terms up to degree d
        co = TaylorCoefficients(num_vars, 0, degree, np.zeros((degree + 1,) * num_vars + (0, 0)),
                                sup_radius=0.8, sup_bound=2.5)
        qf = Fraction(q * 0.8) / Fraction(0.8)
        head = sum(math.comb(j + num_vars - 1, num_vars - 1) * qf ** j for j in range(degree + 1))
        exact = float(Fraction(2.5) * ((1 - qf) ** -num_vars - head))
        tail = co.tail_bound(q * 0.8)
        assert exact <= tail <= exact * (1.0 + 1e-11)

    @pytest.mark.parametrize("num_vars, degree", [(1, 2 ** 21 - 1), (2, 1023), (3, 63), (4, 15)])
    def test_tail_bound_stays_finite_on_the_largest_tables(self, num_vars, degree):
        # the largest degree TAYLOR_MAX_POINTS admits for each N; dim 0 keeps the table empty
        co = TaylorCoefficients(num_vars, 0, degree, np.zeros((degree + 1,) * num_vars + (0, 0)),
                                sup_radius=1.0, sup_bound=1.0)
        with np.errstate(invalid="raise", divide="raise"):  # terms below 1e-308 may underflow
            tails = [co.tail_bound(q) for q in (1e-3, 0.5, 0.99, 1.0 - 1e-9)]
        assert all(math.isfinite(t) and t >= 0 for t in tails)
        assert tails == sorted(tails) and tails[-1] > 0

    def test_refuses_radius_at_or_beyond_bound(self):
        co = TaylorCoefficients(1, 1, 5, np.zeros((6, 1, 1)), sup_radius=0.5, sup_bound=1.0)
        t = CommutingTuple((np.diag([0.6]),), 0.0, "contraction", 0.6)
        with pytest.raises(NumericalRefusalError):
            calc_series(co, t)

    @pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
    def test_member_by_member_sum_equals_kron_loop(self, rng, num_vars):
        # n = 2 != m = 3 pins the reshape and transpose into the kron layout;
        # N = 1 is the first product alone, N = 4 adds three tensordot steps
        degree = 5
        shape = (degree + 1,) * num_vars + (2, 2)
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        table[np.indices(shape[:num_vars]).sum(axis=0) > degree] = 0.0
        idx = [t for t in itertools.product(range(degree + 1), repeat=num_vars) if sum(t) <= degree]
        co = TaylorCoefficients(num_vars, 2, degree, table, sup_radius=1.0, sup_bound=1.0)
        t = random_contraction_tuple(rng, num_vars, 3, target_norm=0.3)
        val, _ = calc_series(co, t)
        # T^s as the ordered product T_1^{s_1} ... T_N^{s_N}
        want = sum(np.kron(table[s], functools.reduce(
            np.matmul, [np.linalg.matrix_power(tk, sk) for tk, sk in zip(t.mats, s)]))
            for s in idx)
        assert np.linalg.norm(val - want) <= 1e-13 * np.linalg.norm(want)

    def test_working_memory_stays_below_twice_the_table(self, rng):
        # no (degree + 1)^N m^2 table of the powers T^t and no copy of the coefficients
        degree = 255
        shape = (degree + 1,) * 2 + (1, 1)
        table = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        table[np.indices(shape[:2]).sum(axis=0) > degree] = 0.0
        co = TaylorCoefficients(2, 1, degree, table, sup_radius=1.0, sup_bound=1.0)
        t = random_contraction_tuple(rng, 2, 6, target_norm=0.3)
        tracemalloc.start()
        try:
            calc_series(co, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * co.coeffs.nbytes


class TestCalcRealized:
    def test_scalar_point(self, parallel):
        r = make_tuple([np.eye(2), np.eye(2)], require="accretive")
        assert np.allclose(calc_realized(parallel, r), 0.5 * np.eye(2))

    def test_joint_diagonal_pair(self, parallel):
        r = make_tuple([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])], require="accretive")
        assert np.allclose(calc_realized(parallel, r), np.diag([2 / 3, 2 / 3]))

    def test_coordinate_function(self, rng):
        f = realize([np.array([[1.0]]), np.array([[0.0]])], 1)
        r = random_accretive_tuple(rng, 2, 4)
        assert np.allclose(calc_realized(f, r), np.kron(np.eye(1), r.mats[0]))

    def test_oracle_equivalence(self, parallel, rng):
        for _ in range(20):
            t, v, eigs = random_diagonalizable_accretive_pair(rng, int(rng.integers(2, 7)))
            lhs = calc_realized(parallel, t)
            rhs = pointwise_diagonal_oracle(parallel, v, eigs)
            assert np.linalg.norm(lhs - rhs, 2) < 1e-10 * (1 + np.linalg.norm(rhs, 2))

    def test_series_agreement(self, rng):
        for _ in range(4):
            f = random_pencil(rng, 2, int(rng.integers(1, 3)), 3, rank_deficient=True)
            co = herglotz_coeffs_for(f, degree=45, seed=int(rng.integers(1 << 30)))
            t = random_contraction_tuple(rng, 2, 4, target_norm=0.35)
            sval, tail = calc_series(co, t)
            rval = calc_realized(f, operator_cayley(t))
            assert np.linalg.norm(sval - rval, 2) <= tail + 1e-9 * (1 + np.linalg.norm(rval, 2))

    def test_dehomogenized_consistency(self, rng):
        # Re[(I x R_N) g(R_N^{-1} R_1, ...)] is PSD for pencil-backed g,
        # with g evaluated through the joint-eigenvalue oracle on a
        # simultaneously diagonalized accretive triple
        from posreal.geometry import dehomogenize, in_omega_plus

        for _ in range(10):
            f = random_pencil(rng, 3, 2, 3)
            t, v, eigs = random_diagonalizable_accretive_pair(rng, 4, num_vars=3)
            quot_eigs = eigs[:, :2] / eigs[:, 2:3]
            assert all(in_omega_plus(q) for q in quot_eigs)
            g = dehomogenize(f)
            g_val = pointwise_diagonal_oracle(
                RealizedFunction(f.pencil), v,
                np.concatenate([quot_eigs, np.ones((4, 1))], axis=1))
            big = np.kron(np.eye(f.dim_u), t.mats[2]) @ g_val
            lo = np.linalg.eigvalsh(big + big.conj().T)[0]
            assert lo > -1e-10 * (1 + np.linalg.norm(big, 2))
            # sanity: the oracle value really is g at the quotient eigenvalues
            assert np.allclose(g_val, pointwise_diagonal_oracle(f, v, np.concatenate(
                [quot_eigs, np.ones((4, 1))], axis=1)))
            assert np.allclose(g(quot_eigs[0]), f(np.append(quot_eigs[0], 1.0)))


class TestPositivity:
    def test_identity_tuple(self, parallel):
        r = make_tuple([np.eye(3), np.eye(3)], require="accretive")
        ok, lo = accretive_positivity_check(parallel, r)
        assert ok and lo >= -1e-12

    def test_random_sweep(self, parallel, rng):
        for _ in range(25):
            r = random_accretive_tuple(rng, 2, int(rng.integers(2, 7)))
            ok, _ = accretive_positivity_check(parallel, r)
            assert ok

    def test_indefinite_pencil_fails_somewhere(self):
        # unchecked pencil with an indefinite coefficient: f(z) = -z1 + z2
        pencil = PsdPencil.from_coeffs(
            [np.array([[-1.0]]), np.array([[1.0]])], 1, validate=False)
        f = RealizedFunction(pencil)
        r = make_tuple([2 * np.eye(2), 0.5 * np.eye(2)], require="accretive")
        ok, lo = accretive_positivity_check(f, r)
        assert not ok and lo < -1


class TestVonNeumann:
    def test_product_coordinate_ando_regime(self, rng):
        mono = np.zeros((3, 3, 1, 1))
        mono[1, 1] = np.eye(1)
        co = TaylorCoefficients(2, 1, 2, mono, sup_radius=1.0, sup_bound=1.0)
        for _ in range(10):
            t = random_contraction_tuple(rng, 2, int(rng.integers(2, 6)),
                                         target_norm=float(0.2 + 0.5 * rng.random()))
            norm, tail, violation = von_neumann_check(co, t)
            assert not violation and norm <= 1 + tail + 1e-9

    def test_zero_function(self, rng):
        co = TaylorCoefficients(2, 1, 0, np.zeros((1, 1, 1, 1)), sup_radius=1.0, sup_bound=0.0)
        t = random_contraction_tuple(rng, 2, 3)
        norm, _, violation = von_neumann_check(co, t)
        assert norm == 0.0 and not violation

    def test_pencil_derived(self, rng):
        f = random_pencil(rng, 2, 2, 3)
        view = DiskFunctionView(f)
        sch = taylor_from_function(view.eval_double_cayley, 2, 2, degree=45)
        for _ in range(5):
            t = random_contraction_tuple(rng, 2, 4, target_norm=0.35)
            norm, tail, violation = von_neumann_check(sch, t)
            assert not violation


class TestTaylorTable:
    def test_float_table_becomes_complex128(self):
        table = np.array([[1.0, 2.0], [3.0, 0.0]]).reshape(2, 2, 1, 1)  # 1 + 2 w_2 + 3 w_1
        co = TaylorCoefficients(2, 1, 1, table)
        assert co.coeffs.dtype == np.complex128
        assert np.array_equal(co.coeffs, table)

    @pytest.mark.parametrize("shape", [(3, 3, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1, 1), (4, 1, 1)])
    def test_wrong_shape_is_refused(self, shape):
        with pytest.raises(ShapeError):
            TaylorCoefficients(2, 1, 1, np.zeros(shape))

    def test_entry_above_degree_is_refused(self):
        table = np.zeros((2, 2, 1, 1))
        table[1, 1] = 1e-300  # |t| = 2 > degree 1
        with pytest.raises(ValidationError, match="above degree 1"):
            TaylorCoefficients(2, 1, 1, table)


class TestTaylorSources:
    @pytest.mark.parametrize("num_vars, degree, grid_size", [(2, 10, 128), (3, 6, 64)])
    def test_colligation_recursion_matches_quadrature(self, rng, num_vars, degree, grid_size):
        f = random_pencil(rng, num_vars, 2, 3)
        view = DiskFunctionView(f)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(num_vars, 30, seed=3)
        syn = build_colligation(ws, dk.theta_table(ws), view.eval_double_cayley(ws))
        by_recursion = taylor_from_colligation(syn.colligation, degree)
        by_quadrature = taylor_from_function(view.eval_double_cayley, num_vars, 2, degree=degree,
                                             grid_size=grid_size)
        for t_idx in np.ndindex(by_recursion.coeffs.shape[:num_vars]):
            assert np.linalg.norm(by_recursion.coeffs[t_idx] - by_quadrature.coeffs[t_idx]) < 1e-10

    @pytest.mark.parametrize("num_vars, degree", [(2, 12), (3, 6)])
    def test_herglotz_coefficients_equal_cauchy_product(self, rng, num_vars, degree):
        f = random_pencil(rng, num_vars, 2, 3)
        sch = taylor_from_function(DiskFunctionView(f).eval_double_cayley, num_vars, 2,
                                   degree=degree)
        idx = sorted((t for t in itertools.product(range(degree + 1), repeat=num_vars)
                      if sum(t) <= degree), key=sum)
        eye = np.eye(2)

        def below(t):
            return [(s, tuple(np.subtract(t, s))) for s in idx if all(np.less_equal(s, t))]

        g = {}  # G = (I - S)^{-1}, solved one coefficient at a time
        for t in idx:
            rhs = eye * (sum(t) == 0) + sum(sch.coeffs[s] @ g[r] for s, r in below(t) if sum(s))
            g[t] = np.linalg.solve(eye - sch.coeffs[idx[0]], rhs)
        herglotz = herglotz_taylor_from_schur(sch)
        for t in idx:
            want = g[t] + sum(sch.coeffs[s] @ g[r] for s, r in below(t))  # F = (I + S) G
            assert np.linalg.norm(herglotz.coeffs[t] - want) <= 1e-12 * (1.0 + np.linalg.norm(want))

    @pytest.mark.parametrize("num_vars, n, p, degree, sigma", [(1, 1, 3, 40, None), (2, 1, 2, 30, None),
                                                               (1, 2, 3, 40, None), (2, 2, 3, 45, None),
                                                               (1, 2, 3, 8, 2e-10), (2, 2, 3, 6, 2e-10)])
    def test_herglotz_equals_the_per_index_solve_recursion(self, rng, num_vars, n, p, degree, sigma):
        # the recursion solves I - S_0 once and multiplies by G_0; the former
        # one solved I - S_0 again at every multi-index.  With ``sigma``,
        # I - S_0 = U diag(sigma, 1) V* has condition 1/sigma = 5e9, which
        # the guard still accepts (refusal above 1/psd_slack = 1e10)
        f = random_pencil(rng, num_vars, n, p)
        sch = taylor_from_function(DiskFunctionView(f).eval_double_cayley, num_vars, n, degree=degree)
        idx = sorted((t for t in itertools.product(range(degree + 1), repeat=num_vars)
                      if sum(t) <= degree), key=sum)
        eye = np.eye(n, dtype=complex)
        if sigma is not None:
            u, v = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for _ in range(2))
            sch.coeffs[idx[0]] = eye - u @ np.diag([sigma, 1.0]) @ v.conj().T
            assert np.linalg.cond(eye - sch.coeffs[idx[0]]) == pytest.approx(1.0 / sigma)
        base = eye - sch.coeffs[idx[0]]
        g = np.zeros_like(sch.coeffs)
        g[idx[0]] = np.linalg.solve(base, eye)
        for t in idx[1:]:
            box = tuple(slice(v + 1) for v in t)
            rev = tuple(slice(v, None, -1) for v in t)
            g[t] = np.linalg.solve(base, np.einsum("sij,sjk->ik", sch.coeffs[box].reshape(-1, n, n),
                                                   g[rev].reshape(-1, n, n)))
        former = 2.0 * g
        former[idx[0]] -= eye
        gap = np.linalg.norm(herglotz_taylor_from_schur(sch).coeffs - former, axis=(-2, -1))
        assert np.max(gap) <= 1e-14 * np.max(np.linalg.norm(former, axis=(-2, -1)))

    def test_herglotz_base_goes_through_the_guard(self, monkeypatch):
        # I - S_0 = diag(1e-11, 1): condition 1e11, above 1/psd_slack
        sch = np.zeros((3, 2, 2), dtype=complex)
        sch[0] = np.diag([1.0 - 1e-11, 0.0])
        table = TaylorCoefficients(1, 2, 2, sch)
        with pytest.raises(NumericalRefusalError,
                           match=r"^I - S\(0\) is numerically singular \(condition 1\.000e\+11\)"):
            herglotz_taylor_from_schur(table)
        # the guard reads the policy it is given
        monkeypatch.setattr(TolerancePolicy, "psd_slack", 1e-12)
        herglotz_taylor_from_schur(table, pol=TolerancePolicy())

    def test_herglotz_base_of_a_pencil_needs_no_estimate(self, rng, monkeypatch):
        f = random_pencil(rng, 2, 2, 3)
        sch = taylor_from_function(DiskFunctionView(f).eval_double_cayley, 2, 2, degree=6)
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m) or cond(m))
        herglotz_taylor_from_schur(sch)
        assert calls == []

    def test_herglotz_inversion_matches_the_direct_table(self, rng):
        # F's table by quadrature of F, as `posreal calculus` builds it, against
        # the Herglotz series of the Schur-side table
        f = random_pencil(rng, 2, 2, 3)
        view = DiskFunctionView(f)
        direct = taylor_from_function(view.eval_F, 2, 2, degree=45)
        inverted = herglotz_taylor_from_schur(taylor_from_function(view.eval_double_cayley, 2, 2,
                                                                   degree=45))
        gap = np.linalg.norm(direct.coeffs - inverted.coeffs, axis=(-2, -1))
        assert np.all(gap <= 1e-12 * TAYLOR_RADIUS ** -np.indices(gap.shape).sum(axis=0))

    def test_herglotz_series_inverts_cayley(self, rng):
        f = random_pencil(rng, 2, 1, 2)
        co = herglotz_coeffs_for(f, degree=40, seed=2)
        w = np.array([0.2 - 0.1j, 0.15 + 0.2j])
        view = DiskFunctionView(f)
        direct = view.eval_F(w)
        summed = sum(co.coeffs[t] * w[0] ** t[0] * w[1] ** t[1]
                     for t in np.ndindex(co.coeffs.shape[:2]))
        assert np.linalg.norm(summed - direct) < 1e-10


class TestHunt:
    def test_pencil_controls_no_violations(self, rng):
        f = random_pencil(rng, 3, 1, 3)
        config = HuntConfig(num_vars=3, trials=10, dim=3, seed=7, degree=25)
        records = list(hunt(config, [("control", f)]))
        assert len(records) == 10
        assert not any(r["violation"] for r in records)

    def test_two_variable_blackbox_sweep(self):
        # the geometric mean is homogeneous positive-real but not given
        # by a pencil here; with two variables no violation can occur
        def geo_mean(pts):
            return np.sqrt(pts[:, 0] * pts[:, 1])[:, None, None]

        config = HuntConfig(num_vars=2, trials=10, dim=3, seed=8, degree=30)
        records = list(hunt(config, [("geometric-mean", geo_mean)]))
        assert not any(r["violation"] for r in records)

    def test_records_equal_a_fresh_table_and_tuple(self, rng, monkeypatch):
        controls = [("a", random_pencil(rng, 3, 1, 2)), ("b", random_pencil(rng, 3, 1, 3))]
        config = HuntConfig(num_vars=3, trials=3, dim=2, seed=5, degree=6)
        tuples = []
        draw = calculus.random_contraction_tuple

        def keep(*args, **kwargs):
            tuples.append(draw(*args, **kwargs))
            return tuples[-1]

        monkeypatch.setattr(calculus, "random_contraction_tuple", keep)
        records = list(hunt(config, controls))
        # the same records as a series with a table of its own per candidate
        tables = {name: taylor_from_function(DiskFunctionView(f).eval_double_cayley, 3, 1, 6)
                  for name, f in controls}
        for rec in records:
            t = tuples[rec["trial"]]
            fresh = CommutingTuple(t.mats, t.commutator_norm, t.kind, t.bound)
            norm, tail, _ = von_neumann_check(tables[rec["candidate"]], fresh)
            assert (rec["norm"], rec["tail"]) == (norm, tail)

    def test_log_roundtrips_through_json(self, rng):
        f = random_pencil(rng, 3, 1, 2)
        config = HuntConfig(num_vars=3, trials=2, dim=2, seed=9, degree=20)
        for record in hunt(config, [("control", f)]):
            again = json.loads(json.dumps(record))
            assert set(again) == {"trial", "candidate", "tuple", "norm", "tail", "violation"}
            assert isinstance(again["norm"], float) and isinstance(again["violation"], bool)


class TestTaylorBlocks:
    """taylor_from_function samples both tori _POINT_BLOCK points at a time."""

    def test_evaluator_never_receives_more_than_one_block(self, rng):
        f = random_pencil(rng, 2, 2, 3)
        view = DiskFunctionView(f)
        seen = []

        def spy(pts):
            seen.append(np.array(pts))
            return view.eval_double_cayley(pts)

        taylor_from_function(spy, 2, 2, degree=45)  # 128^2 + 32^2 points
        assert max(len(p) for p in seen) <= calculus._POINT_BLOCK
        assert len(seen) > 2
        pts = np.concatenate(seen)
        for m, radius, block in ((128, 0.6, pts[:128 ** 2]), (32, 0.9, pts[128 ** 2:])):
            ring = radius * np.exp(2j * np.pi * np.arange(m) / m)
            axes = np.meshgrid(ring, ring, indexing="ij")
            assert np.array_equal(block, np.stack([a.ravel() for a in axes], axis=1))

    def test_small_blocks_match_one_call(self, rng, monkeypatch):
        f = random_pencil(rng, 3, 2, 3)
        view = DiskFunctionView(f)

        def ev(pts):  # S(-w): its sup on the torus lies past the first blocks
            return view.eval_double_cayley(-pts)

        monkeypatch.setattr(calculus, "_POINT_BLOCK", 64 ** 3)
        whole = taylor_from_function(ev, 3, 2, degree=12)  # one call per torus
        monkeypatch.setattr(calculus, "_POINT_BLOCK", 100)  # last block of each torus partial
        blocked = taylor_from_function(ev, 3, 2, degree=12)
        assert blocked.coeffs.shape == whole.coeffs.shape
        diff = np.max(np.abs(blocked.coeffs - whole.coeffs))
        assert diff <= 1e-15
        assert blocked.sup_bound == pytest.approx(whole.sup_bound, rel=1e-15, abs=0)
