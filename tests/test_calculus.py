import itertools
import json

import numpy as np
import pytest

from posreal.calculus import (
    CommutingTuple,
    HuntConfig,
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
from posreal.core import NumericalRefusalError, ValidationError
from posreal.pencil import PsdPencil, RealizedFunction, diagonal_realization, realize
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
        co = TaylorCoefficients(2, 2, 0, {(0, 0): d0}, sup_radius=1.0, sup_bound=0.5)
        t = make_tuple([np.zeros((3, 3)), 0.1 * np.eye(3)], require="contraction")
        val, tail = calc_series(co, t)
        assert np.allclose(val, np.kron(d0, np.eye(3)))
        # the Cauchy estimate cannot see that higher coefficients vanish,
        # but the certified tail stays small at this radius
        assert tail < 0.2

    def test_monomial(self, rng):
        co = TaylorCoefficients(2, 1, 2, {(1, 1): np.eye(1)}, sup_radius=1.0, sup_bound=1.0)
        t = random_contraction_tuple(rng, 2, 3, target_norm=0.3)
        val, _ = calc_series(co, t)
        assert np.allclose(val, np.kron(np.eye(1), t.mats[0] @ t.mats[1]))

    def test_tail_decreases_with_degree(self):
        co_short = TaylorCoefficients(1, 1, 5, {}, sup_radius=0.9, sup_bound=3.0)
        co_long = TaylorCoefficients(1, 1, 25, {}, sup_radius=0.9, sup_bound=3.0)
        assert co_long.tail_bound(0.4) < co_short.tail_bound(0.4) < 1.0

    def test_refuses_radius_at_or_beyond_bound(self):
        co = TaylorCoefficients(1, 1, 5, {}, sup_radius=0.5, sup_bound=1.0)
        t = CommutingTuple((np.diag([0.6]),), 0.0, "contraction", 0.6)
        with pytest.raises(NumericalRefusalError):
            calc_series(co, t)


class TestCalcRealized:
    def test_scalar_point(self, parallel):
        r = make_tuple([np.eye(2), np.eye(2)], require="accretive")
        assert np.allclose(calc_realized(parallel, r), 0.5 * np.eye(2))

    def test_joint_diagonal_pair(self, parallel):
        r = make_tuple([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])], require="accretive")
        assert np.allclose(calc_realized(parallel, r), np.diag([2 / 3, 2 / 3]))

    def test_coordinate_function(self, rng):
        f = diagonal_realization([np.array([[1.0]]), np.array([[0.0]])])
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
                RealizedFunction(f.pencil, compressed=True), v,
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
        f = RealizedFunction(pencil, compressed=True)
        r = make_tuple([2 * np.eye(2), 0.5 * np.eye(2)], require="accretive")
        ok, lo = accretive_positivity_check(f, r)
        assert not ok and lo < -1


class TestVonNeumann:
    def test_product_coordinate_ando_regime(self, rng):
        co = TaylorCoefficients(2, 1, 2, {(1, 1): np.eye(1)}, sup_radius=1.0, sup_bound=1.0)
        for _ in range(10):
            t = random_contraction_tuple(rng, 2, int(rng.integers(2, 6)),
                                         target_norm=float(0.2 + 0.5 * rng.random()))
            norm, tail, violation = von_neumann_check(co, t)
            assert not violation and norm <= 1 + tail + 1e-9

    def test_zero_function(self, rng):
        co = TaylorCoefficients(2, 1, 0, {}, sup_radius=1.0, sup_bound=0.0)
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


class TestTaylorSources:
    def test_colligation_recursion_matches_quadrature(self, rng):
        f = random_pencil(rng, 2, 2, 3)
        view = DiskFunctionView(f)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(2, 30, seed=3)
        syn = build_colligation(ws, dk.theta_table(ws), view.eval_double_cayley(ws))
        by_recursion = taylor_from_colligation(syn.colligation, 10)
        by_quadrature = taylor_from_function(view.eval_double_cayley, 2, 2, degree=10,
                                             grid_size=128)
        for t_idx, m in by_recursion.coeffs.items():
            assert np.linalg.norm(m - by_quadrature.coeff(t_idx)) < 1e-10

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
            rhs = eye * (sum(t) == 0) + sum(sch.coeff(s) @ g[r] for s, r in below(t) if sum(s))
            g[t] = np.linalg.solve(eye - sch.coeff(idx[0]), rhs)
        herglotz = herglotz_taylor_from_schur(sch)
        for t in idx:
            want = g[t] + sum(sch.coeff(s) @ g[r] for s, r in below(t))  # F = (I + S) G
            assert np.linalg.norm(herglotz.coeff(t) - want) <= 1e-12 * (1.0 + np.linalg.norm(want))

    def test_herglotz_series_inverts_cayley(self, rng):
        f = random_pencil(rng, 2, 1, 2)
        co = herglotz_coeffs_for(f, degree=40, seed=2)
        w = np.array([0.2 - 0.1j, 0.15 + 0.2j])
        view = DiskFunctionView(f)
        direct = view.eval_F(w)
        summed = sum(m * w[0] ** t[0] * w[1] ** t[1] for t, m in co.coeffs.items())
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

    def test_log_roundtrips_through_json(self, rng):
        f = random_pencil(rng, 3, 1, 2)
        config = HuntConfig(num_vars=3, trials=2, dim=2, seed=9, degree=20)
        for record in hunt(config, [("control", f)]):
            again = json.loads(json.dumps(record))
            assert set(again) == {"trial", "candidate", "tuple", "norm", "tail", "violation"}
            assert isinstance(again["norm"], float) and isinstance(again["violation"], bool)
