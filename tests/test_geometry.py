import numpy as np
import pytest

from posreal.cayley import DiskFunctionView, DiskKernelEvaluator
from posreal.colligation import AglerColligation, build_colligation
from posreal.core import DEFAULT_POLICY, ShapeError, ValidationError, eigvalsh_or_refuse, hermitian_part
from posreal.geometry import (
    AntiUnitaryInvolution,
    check_real_colligation,
    check_real_pencil,
    dehomogenize,
    four_quadrant_check,
    homogenize,
    in_omega,
    in_omega_oracle,
    in_omega_oracle_batch,
    in_omega_plus,
    in_omega_plus_oracle,
    iota_symmetric_residual,
    is_iota_real_function,
    is_iota_real_operator,
    taylor_realness_residual,
)
from posreal.pencil import d_condition_bound, realize
from posreal.sampling import disk_grid, halfplane_grid, random_pencil


class TestOmegaMembership:
    def test_cube_roots_of_unity_rejected(self):
        # equally spread arguments admit no common half-plane direction
        z = np.array([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
        assert not in_omega(z)
        assert not in_omega_oracle(z, 10_000)

    def test_rotated_diagonal_point(self):
        assert in_omega([1j, 1j])

    def test_antipodal_boundary(self):
        assert not in_omega([1.0, -1.0])

    def test_zero_coordinate(self):
        assert not in_omega([0.0, 1.0])
        assert not in_omega_oracle([0.0, 1.0], 10_000)

    def test_right_polyhalfplane_inside(self, rng):
        z = rng.random(4) + 1j * rng.standard_normal(4) * 0.2
        assert in_omega(z) and in_omega_oracle(z, 10_000)

    def test_oracle_agreement_margin_filtered(self, rng):
        agree = total = 0
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            beta = np.sort(np.angle(z))
            gaps = np.diff(beta, append=beta[0] + 2 * np.pi)
            if abs(np.max(gaps) - np.pi) < 1e-3:
                continue
            total += 1
            agree += in_omega(z) == in_omega_oracle(z, 10_000)
        assert total > 1500 and agree == total

    def test_batch_oracle_matches_literal(self, rng):
        pts = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
        batch = in_omega_oracle_batch(pts, 10_000)
        literal = np.array([in_omega_oracle(z, 10_000) for z in pts])
        assert np.array_equal(batch, literal)

    def test_oracles_on_points_with_no_coordinates(self):
        # no coordinate, no half-plane to share: outside, as for in_omega
        assert not in_omega_oracle([], 10_000)
        none = np.zeros((2, 0))
        assert in_omega_oracle_batch(none, 10_000).tolist() == in_omega(none).tolist() == [False, False]

    def test_cone_and_circular_invariance(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            if not in_omega(z):
                continue
            t = 0.1 + 3 * rng.random()
            lam = np.exp(2j * np.pi * rng.random())
            assert in_omega(t * z) and in_omega(lam * z)


class TestBatchedPredicates:
    """``in_omega`` and its slice ``in_omega_plus`` take one point or a batch."""

    @staticmethod
    def _points(rng, num_vars, count=600):
        # test 08's distribution, with some zero coordinates
        pts = rng.standard_normal((count, num_vars)) + 1j * rng.standard_normal((count, num_vars))
        pts[::37, -1] = 0
        return pts

    @pytest.mark.parametrize("num_vars", range(1, 6))
    def test_batch_equals_single_point_calls(self, rng, num_vars):
        pts = self._points(rng, num_vars)
        for predicate in (in_omega, in_omega_plus):
            batch = predicate(pts)
            assert batch.shape == (len(pts),)
            assert np.array_equal(batch, [predicate(z) for z in pts])

    def test_plus_is_the_slice_of_omega(self, rng):
        for num_vars in range(0, 5):
            pts = self._points(rng, num_vars) if num_vars else np.zeros((3, 0))
            ones = np.ones((len(pts), 1))
            assert np.array_equal(in_omega_plus(pts), in_omega(np.concatenate([pts, ones], axis=1)))

    def test_nan_is_outside_as_in_the_oracle(self):
        for z in ([np.nan], [1.0, np.nan], [np.nan + 1j, 1j]):
            assert not in_omega(z) and not in_omega_oracle(z, 10_000)
            assert not in_omega_plus(z)

    def test_two_dimensional_input_is_a_batch(self):
        assert in_omega(np.array([[1, 1], [-1, -1]])).tolist() == [True, True]
        assert in_omega_plus(np.array([[1, 1], [-1, -1]])).tolist() == [True, False]

    def test_conventions_for_no_and_zero_coordinates(self):
        assert not in_omega([]) and in_omega_plus([])
        assert in_omega(np.zeros((2, 0))).tolist() == [False, False]
        assert in_omega_plus(np.zeros((2, 0))).tolist() == [True, True]
        assert not in_omega([0.0]) and not in_omega_plus([0.0])
        assert not in_omega_plus([1.0, 0.0])

    def test_predicate_and_d_certificate_read_one_arc(self, rng):
        # with sum_k d_k positive definite and Hermitian PSD d_k, the d(z)
        # bound is finite exactly where the arc test admits the point
        for num_vars in range(1, 6):
            f = random_pencil(rng, num_vars, 2, 3)
            n = f.dim_u
            assert np.linalg.eigvalsh(sum(a[n:, n:] for a in f.pencil.coeffs))[0] > 0
            pts = self._points(rng, num_vars)
            assert np.array_equal(np.isfinite(d_condition_bound(f, pts)), in_omega(pts))


class TestOmegaPlus:
    def test_polyhalfplane_inside(self):
        assert in_omega_plus([1.0, 2.0 + 1j])

    def test_negative_real_outside(self):
        assert not in_omega_plus([-1.0])
        assert not in_omega_plus_oracle([-1.0], 10_000)

    def test_near_imaginary_inside(self):
        assert in_omega_plus([0.99j])
        assert in_omega_plus_oracle([0.99j], 10_000)

    def test_empty_point_is_inside(self):
        assert in_omega_plus([])

    def test_oracle_agreement(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 5))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a, b = in_omega_plus(z), in_omega_plus_oracle(z, 100_000)
            if a != b:
                # only boundary-band points may disagree with the sampled oracle
                beta = np.sort(np.angle(z))
                gaps = np.diff(beta, append=beta[0] + 2 * np.pi)
                assert min(abs(np.max(gaps) - np.pi), *np.abs(np.abs(beta) - np.pi / 2)) < 1e-3


class TestFourQuadrant:
    def test_scalar_coordinate(self, rng):
        # f(z) = z: at z = -1 the real part is -2 <= 0; at z = i the
        # rotated condition gives i(conj(i) - i) = 2 >= 0
        f = realize([np.array([[1.0]])], 1)
        assert four_quadrant_check(lambda p: f(p), 1, rng)

    def test_parallel_sweep(self, parallel, rng):
        assert four_quadrant_check(lambda p: parallel(p), 2, rng, samples=50)

    def test_non_homogeneous_rejected(self, rng):
        bad = lambda pts: (pts[:, 0] ** 2 + 1)[:, None, None]
        assert not four_quadrant_check(bad, 1, rng)

    @staticmethod
    def _per_matrix_loop(evaluator, num_vars, rng, samples, pol=DEFAULT_POLICY):
        """The check with one eigvalsh per sample: (verdict, min eigenvalues per quadrant)."""
        base = rng.standard_normal((samples, num_vars)) ** 2 + 0.05
        base = base + 1j * rng.standard_normal((samples, num_vars))
        seen = []
        for rot, sign, part in ((1.0, 1.0, "herm"), (-1.0, -1.0, "herm"),
                                (1j, 1.0, "skew"), (-1j, -1.0, "skew")):
            vals = np.asarray(evaluator(rot * base), dtype=complex)
            if part == "herm":
                test = vals + vals.conj().transpose(0, 2, 1)
            else:
                test = 1j * (vals.conj().transpose(0, 2, 1) - vals)
            slack = pol.psd_slack * (1.0 + np.linalg.norm(vals, axis=(1, 2)))
            seen.append(np.array([eigvalsh_or_refuse(hermitian_part(v))[0] for v in sign * test]))
            if np.any(seen[-1] < -slack):
                return False, seen
        return True, seen

    @pytest.mark.parametrize("case", ["pencil", "rank-deficient", "non-homogeneous"])
    def test_stacked_eigenvalues_equal_per_matrix_loop(self, monkeypatch, case):
        import posreal.geometry as geometry

        if case == "non-homogeneous":
            evaluator, num_vars = (lambda pts: (pts[:, :1] ** 2 + 1)[:, :, None] * np.eye(2)), 2
        else:
            f = random_pencil(np.random.default_rng(11), 3, 2, 3,
                              rank_deficient=case == "rank-deficient")
            evaluator, num_vars = (lambda pts: f(pts)), 3
        stacked = []

        def spy(m):
            out = eigvalsh_or_refuse(m)
            stacked.append(out[:, 0])
            return out

        monkeypatch.setattr(geometry, "eigvalsh_or_refuse", spy)
        verdict = four_quadrant_check(evaluator, num_vars, np.random.default_rng(5), samples=40)
        expected, loop = self._per_matrix_loop(evaluator, num_vars, np.random.default_rng(5), 40)
        assert verdict == expected == (case != "non-homogeneous")
        assert len(stacked) == len(loop)
        for a, b in zip(stacked, loop):
            assert a.tobytes() == b.tobytes()


class TestDehomogenization:
    def test_parallel(self, parallel):
        g = dehomogenize(parallel)
        assert np.allclose(g(np.array([1.0])), [[0.5]])

    def test_roundtrip(self, parallel, rng):
        h = homogenize(dehomogenize(parallel), 2)
        pts = halfplane_grid(2, 10, seed=3)
        vals = h(pts)
        expect = parallel(pts)
        assert np.max(np.abs(vals - expect)) < 1e-10

    def test_last_coordinate_function(self):
        f = realize([np.array([[0.0]]), np.array([[1.0]])], 1)
        g = dehomogenize(f)
        assert np.allclose(g(np.array([2.0 + 1j])), [[1.0]])
        h = homogenize(g, 2)
        z = np.array([0.3, 1.5 - 0.5j])
        assert np.allclose(h(z), [[z[1]]])

    def test_conjugate_symmetry_of_g(self, rng):
        f = random_pencil(rng, 3, 2, 3)
        g = dehomogenize(f)
        pts = halfplane_grid(2, 8, seed=5)
        for zp in pts:
            assert np.linalg.norm(g(zp.conj()) - g(zp).conj().T) < 1e-9

    def test_domain_errors(self, parallel):
        h = homogenize(dehomogenize(parallel), 2)
        with pytest.raises(ValidationError):
            h(np.array([1.0, 0.0]))
        with pytest.raises(ValidationError):
            h(np.array([-1.0, 1.0]))  # quotient -1 outside the half domain

    def test_source_without_num_vars_is_refused(self):
        # a bare callable does not say how many variables it takes
        with pytest.raises(ValidationError, match="needs a source with num_vars"):
            dehomogenize(lambda z, pol=None: z)
        with pytest.raises(TypeError):
            dehomogenize(lambda z, pol=None: z, 2)

    def test_refuses_a_batch_with_one_quotient_outside(self, parallel):
        h = homogenize(dehomogenize(parallel), 2)
        pts = np.array([[1.0, 1.0], [2.0 + 1j, 1.0], [1.0, -1.0]])
        with pytest.raises(ValidationError, match="^quotient point outside the de-homogenized domain$"):
            h(pts)
        assert h(pts[:2]).shape == (2, 1, 1)


class TestInvolutions:
    def test_conjugation_validates(self):
        AntiUnitaryInvolution.conjugation(3).validate()

    def test_diagonal_unitary_is_valid(self):
        # J unitary symmetric satisfies J conj(J) = I
        AntiUnitaryInvolution(np.diag([1.0, 1j])).validate()

    def test_quaternionic_structure_rejected(self):
        # the rotation J squares the antilinear map to -I, not +I
        with pytest.raises(ValidationError):
            AntiUnitaryInvolution(np.array([[0.0, -1.0], [1.0, 0.0]])).validate()

    def test_real_entries_iff_iota_real(self, rng):
        iota = AntiUnitaryInvolution.conjugation(3)
        a = rng.standard_normal((3, 3))
        assert is_iota_real_operator(a, iota)
        assert not is_iota_real_operator(a + 1j * np.eye(3), iota)

    def test_complex_symmetric_iff_iota_symmetric(self):
        iota = AntiUnitaryInvolution.conjugation(2)
        sym = np.array([[1.0, 2j], [2j, 0.5]])
        assert iota_symmetric_residual(sym, iota) < 1e-15
        # ||A - A^T|| = 1 for the nilpotent Jordan block
        assert iota_symmetric_residual(np.array([[0, 1], [0, 0.0]]), iota) == pytest.approx(1.0)

    def test_two_of_three_imply_third(self, rng):
        # Hermitian and conjugation-real forces conjugation-symmetric
        iota = AntiUnitaryInvolution.conjugation(4)
        a = rng.standard_normal((4, 4))
        a = a + a.T
        assert is_iota_real_operator(a, iota)
        assert np.allclose(a, a.conj().T)
        assert iota_symmetric_residual(a, iota) < 1e-12


class TestRealFunctions:
    def test_real_pencil_function(self, parallel):
        iota = AntiUnitaryInvolution.conjugation(1)
        pts = halfplane_grid(2, 8, seed=7)
        assert is_iota_real_function(lambda p: parallel(p), iota, pts)

    def test_complex_coefficient_counterexample(self):
        e2 = np.array([[1.0, 1j], [-1j, 1.0]])
        f = realize([np.eye(2), e2], 2)
        iota = AntiUnitaryInvolution.conjugation(2)
        pts = halfplane_grid(2, 8, seed=9)
        assert not is_iota_real_function(lambda p: f(p), iota, pts)

    def test_scalar_rational_always_real(self, parallel):
        iota = AntiUnitaryInvolution.conjugation(1)
        pts = halfplane_grid(2, 6, seed=11)
        assert is_iota_real_function(lambda p: parallel(p), iota, pts)

    def test_function_of_another_dimension_is_refused(self, parallel):
        pts = halfplane_grid(2, 6, seed=11)
        with pytest.raises(ShapeError, match="dimensions differ"):
            is_iota_real_function(lambda p: parallel(p), AntiUnitaryInvolution.conjugation(2), pts)

    def test_check_real_pencil(self, parallel):
        iu = AntiUnitaryInvolution.conjugation(1)
        ih = AntiUnitaryInvolution.conjugation(1)
        assert check_real_pencil(parallel, iu, ih)

    def test_real_pencil_covariance_under_unitary(self, rng):
        # conjugating a real pencil by a unitary V stays iota-real for
        # the transported involution J' = V* conj(V)
        f = random_pencil(rng, 2, 2, 2, real=True)
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        coeffs = [q.conj().T @ a @ q for a in f.pencil.coeffs]
        jprime = q.conj().T @ q.conj()
        big = AntiUnitaryInvolution(jprime)
        big.validate()
        assert all(is_iota_real_operator(a, big) for a in coeffs)

    def test_taylor_coefficients_real_symmetric(self, rng):
        f = random_pencil(rng, 2, 2, 3, real=True)
        assert taylor_realness_residual(f) < 1e-6

    def test_complex_pencil_taylor_not_real(self):
        e2 = np.array([[1.0, 1j], [-1j, 1.0]])
        f = realize([np.eye(2), e2], 2)
        assert taylor_realness_residual(f) > 1e-3


class TestRealColligations:
    def test_flip_all_identity(self):
        flip = AglerColligation((1,), 1, np.array([[0.0, 1.0], [1.0, 0.0]]), selfadjoint=True)
        ix = AntiUnitaryInvolution.conjugation(1)
        iu = AntiUnitaryInvolution.conjugation(1)
        assert check_real_colligation(flip, ix, iu)

    def test_synthesized_from_real_pencil(self, parallel):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 10, seed=13)  # conjugate-closed by construction
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(parallel).eval_double_cayley(ws))
        c = syn.colligation
        ix = AntiUnitaryInvolution.conjugation(c.dim_state)
        iu = AntiUnitaryInvolution.conjugation(c.n)
        assert check_real_colligation(c, ix, iu)

    def test_rotated_operator_rejected(self):
        flip = AglerColligation((1,), 1, 1j * np.array([[0.0, 1.0], [1.0, 0.0]]))
        ix = AntiUnitaryInvolution.conjugation(1)
        iu = AntiUnitaryInvolution.conjugation(1)
        assert not check_real_colligation(flip, ix, iu)

    def test_splitting_compatibility_enforced(self):
        c = AglerColligation((1, 1), 1, np.eye(3), selfadjoint=True)
        ix = AntiUnitaryInvolution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        iu = AntiUnitaryInvolution.conjugation(1)
        with pytest.raises(ShapeError):
            check_real_colligation(c, ix, iu)
