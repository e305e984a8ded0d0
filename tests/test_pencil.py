import numpy as np
import pytest

from posreal.core import NumericalRefusalError, ShapeError, ValidationError, hermitian_part, is_psd
from posreal.pencil import (
    MAX_COEFF_ENTRY,
    PsdPencil,
    RealizedFunction,
    compress,
    compress_realization,
    eval_long_resolvent,
    eval_pencil,
    eval_schur,
    realize,
    schur_solve,
    sum_realization,
)
from posreal.sampling import halfplane_grid, random_pencil


class TestConstruction:
    def test_rejects_indefinite_coefficient(self):
        with pytest.raises(ValidationError):
            PsdPencil.from_coeffs([np.array([[1, 2], [2, 1]])], 1)

    def test_unchecked_variant_allows_indefinite(self):
        pencil = PsdPencil.from_coeffs([np.array([[1, 2], [2, 1]])], 1, validate=False)
        assert np.linalg.eigvalsh(pencil.coeffs[0])[0] == pytest.approx(-1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            PsdPencil.from_coeffs([np.eye(2), np.eye(3)], 1)

    @pytest.mark.parametrize("validate", [True, False])
    def test_rejects_entries_above_the_cap(self, validate):
        big = np.array([[2.0, 1.0], [1.0, 1.0]]) * MAX_COEFF_ENTRY
        with pytest.raises(ValidationError, match="above 1e\\+100"):
            PsdPencil.from_coeffs([np.eye(2), big], 1, validate=validate)
        with pytest.raises(ValidationError, match="above"):
            PsdPencil.from_coeffs([np.array([[1e308 + 1e308j]])], 1, validate=validate)
        assert PsdPencil.from_coeffs([np.eye(2), big / 2.0], 1, validate=validate).dim == 2

    def test_p0_tuple_realizes_the_linear_sum(self, rng):
        # no H block: f(z) = sum_k z_k E_k, already compressed
        vs = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        es = vs.conj().transpose(0, 2, 1) @ vs
        f = realize(es, 2)
        assert f.dim_h == 0 and f.compressed
        zs = halfplane_grid(3, 6, seed=1)
        assert np.allclose(f(zs), np.einsum("bk,kij->bij", zs, es), rtol=1e-13, atol=1e-13)

    def test_blocks_are_adjoint_pairs(self, parallel):
        a, b, c, d = parallel.pencil.coeff_blocks(0)
        assert np.allclose(c, b.conj().T)


class TestEvalPencil:
    def test_sum_of_coefficients(self):
        pencil = PsdPencil.from_coeffs(
            [np.array([[1, 1], [1, 1]]), np.array([[0, 0], [0, 1]])], 1)
        assert np.allclose(eval_pencil(pencil, [1, 1]), [[1, 1], [1, 2]])

    def test_zero_point(self, parallel):
        assert np.allclose(eval_pencil(parallel.pencil, [0, 0]), np.zeros((2, 2)))

    def test_single_variable_scalar(self):
        pencil = PsdPencil.from_coeffs([np.array([[2.0]])], 1)
        assert np.allclose(eval_pencil(pencil, [3.0]), [[6.0]])


class TestCompress:
    def test_zero_d_blocks_remove_h(self):
        # d_k = 0 forces b_k = 0 by PSD structure; H collapses entirely
        a1, a2 = 2.0, 3.0
        pencil = PsdPencil.from_coeffs(
            [np.diag([a1, 0.0]), np.diag([a2, 0.0])], 1)
        out = compress(pencil)
        assert out.dim_h == 0
        f = RealizedFunction(out, compressed=True)
        z = np.array([1.7 + 0.3j, 0.4 - 0.1j])
        assert np.allclose(f(z), (a1 * z[0] + a2 * z[1]) * np.eye(1))

    def test_noop_when_already_compressed(self, parallel):
        out = compress(parallel.pencil)
        assert out is parallel.pencil

    def test_padding_removed(self, parallel, rng):
        # pad H with an all-zero row/column; evaluations must be unchanged
        padded = []
        for a in parallel.pencil.coeffs:
            m = np.zeros((3, 3), dtype=complex)
            m[:2, :2] = a
            padded.append(m)
        fp = compress_realization(RealizedFunction(PsdPencil.from_coeffs(padded, 1)))
        assert fp.dim_h == parallel.dim_h
        pts = halfplane_grid(2, 5, seed=11)
        assert np.max(np.abs(fp(pts) - parallel(pts))) < 1e-12


class TestEvalSchur:
    def test_parallel_hand_value(self, parallel):
        assert np.allclose(eval_schur(parallel, [1, 1]), [[0.5]])

    def test_parallel_homogeneous_point(self, parallel):
        assert np.allclose(eval_schur(parallel, [2, 2]), [[1.0]])

    def test_trivial_p0(self, rng):
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        e = v.conj().T @ v
        f = realize([e], 2)
        z = 0.3 + 1.2j
        assert np.allclose(eval_schur(f, [z]), z * e)

    def test_refuses_uncompressed(self, parallel):
        raw = RealizedFunction(parallel.pencil, compressed=False)
        with pytest.raises(ValidationError):
            eval_schur(raw, [1, 1])

    def test_refuses_singular_d(self, parallel):
        # d(z) = z1 + z2 vanishes on the anti-diagonal
        with pytest.raises(NumericalRefusalError):
            eval_schur(parallel, [1, -1])

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 2, 0)])
    def test_schur_solve_parts(self, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        zs = halfplane_grid(f.num_vars, 7, seed=2)
        vals, sol = schur_solve(f, zs)
        assert np.array_equal(vals, eval_schur(f, zs))
        assert sol.shape == (len(zs), f.dim_h, f.dim_u)
        n = f.dim_u
        az = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))
        assert np.allclose(az[:, n:, n:] @ sol, az[:, n:, :n])


class TestLongResolvent:
    def test_agrees_with_schur(self, parallel):
        assert np.allclose(eval_long_resolvent(parallel, [1, 1]), eval_schur(parallel, [1, 1]))

    def test_p0_scalar(self):
        f = realize([np.array([[2.0]])], 1)
        assert np.allclose(eval_long_resolvent(f, [1.0]), [[2.0]])

    def test_identity_pencil(self):
        f = realize([np.eye(2)], 1)
        assert np.allclose(eval_schur(f, [1.0]), [[1.0]])
        assert np.allclose(eval_long_resolvent(f, [1.0]), [[1.0]])

    def test_agreement_on_random_pencils(self, rng):
        for _ in range(10):
            f = random_pencil(rng, 2, 2, 3)
            pts = halfplane_grid(2, 6, seed=int(rng.integers(1 << 30)))
            for z in pts:
                try:
                    lr = eval_long_resolvent(f, z)
                except NumericalRefusalError:
                    continue  # f(z) itself singular; Schur form still valid
                assert np.allclose(lr, eval_schur(f, z), atol=1e-8)


class TestComposition:
    def test_sum_of_coordinates(self):
        f1 = realize([np.array([[1.0]]), np.array([[0.0]])], 1)
        f2 = realize([np.array([[0.0]]), np.array([[1.0]])], 1)
        s = sum_realization(f1, f2)
        z = np.array([0.7 + 0.2j, 1.1 - 0.4j])
        assert np.allclose(eval_schur(s, z), [[z[0] + z[1]]])

    def test_doubling(self, parallel):
        s = sum_realization(parallel, parallel)
        assert np.allclose(eval_schur(s, [1, 1]), [[1.0]])

    def test_mixed_sum(self, parallel):
        f2 = realize([np.array([[1.0]]), np.array([[0.0]])], 1)
        s = sum_realization(parallel, f2)
        assert np.allclose(eval_schur(s, [1, 1]), [[1.5]])

    def test_sum_preserves_psd(self, parallel, rng):
        f2 = random_pencil(rng, 2, 1, 2)
        s = sum_realization(parallel, f2)
        assert all(is_psd(a).ok for a in s.pencil.coeffs)

    def test_shape_mismatch(self, parallel):
        f2 = realize([np.eye(2), np.eye(2)], 2)
        with pytest.raises(ShapeError):
            sum_realization(parallel, f2)

    def test_diagonal_examples(self, rng):
        f = realize([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
        z = np.array([2.0 + 1j, 3.0])
        assert np.allclose(eval_schur(f, z), np.diag(z))
        es = [(lambda v: v.conj().T @ v)(rng.standard_normal((3, 3))) for _ in range(3)]
        f3 = realize(es, 3)
        assert np.allclose(eval_schur(f3, [1, 1, 1]), sum(es))
        with pytest.raises(ValidationError):
            realize([np.array([[-1.0]])], 1)


class TestFunctionLaws:
    """Sampled invariants of realized functions: homogeneity of degree one,
    PSD real part on the right polyhalfplane, conjugate symmetry, and the
    agreement of the long resolvent with the Schur form."""

    def _random_functions(self, rng, count=12):
        for _ in range(count):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(0, 9))
            nv = int(rng.integers(1, 5))
            yield random_pencil(rng, nv, n, p, rank_deficient=True)

    def test_homogeneity(self, rng):
        for f in self._random_functions(rng):
            pts = halfplane_grid(f.num_vars, 8, seed=int(rng.integers(1 << 30)))
            lam = (0.5 + rng.random(len(pts))) * np.exp(2j * np.pi * rng.random(len(pts)))
            vals = f(pts)
            scaled = f(lam[:, None] * pts)
            err = np.linalg.norm(scaled - lam[:, None, None] * vals, axis=(1, 2))
            assert np.max(err / (1 + np.linalg.norm(vals, axis=(1, 2)))) < 1e-9

    def test_positivity(self, rng):
        for f in self._random_functions(rng):
            pts = halfplane_grid(f.num_vars, 8, seed=int(rng.integers(1 << 30)))
            for v in f(pts):
                lo = np.linalg.eigvalsh(hermitian_part(v))[0]
                assert lo > -1e-10 * (1 + np.linalg.norm(v, 2))

    def test_conjugate_symmetry(self, rng):
        for f in self._random_functions(rng):
            pts = halfplane_grid(f.num_vars, 8, seed=int(rng.integers(1 << 30)))
            vals = f(pts)
            conj_vals = f(pts.conj())
            err = np.linalg.norm(conj_vals - vals.conj().transpose(0, 2, 1), axis=(1, 2))
            assert np.max(err / (1 + np.linalg.norm(vals, axis=(1, 2)))) < 1e-9

    def test_long_resolvent_agrees_with_schur(self, rng):
        for f in self._random_functions(rng, count=6):
            pts = halfplane_grid(f.num_vars, 6, seed=int(rng.integers(1 << 30)))
            for z in pts:
                try:
                    lr = eval_long_resolvent(f, z)
                except NumericalRefusalError:
                    continue  # f(z) itself singular; Schur form still valid
                fz = eval_schur(f, z)
                assert np.linalg.norm(lr - fz) < 1e-9 * (1 + np.linalg.norm(fz))
