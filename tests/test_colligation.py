import numpy as np
import pytest

from posreal.cayley import DiskKernelEvaluator, disk_to_halfplane, inv_double_cayley
from posreal.colligation import (
    AglerColligation,
    agler_identity_residual,
    build_colligation,
    spectrum_condition,
    transfer_eval,
)
from posreal.core import DEFAULT_POLICY, NumericalRefusalError, ValidationError
from posreal.kernels import factor_kernel_samples
from posreal.pencil import eval_schur
from posreal.sampling import disk_grid, random_pencil


@pytest.fixture
def flip():
    """U = [[0, 1], [1, 0]] with one state dimension: transfer w -> w."""
    return AglerColligation((1,), 1, np.array([[0.0, 1.0], [1.0, 0.0]]), selfadjoint=True)


class TestTransfer:
    def test_flip_is_coordinate(self, flip):
        for w in (0.2, -0.7, 0.3 + 0.4j):
            assert np.allclose(transfer_eval(flip, [w]), w)

    def test_center_gives_d_block(self, flip):
        assert np.allclose(transfer_eval(flip, [0.0]), [[0.0]])

    def test_sign_colligation_constant(self):
        c = AglerColligation((1,), 1, np.diag([1.0, -1.0]), selfadjoint=True)
        for w in (0.0, 0.5, -0.3 + 0.2j):
            assert np.allclose(transfer_eval(c, [w]), [[-1.0]])

    def test_contractive(self, flip, rng):
        ws = disk_grid(1, 10, seed=1)
        vals = transfer_eval(flip, ws)
        assert np.all(np.abs(vals) <= 1 + 1e-12)

    def test_validation(self, flip):
        flip.validate()
        bad = AglerColligation((1,), 1, np.array([[0.0, 1.1], [1.0, 0.0]]), selfadjoint=True)
        with pytest.raises(ValidationError):
            bad.validate()


class TestIdentities:
    def test_flip_exact(self, flip):
        ws = disk_grid(1, 8, seed=2)
        rp, rm = agler_identity_residual(flip, ws)
        assert max(rp, rm) < 1e-12

    def test_synthesized_exact(self, parallel):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 10, seed=3)
        syn = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws))
        rp, rm = agler_identity_residual(syn.colligation, ws[:5])
        assert max(rp, rm) < 1e-9

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2), (2, 2, 0)])
    def test_transfer_from_the_identity_solve_equals_transfer_eval(self, monkeypatch, shape):
        import posreal.colligation as colligation

        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        ws = disk_grid(f.num_vars, 11, seed=2)
        dk = DiskKernelEvaluator(f)
        c = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws)).colligation
        expected = transfer_eval(c, ws)
        seen = []
        real = colligation.transfer_identity_residuals

        def spy(weights, left, right, values, scale=None):
            seen.append(values)
            return real(weights, left, right, values, scale)

        def second_solve(*args, **kwargs):
            raise AssertionError("S(w) solved apart from the identity's own solve")

        monkeypatch.setattr(colligation, "transfer_identity_residuals", spy)
        monkeypatch.setattr(colligation, "transfer_eval", second_solve)
        agler_identity_residual(c, ws)
        assert np.array_equal(seen[0], expected)

    def test_singular_state_system_refused_before_solving(self):
        # selfadjoint but not unitary: ||A|| = 2 makes I - A P(w) singular at w = 1/2
        c = AglerColligation((1,), 1, np.diag([2.0, 1.0]), selfadjoint=True)
        with pytest.raises(NumericalRefusalError, match=r"I - A P\(w\) is numerically singular"):
            agler_identity_residual(c, np.array([[0.1], [0.5]]))

    def test_detects_broken_unitarity(self, flip):
        u = flip.U.copy()
        u[0, 1] += 1e-2
        broken = AglerColligation((1,), 1, u, selfadjoint=True)
        ws = disk_grid(1, 8, seed=4)
        rp, rm = agler_identity_residual(broken, ws)
        assert max(rp, rm) >= 1e-3


class TestSpectrumCondition:
    def test_zero_d(self, flip):
        ok, margin = spectrum_condition(flip)
        assert ok and margin == pytest.approx(1.0)

    def test_parallel_constant_term(self):
        c = AglerColligation((), 1, np.array([[-1 / 3]]), selfadjoint=True)
        ok, margin = spectrum_condition(c)
        assert ok and margin == pytest.approx(4 / 3)

    def test_one_in_spectrum(self):
        c = AglerColligation((), 1, np.array([[1.0]]), selfadjoint=True)
        ok, margin = spectrum_condition(c)
        assert not ok and margin == pytest.approx(0.0)


class TestSynthesis:
    def test_flip_from_samples(self):
        grid = np.array([[0.0], [0.5], [-0.5]], dtype=complex)
        thetas = [np.ones((3, 1, 1), dtype=complex)]
        svals = grid[:, 0][:, None, None].copy()
        syn = build_colligation(grid, thetas, svals)
        c = syn.colligation
        assert c.unitarity_residual() < 1e-10
        assert c.selfadjointness_residual() < 1e-10
        probe = np.array([[0.3 + 0.2j], [-0.8j]])
        assert np.max(np.abs(transfer_eval(c, probe) - probe[:, 0][:, None, None])) < 1e-10

    def test_constant_selfadjoint_contraction_at_center(self):
        # a strictly contractive constant is compatible with the two
        # transfer identities only at w = 0, so the defect-factor data
        # synthesizes a selfadjoint dilation interpolating D0 there
        d0 = np.diag([0.5, -0.25])
        grid = np.array([[0.0]], dtype=complex)
        defect = factor_kernel_samples(np.eye(2) - d0 @ d0, 2)[0]
        thetas = [defect[None]]
        svals = d0[None].astype(complex)
        syn = build_colligation(grid, thetas, svals)
        syn.colligation.validate()
        assert np.max(np.abs(transfer_eval(syn.colligation, grid) - d0)) < 1e-10

    def test_constant_symmetry_everywhere(self):
        # D0 with D0^2 = I has zero defect and a genuinely constant transfer
        d0 = np.diag([1.0, -1.0])
        grid = np.array([[0.0], [0.4], [-0.4]], dtype=complex)
        thetas = [np.zeros((3, 0, 2), dtype=complex)]
        svals = np.broadcast_to(d0, (3, 2, 2)).astype(complex)
        syn = build_colligation(grid, thetas, svals)
        probe = np.array([[0.6j], [-0.2 + 0.3j]])
        assert np.max(np.abs(transfer_eval(syn.colligation, probe) - d0)) < 1e-12

    def test_parallel_roundtrip_with_holdout(self, parallel):
        dk = DiskKernelEvaluator(parallel)
        base = disk_grid(2, 6, seed=5)
        syn = build_colligation(base, dk.theta_table(base), dk.view.eval_double_cayley(base))
        c = syn.colligation
        assert c.unitarity_residual() < 1e-10 and c.selfadjointness_residual() < 1e-10
        holdout = disk_grid(2, 5, seed=55, include_zero=False)
        expected = dk.view.eval_double_cayley(holdout)
        assert np.max(np.abs(transfer_eval(c, holdout) - expected)) < 1e-8

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 0)])
    def test_hands_back_grid_values_and_residuals(self, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        ws = disk_grid(f.num_vars, 9, seed=1)
        dk = DiskKernelEvaluator(f)
        syn = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws))
        c = syn.colligation
        assert np.array_equal(syn.values, transfer_eval(c, ws))
        assert syn.unitarity_residual == c.unitarity_residual()
        assert syn.selfadjointness_residual == c.selfadjointness_residual()
        assert (syn.unitarity_residual, syn.selfadjointness_residual) == c.validate()

    def test_rejects_inconsistent_samples(self):
        grid = np.array([[0.0], [0.5], [-0.5]], dtype=complex)
        thetas = [np.ones((3, 1, 1), dtype=complex)]
        svals = np.array([[[0.0]], [[0.9]], [[-0.1]]], dtype=complex)  # not the coordinate
        with pytest.raises(ValidationError):
            build_colligation(grid, thetas, svals)

    def test_transfer_conjugate_symmetry(self, parallel, rng):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 8, seed=6)
        syn = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws))
        probe = disk_grid(2, 6, seed=66)
        for w in probe:
            a = transfer_eval(syn.colligation, w.conj())
            b = transfer_eval(syn.colligation, w).conj().T
            assert np.linalg.norm(a - b) < 1e-9

    def test_inverse_cayley_composition(self, rng):
        f = random_pencil(rng, 2, 2, 3, rank_deficient=True)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(2, 12, seed=7)
        syn = build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws))
        rec = inv_double_cayley(lambda pts: transfer_eval(syn.colligation, pts), ws)
        target = eval_schur(f, disk_to_halfplane(ws))
        err = np.linalg.norm(rec - target, axis=(1, 2))
        assert np.max(err / (1 + np.linalg.norm(target, axis=(1, 2)))) < 1e-9


def _dense_synthesis(grid, tables, svals, pol=DEFAULT_POLICY):
    """Dense reference route: SVD basis of the explicit generator matrix,
    least-squares swap, eigen-sign projection.  Returns (U, rank)."""
    n = svals.shape[1]
    h = np.concatenate(tables, axis=1)
    wh = np.repeat(grid, [t.shape[1] for t in tables], axis=1)[:, :, None] * h
    d_cols = np.concatenate([wh, np.broadcast_to(np.eye(n), svals.shape)], axis=1)
    r_cols = np.concatenate([h, svals], axis=1)
    dmat = np.hstack(list(d_cols) + list(r_cols))
    rmat = np.hstack(list(r_cols) + list(d_cols))
    u, s, _ = np.linalg.svd(dmat, full_matrices=False)
    rank = int(np.sum(s > pol.psd_slack * s[0]))
    q = u[:, :rank]
    x, y = q.conj().T @ dmat, q.conj().T @ rmat
    swap = np.linalg.lstsq(x.conj().T, y.conj().T, rcond=np.finfo(float).eps)[0].conj().T
    evals, evecs = np.linalg.eigh((swap + swap.conj().T) / 2)
    swap = (evecs * np.sign(evals)) @ evecs.conj().T
    return np.eye(len(u)) + q @ (swap - np.eye(rank)) @ q.conj().T, rank


class TestDenseReference:
    """build_colligation works from a QR and a small SVD; the dense route must agree."""

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", [
        ((2, 1, 2), False, 5, False), ((3, 2, 3), False, 25, False),
        ((3, 1, 4), True, 5, False), ((3, 2, 3), True, 25, False),
        ((2, 2, 0), False, 5, False), ((3, 1, 0), False, 25, False),
        ((2, 1, 2), False, 25, True), ((2, 2, 0), False, 25, True),
    ])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_dense_route(self, shape, rank_deficient, grid_size, redundant, perturbed):
        rng = np.random.default_rng(sum(shape) + grid_size)
        f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(shape[0], grid_size, seed=grid_size)
        tables, svals = dk.theta_table(ws), dk.view.eval_double_cayley(ws)
        if redundant:
            # [theta; theta] / sqrt(2) keeps every kernel, so the generator
            # span has numerical rank below m + n however large the grid
            tables = [np.concatenate([t, t], axis=1) / np.sqrt(2) for t in tables]
        if perturbed:
            # data off the identities by ~1e-8: the nearest-involution path
            svals = svals + 1e-8 * (rng.standard_normal(svals.shape)
                                    + 1j * rng.standard_normal(svals.shape))
        syn = build_colligation(ws, tables, svals)
        if perturbed:
            assert DEFAULT_POLICY.residual_tol < syn.gram_residual <= 1e-6
        else:
            assert syn.gram_residual <= DEFAULT_POLICY.residual_tol
        u_ref, rank_ref = _dense_synthesis(ws, tables, svals)
        assert syn.rank == rank_ref
        if redundant:
            assert syn.rank < syn.colligation.U.shape[0]
        assert np.max(np.abs(syn.colligation.U - u_ref)) < 1e-9
