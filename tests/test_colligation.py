import dataclasses
import json

import numpy as np
import pytest

from posreal.cayley import (DiskFunctionView, DiskKernelEvaluator, disk_to_halfplane, inv_double_cayley,
                            value_cayley)
from posreal.verify import run_verification
from posreal.colligation import (
    AglerColligation,
    agler_identity_residual,
    build_colligation,
    colligation_from_kernel_samples,
    colligation_from_pencil,
    spectrum_condition,
    transfer_eval,
)
from posreal.core import DEFAULT_POLICY, NumericalRefusalError, ShapeError, ValidationError, psd_sqrt
from posreal.kernels import KernelSampleSet, sample_kernels
from posreal.netlist import network_pencil, parse_netlist
from posreal.pencil import compress_realization, eval_schur
from posreal.sampling import disk_grid, random_pencil
from posreal.serialize import colligation_from_json, colligation_to_json, dumps


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
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(parallel).eval_double_cayley(ws))
        rp, rm = agler_identity_residual(syn.colligation, ws[:5])
        assert max(rp, rm) < 1e-9

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2), (2, 2, 0)])
    def test_transfer_from_the_identity_solve_equals_transfer_eval(self, monkeypatch, shape):
        import posreal.colligation as colligation

        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        ws = disk_grid(f.num_vars, 11, seed=2)
        dk = DiskKernelEvaluator(f)
        c = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)).colligation
        # S read from the state solve: the bits of transfer_eval's dense route
        expected = transfer_eval(_dense(c), ws)
        seen = []
        real = colligation.transfer_identity_residuals

        def spy(grid, tables, values, scale=None):
            seen.append(values)
            return real(grid, tables, values, scale)

        def second_solve(*args, **kwargs):
            raise AssertionError("S(w) solved apart from the identity's own solve")

        monkeypatch.setattr(colligation, "transfer_identity_residuals", spy)
        monkeypatch.setattr(colligation, "transfer_eval", second_solve)
        monkeypatch.setattr(colligation, "reflection_transfer", second_solve)
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
        defect = psd_sqrt(np.eye(2) - d0 @ d0)
        thetas = [defect[None]]
        svals = d0[None].astype(complex)
        syn = build_colligation(grid, thetas, svals)
        syn.colligation.validate()
        assert np.max(np.abs(transfer_eval(syn.colligation, grid) - d0)) < 1e-10

    def test_constant_symmetry_everywhere(self):
        # D0 = -I has zero defect and a genuinely constant transfer; a
        # symmetry with eigenvalue 1 is F = infinity there, outside the
        # class premise, and the conversion to F refuses it
        grid = np.array([[0.0], [0.4], [-0.4]], dtype=complex)
        thetas = [np.zeros((3, 0, 2), dtype=complex)]
        d0 = -np.eye(2)
        syn = build_colligation(grid, thetas, np.broadcast_to(d0, (3, 2, 2)).astype(complex))
        probe = np.array([[0.6j], [-0.2 + 0.3j]])
        assert np.max(np.abs(transfer_eval(syn.colligation, probe) - d0)) < 1e-12
        with pytest.raises(NumericalRefusalError, match=r"I - S\(w\) is numerically singular"):
            build_colligation(grid, thetas, np.broadcast_to(np.diag([1.0, -1.0]), (3, 2, 2)))

    def test_parallel_roundtrip_with_holdout(self, parallel):
        dk, view = DiskKernelEvaluator(parallel), DiskFunctionView(parallel)
        base = disk_grid(2, 6, seed=5)
        syn = build_colligation(base, dk.theta_table(base), view.eval_double_cayley(base))
        c = syn.colligation
        assert c.unitarity_residual() < 1e-10 and c.selfadjointness_residual() < 1e-10
        holdout = disk_grid(2, 5, seed=55, include_zero=False)
        expected = view.eval_double_cayley(holdout)
        assert np.max(np.abs(transfer_eval(c, holdout) - expected)) < 1e-8

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 0)])
    def test_hands_back_grid_values_and_residuals(self, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        ws = disk_grid(f.num_vars, 9, seed=1)
        dk = DiskKernelEvaluator(f)
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws))
        c = syn.colligation
        assert np.array_equal(syn.values, transfer_eval(c, ws))
        assert syn.unitarity_residual == c.unitarity_residual()
        assert syn.selfadjointness_residual == c.selfadjointness_residual()
        assert (syn.unitarity_residual, syn.selfadjointness_residual) == c.validate()

    def test_empty_grid_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="at least one grid point"):
            build_colligation(np.zeros((0, 2)), [np.zeros((0, 1, 1))] * 2, np.zeros((0, 1, 1)))

    @pytest.mark.parametrize("where", ["samples", "tables"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_refused_before_factorizing(self, monkeypatch, parallel, where, bad):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 6, seed=5)
        tables, svals = dk.theta_table(ws), DiskFunctionView(parallel).eval_double_cayley(ws)
        if where == "samples":
            svals[2, 0, 0] = bad
        else:
            tables[1][3, 0, 0] = bad

        def factorized(*args, **kwargs):
            raise AssertionError("non-finite data reached a factorization")

        for name in ("qr", "svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, factorized)
        with pytest.raises(ValidationError, match="NaN or Inf"):
            build_colligation(ws, tables, svals)

    def test_rejects_inconsistent_samples(self):
        grid = np.array([[0.0], [0.5], [-0.5]], dtype=complex)
        thetas = [np.ones((3, 1, 1), dtype=complex)]
        svals = np.array([[[0.0]], [[0.9]], [[-0.1]]], dtype=complex)  # not the coordinate
        with pytest.raises(ValidationError):
            build_colligation(grid, thetas, svals)

    def test_no_io_dimension_is_a_rank_collapse(self):
        # n = 0 samples span nothing in a state space of dimension 1
        grid = np.array([[0.0], [0.5]], dtype=complex)
        with pytest.raises(NumericalRefusalError, match="rank collapse"):
            build_colligation(grid, [np.zeros((2, 1, 0), dtype=complex)], np.zeros((2, 0, 0)))

    def test_grid_without_the_center_is_refused(self, parallel):
        # the conversion needs w = 0, whose image z = e is the rebuild's base point
        dk, view = DiskKernelEvaluator(parallel), DiskFunctionView(parallel)
        ws = disk_grid(2, 6, seed=5, include_zero=False)
        with pytest.raises(ValidationError, match="base point"):
            build_colligation(ws, dk.theta_table(ws), view.eval_double_cayley(ws))

    def test_transfer_off_the_samples_is_refused(self, monkeypatch, parallel):
        import posreal.colligation as colligation

        real = colligation.transfer_eval
        monkeypatch.setattr(colligation, "transfer_eval",
                            lambda c, w, pol=DEFAULT_POLICY: real(c, w, pol) + 1e-6)
        dk, view = DiskKernelEvaluator(parallel), DiskFunctionView(parallel)
        ws = disk_grid(2, 6, seed=5)
        with pytest.raises(NumericalRefusalError, match="fails to interpolate"):
            build_colligation(ws, dk.theta_table(ws), view.eval_double_cayley(ws))

    def test_transfer_conjugate_symmetry(self, parallel, rng):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 8, seed=6)
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(parallel).eval_double_cayley(ws))
        probe = disk_grid(2, 6, seed=66)
        for w in probe:
            a = transfer_eval(syn.colligation, w.conj())
            b = transfer_eval(syn.colligation, w).conj().T
            assert np.linalg.norm(a - b) < 1e-9

    def test_inverse_cayley_composition(self, rng):
        f = random_pencil(rng, 2, 2, 3, rank_deficient=True)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(2, 12, seed=7)
        syn = build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws))
        rec = inv_double_cayley(lambda pts: transfer_eval(syn.colligation, pts), ws)
        target = eval_schur(f, disk_to_halfplane(ws))
        err = np.linalg.norm(rec - target, axis=(1, 2))
        assert np.max(err / (1 + np.linalg.norm(target, axis=(1, 2)))) < 1e-9


def _dense_generators(grid, tables, svals):
    """The explicit generator matrices D = [D_d R_r] and R = [R_r D_d], (m+n, 2gn) each."""
    n = svals.shape[1]
    h = np.concatenate(tables, axis=1)
    wh = np.repeat(grid, [t.shape[1] for t in tables], axis=1)[:, :, None] * h
    d_cols = np.concatenate([wh, np.broadcast_to(np.eye(n), svals.shape)], axis=1)
    r_cols = np.concatenate([h, svals], axis=1)
    return np.hstack(list(d_cols) + list(r_cols)), np.hstack(list(r_cols) + list(d_cols))


def _dense_case(shape, rank_deficient, grid_size, redundant, noise):
    """Grid, theta tables and Schur samples of one TestDenseReference case, off by ``noise``."""
    rng = np.random.default_rng(sum(shape) + grid_size)
    f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
    dk = DiskKernelEvaluator(f)
    ws = disk_grid(shape[0], grid_size, seed=grid_size)
    tables, svals = dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)
    if redundant:
        tables = [np.concatenate([t, t], axis=1) / np.sqrt(2) for t in tables]
    if noise:
        svals = svals + noise * (rng.standard_normal(svals.shape)
                                 + 1j * rng.standard_normal(svals.shape))
    return ws, tables, svals


DENSE_CASES = [
    ((2, 1, 2), False, 5, False), ((3, 2, 3), False, 25, False),
    ((3, 1, 4), True, 5, False), ((3, 2, 3), True, 25, False),
    ((2, 2, 0), False, 5, False), ((3, 1, 0), False, 25, False),
    ((2, 1, 2), False, 25, True), ((2, 2, 0), False, 25, True),
]


def _dense_sign_synthesis(grid, tables, svals, pol=DEFAULT_POLICY):
    """Dense reference of the sign route, with no QR and no T rotation.

    SVD D = W S V* of the explicit generator matrix, K = V_r* Pi V_r with
    Pi the swap of D's two column halves (so D Pi = R), and U = I - 2 V V*
    with V = W_r E_-, E_- the eigenvectors of K for negative eigenvalues.
    Returns (U, r), r the multiplicity of the eigenvalue -1 of U.
    """
    dmat, _ = _dense_generators(grid, tables, svals)
    w, s, vh = np.linalg.svd(dmat, full_matrices=False)
    rank = int(np.sum(s > pol.psd_slack * s[0]))
    vr, half = vh[:rank].conj().T, dmat.shape[1] // 2
    k = vr.conj().T @ np.concatenate([vr[half:], vr[:half]])
    evals, evecs = np.linalg.eigh((k + k.conj().T) / 2)
    v = w[:, :rank] @ evecs[:, evals < 0]
    return np.eye(len(w)) - 2.0 * (v @ v.conj().T), v.shape[1]


def _dense_synthesis(grid, tables, svals, pol=DEFAULT_POLICY):
    """Dense reference of the least-squares route: SVD basis of the explicit
    generator matrix, least-squares swap, eigen-sign projection of its
    Hermitian part.  On exact data it gives the sign route's U.  Returns (U, r),
    r the multiplicity of the eigenvalue -1 of U."""
    dmat, rmat = _dense_generators(grid, tables, svals)
    u, s, _ = np.linalg.svd(dmat, full_matrices=False)
    rank = int(np.sum(s > pol.psd_slack * s[0]))
    q = u[:, :rank]
    x, y = q.conj().T @ dmat, q.conj().T @ rmat
    swap = np.linalg.lstsq(x.conj().T, y.conj().T, rcond=np.finfo(float).eps)[0].conj().T
    evals, evecs = np.linalg.eigh((swap + swap.conj().T) / 2)
    swap = (evecs * np.sign(evals)) @ evecs.conj().T
    return np.eye(len(u)) + q @ (swap - np.eye(rank)) @ q.conj().T, int(np.sum(evals < 0))


class TestDenseReference:
    """build_colligation works from the kernel identity's R and two small SVDs; the dense routes must agree."""

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES)
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_matches_dense_route(self, shape, rank_deficient, grid_size, redundant, perturbed,
                                 dense_kernel_gate):
        # redundant: [theta; theta] / sqrt(2) keeps every kernel, so the
        # generator span has numerical rank below m + n however large the grid
        ws, tables, svals = _dense_case(shape, rank_deficient, grid_size, redundant,
                                        1e-8 if perturbed else 0.0)
        if perturbed:
            # data off the identities by ~1e-8 are refused, not regularized
            assert dense_kernel_gate(ws, tables, svals) > DEFAULT_POLICY.residual_tol
            with pytest.raises(ValidationError, match="kernel identity violated"):
                build_colligation(ws, tables, svals)
            return
        syn = build_colligation(ws, tables, svals)
        assert syn.gram_residual <= DEFAULT_POLICY.residual_tol
        for reference in (_dense_sign_synthesis, _dense_synthesis):
            u_ref, rank_ref = reference(ws, tables, svals)
            assert syn.rank == rank_ref
            assert np.max(np.abs(syn.colligation.U - u_ref)) < 1e-9
        if redundant:
            assert syn.rank < syn.colligation.U.shape[0]

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES)
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_gate_equals_the_dense_gram_residual(self, shape, rank_deficient, grid_size,
                                                 redundant, perturbed, dense_kernel_gate):
        # the column bound over R is the kernel identity's dense column norm,
        # read from gram_residual, or from the refusal's four digits
        data = _dense_case(shape, rank_deficient, grid_size, redundant, 1e-8 if perturbed else 0.0)
        ref = dense_kernel_gate(*data)
        if not perturbed:
            assert abs(build_colligation(*data).gram_residual - ref) <= 1e-12 + 1e-6 * ref
            return
        with pytest.raises(ValidationError, match="kernel identity violated") as refused:
            build_colligation(*data)
        assert float(str(refused.value).split("residual ")[1].rstrip(")")) == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES[:4])
    def test_data_off_by_1e_5_still_refused(self, shape, rank_deficient, grid_size, redundant,
                                            dense_kernel_gate):
        data = _dense_case(shape, rank_deficient, grid_size, redundant, 1e-5)
        assert dense_kernel_gate(*data) > DEFAULT_POLICY.residual_tol
        with pytest.raises(ValidationError, match="kernel identity violated"):
            build_colligation(*data)


BRIDGE = "ports A B\nbranch A M z1 1\nbranch M GND z2 2\nbranch B M z3 1\nbranch A B z1 0.5\n"


def _pencil(kind):
    rng = np.random.default_rng(17)
    if kind == "netlist":
        return network_pencil(parse_netlist(BRIDGE))
    shape = {"random": (2, 2, 3), "rank-deficient": (3, 2, 4), "p=0": (2, 2, 0)}[kind]
    return random_pencil(rng, *shape, rank_deficient=kind == "rank-deficient")


def _synthesis(f, grid_size=15, seed=3):
    ws = disk_grid(f.num_vars, grid_size, seed=seed)
    dk = DiskKernelEvaluator(f)
    return build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws)), ws


def _dense(c):
    """The same colligation without its reflection factor: S by the state solve."""
    return dataclasses.replace(c, reflection=None)


FORWARD_PENCILS = ["(3, 4, 32)", "(3, 2, 4)", "(2, 1, 2)", "(2, 2, 0)", "(1, 2, 5)",
                   "rank-deficient (3, 2, 4)", "bridge", "(3, 1, 3)"]


def _forward_pencil(kind):
    if kind == "bridge":
        return network_pencil(parse_netlist(BRIDGE))
    i = FORWARD_PENCILS.index(kind)
    shape = tuple(int(x) for x in kind.split("(")[1].rstrip(")").split(","))
    return random_pencil(np.random.default_rng(100 + i), *shape, rank_deficient=kind.startswith("rank"))


class TestForwardMap:
    """U = I - 2 W W* from the SVD of V = [-v; E*]: v from the kernel rebuild, or the pencil's own L."""

    @pytest.mark.parametrize("kind", FORWARD_PENCILS)
    def test_pencil_colligation_is_the_double_cayley_transform(self, kind):
        f = _forward_pencil(kind)
        c, tol = colligation_from_pencil(f), DEFAULT_POLICY.residual_tol
        assert c.dims == tuple(int(np.linalg.matrix_rank(a)) for a in f.pencil.coeffs)
        assert c.reflection.shape[1] == f.dim_u + f.dim_h
        assert c.unitarity_residual() <= tol and c.selfadjointness_residual() <= tol
        assert spectrum_condition(c)[0]
        probe = disk_grid(f.num_vars, 40, seed=99, include_zero=False)
        view, dk = DiskFunctionView(f), DiskKernelEvaluator(f)
        assert np.max(np.abs(transfer_eval(c, probe) - view.eval_double_cayley(probe))) <= 1e-12
        # the sign of L makes the state response theta_k = sqrt(2) xi_k (F + I)^{-1}
        plus_t = (view.eval_F(probe) + np.eye(f.dim_u)).transpose(0, 2, 1)
        for k, table in enumerate(dk.theta_table(probe)):
            want = np.sqrt(2.0) * np.linalg.solve(plus_t, dk.xi(k, probe).transpose(0, 2, 1)).transpose(0, 2, 1)
            assert np.max(np.abs(table - want)) <= 1e-12
        assert max(agler_identity_residual(c, probe)) <= tol

    def test_uncompressed_pencil_gives_the_colligation_of_its_compression(self, padded):
        # the SVD cut removes exactly the two dead H directions
        c, want = colligation_from_pencil(padded), colligation_from_pencil(compress_realization(padded))
        assert c.dims == want.dims and c.reflection.shape == want.reflection.shape
        ws = disk_grid(padded.num_vars, 40, seed=7)
        assert np.max(np.abs(transfer_eval(c, ws) - transfer_eval(want, ws))) <= 1e-14

    @pytest.mark.parametrize("grid_size", [1, 5, 40])
    @pytest.mark.parametrize("kind", FORWARD_PENCILS)
    def test_transfer_is_the_double_cayley_transform(self, kind, grid_size):
        f = _forward_pencil(kind)
        ws = disk_grid(f.num_vars, grid_size, seed=3)
        ks = sample_kernels(f, disk_to_halfplane(ws))
        syn = colligation_from_kernel_samples(ws, ks, value_cayley(ks.f_samples))
        c, tol = syn.colligation, DEFAULT_POLICY.residual_tol
        # the state keeps the phi tables' widths, even where the grid
        # does not saturate the difference span
        assert c.dims == tuple(t.shape[1] for t in ks.factors)
        assert np.linalg.norm(c.reflection.conj().T @ c.reflection - np.eye(syn.rank)) <= tol
        assert c.unitarity_residual() <= tol
        assert spectrum_condition(c)[0]
        if syn.rank - f.dim_u == f.dim_h:  # p' = p: the grid saturates the span
            probe = disk_grid(f.num_vars, 40, seed=99, include_zero=False)
            want = DiskFunctionView(f).eval_double_cayley(probe)
            assert np.max(np.abs(transfer_eval(c, probe) - want)) <= 1e-12

    def test_samples_off_the_kernel_identity_are_refused(self):
        f = _forward_pencil("(3, 2, 4)")
        ws = disk_grid(f.num_vars, 9, seed=3)
        ks = sample_kernels(f, disk_to_halfplane(ws))
        svals = value_cayley(ks.f_samples)
        off = KernelSampleSet(ks.grid, ks.factors, ks.f_samples * (1.0 + 1e-6))
        with pytest.raises(ValidationError, match="kernel identity violated"):
            colligation_from_kernel_samples(ws, off, svals)


class TestReflectionRoute:
    """Synthesized colligations carry V with U = I - 2 V V*; the dense state solve cross-checks it."""

    @pytest.mark.parametrize("kind", ["random", "rank-deficient", "p=0", "netlist"])
    def test_matches_the_dense_route(self, monkeypatch, kind):
        import posreal.colligation as colligation

        syn, ws = _synthesis(_pencil(kind))
        c = syn.colligation
        rng = np.random.default_rng(4)
        edge = 0.999 * np.exp(2j * np.pi * rng.random((30, c.num_vars)))
        expected = [transfer_eval(_dense(c), pts) for pts in (ws, edge)]

        def no_state_solve(*args, **kwargs):
            raise AssertionError("the state system was solved")

        monkeypatch.setattr(colligation, "_state_solve", no_state_solve)
        for pts, want in zip((ws, edge), expected):
            got = transfer_eval(c, pts)
            assert np.max(np.abs(got - want)) < 1e-11

    def test_points_off_the_open_polydisk_take_the_dense_route(self):
        syn, ws = _synthesis(_pencil("random"))
        c = syn.colligation
        pts = np.concatenate([ws, [[1j, 0.3]]])
        assert np.array_equal(transfer_eval(c, pts), transfer_eval(_dense(c), pts))

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2), (2, 2, 0), (3, 2, 4)])
    def test_rank_at_most_n_plus_p(self, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape, rank_deficient=shape == (3, 2, 4))
        c = _synthesis(f)[0].colligation
        assert c.reflection.shape[1] <= f.dim_u + f.dim_h

    def test_json_round_trip_drops_the_factor(self):
        syn, ws = _synthesis(_pencil("rank-deficient"))
        c = syn.colligation
        loaded = colligation_from_json(json.loads(dumps(colligation_to_json(c))))
        assert loaded.reflection is None
        assert np.array_equal(loaded.U, c.U)
        assert np.array_equal(transfer_eval(loaded, ws), transfer_eval(_dense(c), ws))

    def test_hand_built_factor(self, flip):
        v = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        c = AglerColligation((1,), 1, flip.U, selfadjoint=True, reflection=v)
        ws = disk_grid(1, 9, seed=2)
        assert np.max(np.abs(transfer_eval(c, ws) - ws[:, :, None])) < 1e-15

    @pytest.mark.parametrize("factor, selfadjoint, message", [
        (np.ones((3, 1)), True, "one row per row of U"),
        (np.array([[np.nan], [1.0]]), True, "NaN or Inf"),
        (np.array([[1.0], [-1.0]]) / np.sqrt(2.0), False, "only a selfadjoint colligation"),
        (np.array([[1.0], [1.0]]) / np.sqrt(2.0), True, "U is not I - 2 V V*"),
        (np.array([[1.0, 0.0], [-1.0, 0.0]]) / np.sqrt(2.0), True, "orthonormal columns"),
    ])
    def test_refused_factors(self, flip, factor, selfadjoint, message):
        with pytest.raises(ValidationError, match=message):
            AglerColligation((1,), 1, flip.U, selfadjoint=selfadjoint, reflection=factor)

    def test_transfer_memory_stays_at_the_factor_size(self, traced_peak):
        # the dense route peaks at about 36 MiB here: (99, 108, 108) stacks
        f = random_pencil(np.random.default_rng(0), 3, 4, 32)
        syn, ws = _synthesis(f, grid_size=100, seed=1)
        peak = traced_peak(lambda: transfer_eval(syn.colligation, ws))[1]
        assert peak <= 8 * 2 ** 20

    def test_verification_holds_one_copy_of_each_grid_table(self, traced_peak):
        # one copy of each grid table peaks at 11.8 MiB here; extra copies of
        # the synthesis stack or of the kernel families (22.95 MiB) exceed the bound
        f = random_pencil(np.random.default_rng(0), 3, 4, 32)
        report, peak = traced_peak(lambda: run_verification(f, seed=1, grid_size=300))
        assert report.verdict
        assert peak <= 15 * 2 ** 20


class TestOneStateSolve:
    """The identity residuals read h(w) = (I - A P(w))^{-1} B from one state solve."""

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2)])
    def test_state_system_solved_once(self, monkeypatch, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        syn, ws = _synthesis(f, grid_size=11, seed=2)
        c = _dense(syn.colligation)
        real = np.linalg.solve
        state_solves = []

        def spy(a, b):
            if np.shape(a) == (len(ws), c.dim_state, c.dim_state):
                state_solves.append(a)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        agler_identity_residual(c, ws)
        assert len(state_solves) == 1

    def test_misflagged_unitary_keeps_the_plus_identity(self):
        # a random unitary flagged selfadjoint but not: the unitary Agler
        # identity (plus) holds, the selfadjointness defect shows in minus
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        c = AglerColligation((1, 1), 1, q, selfadjoint=True)
        assert c.selfadjointness_residual() > 0.1
        rp, rm = agler_identity_residual(c, disk_grid(2, 8, seed=1))
        assert rp <= 1e-12
        assert rm >= 0.1

    def test_nonunitary_with_singular_adjoint_system_gives_finite_residuals(self):
        # I - A P(w) = 2 at w = 0.5j while I - A* P(w) = 0: only the first is solved
        c = AglerColligation((1,), 1, [[2j, 0.3], [0.3, 1]], selfadjoint=True)
        rp, rm = agler_identity_residual(c, [[0.5j]])
        assert np.isfinite(rp) and np.isfinite(rm)
        assert rm >= 1e-2
