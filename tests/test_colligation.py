import dataclasses
import json
import tracemalloc

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
from posreal.core import DEFAULT_POLICY, NumericalRefusalError, ShapeError, ValidationError
from posreal.kernels import factor_kernel_samples
from posreal.netlist import network_pencil, parse_netlist
from posreal.pencil import eval_schur
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

    def test_empty_grid_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="at least one grid point"):
            build_colligation(np.zeros((0, 2)), [np.zeros((0, 1, 1))] * 2, np.zeros((0, 1, 1)))

    @pytest.mark.parametrize("where", ["samples", "tables"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_refused_before_factorizing(self, monkeypatch, parallel, where, bad):
        dk = DiskKernelEvaluator(parallel)
        ws = disk_grid(2, 6, seed=5)
        tables, svals = dk.theta_table(ws), dk.view.eval_double_cayley(ws)
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


def _dense_generators(grid, tables, svals):
    """The explicit generator matrices D = [D_d R_r] and R = [R_r D_d], (m+n, 2gn) each."""
    n = svals.shape[1]
    h = np.concatenate(tables, axis=1)
    wh = np.repeat(grid, [t.shape[1] for t in tables], axis=1)[:, :, None] * h
    d_cols = np.concatenate([wh, np.broadcast_to(np.eye(n), svals.shape)], axis=1)
    r_cols = np.concatenate([h, svals], axis=1)
    return np.hstack(list(d_cols) + list(r_cols)), np.hstack(list(r_cols) + list(d_cols))


def _dense_gate(grid, tables, svals):
    """max(||D* D - R* R||, ||D* R - R* D||) / (1 + ||D||^2) from the explicit matrices."""
    dmat, rmat = _dense_generators(grid, tables, svals)
    dh, rh = dmat.conj().T, rmat.conj().T
    return max(np.linalg.norm(dh @ dmat - rh @ rmat, 2),
               np.linalg.norm(dh @ rmat - rh @ dmat, 2)) / (1.0 + np.linalg.norm(dmat, 2) ** 2)


def _dense_case(shape, rank_deficient, grid_size, redundant, noise):
    """Grid, theta tables and Schur samples of one TestDenseReference case, off by ``noise``."""
    rng = np.random.default_rng(sum(shape) + grid_size)
    f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
    dk = DiskKernelEvaluator(f)
    ws = disk_grid(shape[0], grid_size, seed=grid_size)
    tables, svals = dk.theta_table(ws), dk.view.eval_double_cayley(ws)
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


def _dense_synthesis(grid, tables, svals, pol=DEFAULT_POLICY):
    """Dense reference route: SVD basis of the explicit generator matrix,
    least-squares swap, eigen-sign projection.  Returns (U, rank)."""
    dmat, rmat = _dense_generators(grid, tables, svals)
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

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES)
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

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES)
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_gate_equals_the_dense_gram_residual(self, shape, rank_deficient, grid_size,
                                                 redundant, perturbed):
        # the one half-size gate norm is the value of both explicit Gram gates
        data = _dense_case(shape, rank_deficient, grid_size, redundant, 1e-8 if perturbed else 0.0)
        ref = _dense_gate(*data)
        assert abs(build_colligation(*data).gram_residual - ref) <= 1e-12 + 1e-6 * ref

    @pytest.mark.parametrize("shape, rank_deficient, grid_size, redundant", DENSE_CASES[:4])
    def test_data_off_by_1e_5_still_refused(self, shape, rank_deficient, grid_size, redundant):
        data = _dense_case(shape, rank_deficient, grid_size, redundant, 1e-5)
        assert _dense_gate(*data) > 1e-6
        with pytest.raises(ValidationError, match="Gram residual"):
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
    return build_colligation(ws, dk.theta_table(ws), dk.view.eval_double_cayley(ws)), ws


def _dense(c):
    """The same colligation without its reflection factor: S by the state solve."""
    return dataclasses.replace(c, reflection=None)


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

    def test_transfer_memory_stays_at_the_factor_size(self):
        # the dense route peaks at about 36 MiB here: (99, 108, 108) stacks
        f = random_pencil(np.random.default_rng(0), 3, 4, 32)
        syn, ws = _synthesis(f, grid_size=100, seed=1)
        tracemalloc.start()
        try:
            transfer_eval(syn.colligation, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


class TestLeftSolveGuard:
    def test_singular_adjoint_system_refused(self):
        # I - A P(w) = 2 at w = 0.5j, but I - A* P(w) = 1 - (-2j)(0.5j) = 0
        c = AglerColligation((1,), 1, [[2j, 0.3], [0.3, 1]], selfadjoint=True)
        with pytest.raises(NumericalRefusalError, match=r"I - A\* P\(w\) is numerically singular"):
            agler_identity_residual(c, [[0.5j]])
