import numpy as np
import pytest

from posreal.calculus import inverse_operator_cayley, make_tuple, operator_cayley
from posreal.cayley import (
    DiskFunctionView,
    DiskKernelEvaluator,
    disk_to_halfplane,
    inv_double_cayley,
    inv_value_cayley,
    value_cayley,
)
from posreal.colligation import agler_identity_residual, colligation_from_pencil, transfer_eval
from posreal.core import NumericalRefusalError, ValidationError
from posreal.kernels import kernel_identity_residual, plus_minus_residuals, sample_kernels
from posreal.pencil import eval_schur, realize
from posreal.sampling import disk_grid, random_pencil


def _spy_d_solves(monkeypatch, f, zs):
    """A list that gets one entry per np.linalg.solve call, True when it solves d(zs)."""
    n = f.dim_u
    d_zs = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))[:, n:, n:]
    solves = []
    real = np.linalg.solve

    def spy(a, b):
        solves.append(np.shape(a) == d_zs.shape and np.array_equal(a, d_zs))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    return solves


def _m_of(f, zs):
    """M(w) = A(z) + E E* at the points zs = z(w), E = [I_n; 0]."""
    az = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))
    az[:, :f.dim_u, :f.dim_u] += np.eye(f.dim_u)
    return az


def _state_of(f, ws):
    """I - A P(w) of the pencil's colligation at the points ws."""
    c = colligation_from_pencil(f)
    return np.eye(c.dim_state) - c.blocks()[0][None] * c.state_weights(ws)[:, None, :]


@pytest.mark.parametrize("call, d_solves, m_solves, state_solves", [
    (lambda f, ws, zs: sample_kernels(f, zs), 1, 0, 0),
    (lambda f, ws, zs: kernel_identity_residual(f, zs), 1, 0, 0),
    (lambda f, ws, zs: plus_minus_residuals(f, zs), 1, 0, 0),
    (lambda f, ws, zs: DiskKernelEvaluator(f).theta_table(ws), 0, 0, 1),
    (lambda f, ws, zs: agler_identity_residual(colligation_from_pencil(f), ws), 0, 0, 1),
], ids=["sample_kernels", "kernel_identity_residual", "plus_minus_residuals", "theta_table",
        "schur_identity_residuals"])
def test_d_on_the_grid_is_solved_once(monkeypatch, call, d_solves, m_solves, state_solves):
    # f and the phi tables come from one KernelSampleSet, so one d(z) solve;
    # the Schur side (the theta tables and the identities of the pencil's
    # colligation) solves its state system I - A P(w) once instead, and
    # neither d(z) nor M(w) = A(z) + E E*
    f = random_pencil(np.random.default_rng(4), 3, 2, 4)
    ws = disk_grid(f.num_vars, 12, seed=1)
    zs = disk_to_halfplane(ws)
    m_zs, state_ws = _m_of(f, zs), _state_of(f, ws)
    solves = _spy_d_solves(monkeypatch, f, zs)
    real = np.linalg.solve
    m_solves_seen, state_solves_seen = [], []

    def spy(a, b):
        m_solves_seen.append(np.shape(a) == m_zs.shape and np.allclose(a, m_zs, rtol=1e-13, atol=1e-13))
        state_solves_seen.append(np.shape(a) == state_ws.shape
                                 and np.allclose(a, state_ws, rtol=1e-13, atol=1e-13))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    call(f, ws, zs)
    assert sum(solves) == d_solves
    assert sum(m_solves_seen) == m_solves
    assert sum(state_solves_seen) == state_solves


class TestVariableCayley:
    def test_center_maps_to_base_point(self):
        assert np.allclose(disk_to_halfplane(np.zeros(3)), np.ones(3))

    def test_roundtrip(self, rng):
        w = 0.8 * (rng.random(5) - 0.5) + 0.8j * (rng.random(5) - 0.5)
        z = disk_to_halfplane(w)
        assert np.allclose((z - 1.0) / (z + 1.0), w)

    def test_one_third(self):
        assert np.allclose(disk_to_halfplane([1 / 3]), [2.0])

    def test_boundary_rejected(self):
        with pytest.raises(ValidationError):
            disk_to_halfplane([1.0 - 1e-12])


class TestValueMaps:
    def test_identity_function(self):
        # f(z) = z gives F(w) = (1+w)/(1-w) and a Schur side equal to w
        f = realize([np.array([[1.0]])], 1)
        view = DiskFunctionView(f)
        for w in (0.3, -0.2 + 0.4j, 0.05j):
            assert np.allclose(view.eval_F([w]), (1 + w) / (1 - w))
            assert np.allclose(view.eval_double_cayley([w]), w)

    def test_parallel_at_center(self, parallel):
        view = DiskFunctionView(parallel)
        assert np.allclose(view.eval_F([0, 0]), [[0.5]])
        assert np.allclose(view.eval_double_cayley([0, 0]), [[-1 / 3]])

    def test_second_coordinate(self):
        f = realize([np.array([[0.0]]), np.array([[1.0]])], 1)
        view = DiskFunctionView(f)
        w = np.array([0.3 - 0.1j, -0.25 + 0.2j])
        assert np.allclose(view.eval_double_cayley(w), [[w[1]]])


class TestInverseDoubleCayley:
    def test_scalar_disk_coordinate(self):
        out = inv_double_cayley(lambda pts: pts[:, 0][:, None, None], np.array([[0.4]]))
        assert np.allclose(out, (1 + 0.4) / (1 - 0.4))

    def test_zero_function(self):
        out = inv_double_cayley(lambda pts: np.zeros((len(pts), 2, 2)), np.array([[0.1, 0.2]]))
        assert np.allclose(out, np.eye(2))

    def test_roundtrip_on_parallel(self, parallel):
        view = DiskFunctionView(parallel)
        ws = disk_grid(2, 5, seed=21, include_zero=False)
        rec = inv_double_cayley(view.eval_double_cayley, ws)
        fv = eval_schur(parallel, disk_to_halfplane(ws))
        assert np.max(np.abs(rec - fv)) < 1e-12


class TestBatchedValueMaps:
    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 1, 2), (2, 3, 0)])
    def test_equal_the_evaluator_routes_bit_for_bit(self, shape):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        view = DiskFunctionView(f)
        ws = disk_grid(f.num_vars, 15, seed=4)
        fv = view.eval_F(ws)
        sv = value_cayley(fv)
        assert np.array_equal(sv, view.eval_double_cayley(ws))
        schur = view.eval_double_cayley
        assert np.array_equal(inv_value_cayley(sv), inv_double_cayley(schur, ws))
        assert np.array_equal(inv_double_cayley(schur, ws[0]), inv_value_cayley(schur(ws[:1]))[0])
        assert np.max(np.abs(inv_value_cayley(sv) - fv)) < 1e-12

    def test_guards(self):
        with pytest.raises(NumericalRefusalError, match=r"F\(w\) \+ I is numerically singular"):
            value_cayley(-np.eye(2)[None])
        with pytest.raises(NumericalRefusalError, match=r"I - S\(w\) is numerically singular"):
            inv_value_cayley(np.eye(2)[None])


class TestOperatorCayley:
    def test_zero_tuple(self):
        t = make_tuple([np.zeros((2, 2))], require="contraction")
        r = operator_cayley(t)
        assert np.allclose(r.mats[0], np.eye(2))
        assert r.kind == "accretive"

    def test_diagonal_example(self):
        t = make_tuple([np.diag([0.0, 1 / 3])], require="contraction")
        r = operator_cayley(t)
        assert np.allclose(r.mats[0], np.diag([1.0, 2.0]))

    def test_roundtrip_random_pair(self, rng):
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s /= 4 * np.linalg.norm(s, 2)
        mats = [0.5 * s + 0.1 * s @ s, 0.2 * np.eye(4) + 0.3 * s]
        t = make_tuple(mats, require="contraction")
        back = inverse_operator_cayley(operator_cayley(t))
        assert max(np.linalg.norm(a - b, 2) for a, b in zip(back.mats, t.mats)) < 1e-12

    def test_margin_violation(self):
        t = make_tuple([np.diag([0.9999999, 0.0])])
        assert t.kind != "contraction"
        with pytest.raises(ValidationError):
            operator_cayley(t)

    def test_matrix_maps_invert(self, rng):
        t = 0.4 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))) / 3
        assert np.allclose(value_cayley(inv_value_cayley(t)), t)


class TestKernelTransforms:
    def test_single_variable_algebra(self):
        # f(z) = z: Xi(w, o) = 2 / ((1 - w)(1 - conj(o)))
        f = realize([np.array([[1.0]])], 1)
        dk = DiskKernelEvaluator(f)
        w, o = 0.3 + 0.2j, -0.4 + 0.1j
        xi_val = dk.xi(0, [o]).conj().T @ dk.xi(0, [w])
        assert np.allclose(xi_val, 2.0 / ((1 - w) * (1 - np.conj(o))))
        lhs = (1 + w) / (1 - w) + np.conj((1 + o) / (1 - o))
        assert np.allclose(lhs, (1 - np.conj(o) * w) * xi_val)

    def test_schur_side_scalar_coordinate(self):
        # double Cayley of f(z) = z is w, whose kernel is constant 1
        f = realize([np.array([[1.0]])], 1)
        dk = DiskKernelEvaluator(f)
        w, o = 0.25, -0.3 + 0.2j
        theta_w, theta_o = dk.theta_table(np.array([[w], [o]]))[0]
        theta_val = theta_o.conj().T @ theta_w
        assert np.allclose(theta_val, 1.0)

    def test_parallel_identities(self, parallel):
        ws = disk_grid(2, 8, seed=31)
        hp, hm = plus_minus_residuals(parallel, disk_to_halfplane(ws))
        sp, sm = agler_identity_residual(colligation_from_pencil(parallel), ws)
        assert max(hp, hm, sp, sm) < 1e-10

    def test_theta_table_matches_per_variable_formula(self, rng):
        # theta_k(w) = sqrt(2) xi_k(w) (F(w) + I)^{-1}, one variable at a time
        f = random_pencil(rng, 3, 2, 4)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(3, 12, seed=8)
        plus = DiskFunctionView(f).eval_F(ws) + np.eye(2)
        table = dk.theta_table(ws)
        for k in range(3):
            expect = np.sqrt(2.0) * np.linalg.solve(plus.transpose(0, 2, 1),
                                                    dk.xi(k, ws).transpose(0, 2, 1)).transpose(0, 2, 1)
            assert np.allclose(table[k], expect, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("shape", [(3, 1, 3), (2, 2, 3), (3, 4, 32), (2, 1, 0)])
    def test_schur_tables_match_the_value_cayley_route(self, shape):
        # the Schur-side tables of the pencil's colligation (theta from its
        # state solve, S from its M(w) solve) against the division of xi and
        # F - I by F + I, the independent cross-check that DiskFunctionView
        # still computes
        f = random_pencil(np.random.default_rng(sum(shape)), *shape)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(shape[0], 30, seed=2)
        thetas, svals = dk.theta_table(ws), transfer_eval(colligation_from_pencil(f), ws)
        fv = DiskFunctionView(f).eval_F(ws)
        plus_t = (fv + np.eye(shape[1])).transpose(0, 2, 1)

        def rel(got, expect):
            return np.max(np.linalg.norm(got - expect, axis=(1, 2))
                          / np.linalg.norm(expect, axis=(1, 2)))

        assert rel(svals, value_cayley(fv)) <= 1e-13
        for k, table in enumerate(thetas):
            expect = np.sqrt(2.0) * np.linalg.solve(
                plus_t, dk.xi(k, ws).transpose(0, 2, 1)).transpose(0, 2, 1)
            assert rel(table, expect) <= 1e-13

    @pytest.mark.parametrize("shape, rank_deficient", [
        ((3, 2, 4), False), ((3, 2, 4), True), ((2, 2, 0), False), ((3, 4, 32), False),
    ])
    def test_schur_tables_solve_neither_d_nor_estimate(self, monkeypatch, shape, rank_deficient):
        import posreal.kernels as kernels
        import posreal.pencil as pencil

        f = random_pencil(np.random.default_rng(7), *shape, rank_deficient=rank_deficient)
        dk = DiskKernelEvaluator(f)
        ws = disk_grid(shape[0], 40, seed=3)
        calls = []

        def forbidden(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} was called")
            return spy

        monkeypatch.setattr(pencil, "schur_solve", forbidden("schur_solve"))
        monkeypatch.setattr(kernels, "schur_solve", forbidden("schur_solve"))
        monkeypatch.setattr(np.linalg, "cond", forbidden("np.linalg.cond"))
        thetas, svals = dk.theta_table(ws), transfer_eval(colligation_from_pencil(f), ws)
        assert calls == []
        assert len(thetas) == shape[0] and svals.shape == (len(ws), shape[1], shape[1])

    def test_schur_tables_refuse_points_near_the_circle(self, parallel):
        dk = DiskKernelEvaluator(parallel)
        with pytest.raises(ValidationError, match="too close to the unit circle"):
            dk.theta_table(np.array([[0.2, 1.0 - 1e-12]]))

    def test_theta_kernel_value_map_conjugation(self, rng):
        # Theta_k(w, o) must equal 2 (F(o)* + I)^{-1} Xi_k(w, o) (F(w) + I)^{-1}
        f = random_pencil(rng, 2, 2, 3)
        dk = DiskKernelEvaluator(f)
        view = DiskFunctionView(f)
        eye = np.eye(2)
        for _ in range(5):
            w = 0.6 * (rng.random(2) - 0.5) + 0.6j * (rng.random(2) - 0.5)
            o = 0.6 * (rng.random(2) - 0.5) + 0.6j * (rng.random(2) - 0.5)
            thetas = dk.theta_table(np.array([w, o]))
            for k in range(2):
                theta = thetas[k][1].conj().T @ thetas[k][0]
                xi = dk.xi(k, o).conj().T @ dk.xi(k, w)
                fw = view.eval_F(w)
                fo = view.eval_F(o)
                expect = 2.0 * np.linalg.solve(fo.conj().T + eye, np.atleast_2d(xi)) \
                    @ np.linalg.inv(fw + eye)
                assert np.linalg.norm(np.atleast_2d(theta) - expect) < 1e-10

    def test_random_pencil_identities(self, rng):
        f = random_pencil(rng, 3, 2, 4, rank_deficient=True)
        ws = disk_grid(3, 8, seed=41)
        hp, hm = plus_minus_residuals(f, disk_to_halfplane(ws))
        sp, sm = agler_identity_residual(colligation_from_pencil(f), ws)
        assert max(hp, hm, sp, sm) < 1e-9


class TestDiskInvariants:
    def test_conjugate_symmetry_transport(self, parallel, rng):
        view = DiskFunctionView(parallel)
        ws = disk_grid(2, 10, seed=51)
        for w in ws:
            assert np.allclose(view.eval_F(w.conj()), view.eval_F(w).conj().T)
            assert np.allclose(view.eval_double_cayley(w.conj()),
                               view.eval_double_cayley(w).conj().T)

    def test_contractivity_and_strictness(self, rng):
        for _ in range(4):
            f = random_pencil(rng, 2, 2, 3)
            view = DiskFunctionView(f)
            ws = disk_grid(2, 10, seed=int(rng.integers(1 << 30)))
            sv = view.eval_double_cayley(ws)
            norms = np.linalg.norm(sv, ord=2, axis=(1, 2))
            assert np.all(norms <= 1 + 1e-10)
            mid = np.linalg.norm(np.eye(f.dim_u) + sv, ord=2, axis=(1, 2)) / 2
            assert np.all(mid < 1)
