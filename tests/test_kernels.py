import numpy as np
import pytest

from posreal import realize
from posreal.core import DEFAULT_POLICY, NumericalRefusalError, ValidationError, scale_of
from posreal.kernels import (
    KernelEvaluator,
    KernelSampleSet,
    check_psd_kernel,
    kernel_identity_residual,
    pencil_from_kernel_samples,
    plus_minus_residuals,
    psi,
    sample_kernels,
)
from posreal.netlist import network_pencil, parse_netlist
from posreal.pencil import PsdPencil, RealizedFunction, eval_schur
from posreal.sampling import halfplane_grid, random_pencil, random_psd


class TestPsi:
    def test_parallel(self, parallel):
        # c(z) = z1, d(z) = z1 + z2
        assert np.allclose(psi(parallel, [1, 1]), [[1.0], [-0.5]])

    def test_p0_identity(self):
        f = realize([np.eye(2), np.eye(2)], 2)
        assert np.allclose(psi(f, [1, 1]), np.eye(2))

    def test_boundary_point_with_invertible_d(self, parallel):
        # (1, 0) leaves the open polyhalfplane but d = 1 stays invertible
        assert np.allclose(psi(parallel, [1, 0]), [[1.0], [-1.0]])


class TestPhi:
    def test_parallel_first_kernel(self, parallel):
        assert np.allclose(KernelEvaluator(parallel).phi(0, [1, 1], [1, 1]), [[0.25]])

    def test_parallel_second_kernel(self, parallel):
        assert np.allclose(KernelEvaluator(parallel).phi(1, [1, 1], [1, 1]), [[0.25]])

    def test_p0_kernels_constant(self, rng):
        e1 = np.array([[2.0, 1.0], [1.0, 1.0]])
        ev = KernelEvaluator(realize([e1, np.eye(2)], 2))
        za = np.array([1 + 0.5j, 2.0])
        zb = np.array([0.3, 1 - 0.2j])
        assert np.allclose(ev.phi(0, za, zb), e1)
        assert np.allclose(ev.phi(0, zb, za), e1)

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 1, 0)])
    def test_phi_table_is_factors_times_psi_and_f(self, shape):
        f = random_pencil(np.random.default_rng(6), *shape)
        ev = KernelEvaluator(f)
        grid = halfplane_grid(f.num_vars, 10, seed=2)
        ks = ev.phi_table(grid)
        assert isinstance(ks, KernelSampleSet)
        ps = ev.psi(grid)
        for k in range(f.num_vars):
            assert np.array_equal(ks.factors[k], ev.factors[k] @ ps)
        assert np.array_equal(ks.f_samples, f(grid))


class TestIdentityResiduals:
    def test_valid_pencil_small(self, parallel):
        grid = np.array([[1, 1], [2, 1], [1 + 1j, 1]], dtype=complex)
        assert kernel_identity_residual(parallel, grid) < 1e-12

    def test_random_pencils(self, rng):
        for _ in range(5):
            f = random_pencil(rng, 3, 2, 4, rank_deficient=True)
            grid = halfplane_grid(3, 8, seed=int(rng.integers(1 << 30)))
            assert kernel_identity_residual(f, grid) < 1e-9

    def test_corrupted_kernel_detected(self, parallel):
        # recompute the identity by hand with one kernel value perturbed
        grid = np.array([[1, 1], [2, 1], [1 + 1j, 1]], dtype=complex)
        ev = KernelEvaluator(parallel)
        worst = 0.0
        for bi, z in enumerate(grid):
            fz = eval_schur(parallel, z)
            for ci, zeta in enumerate(grid):
                phis = [ev.phi(k, z, zeta) for k in range(2)]
                if bi == 0 and ci == 1:
                    phis[0] = phis[0] + 0.1
                lhs = sum(z[k] * phis[k] for k in range(2))
                worst = max(worst, np.linalg.norm(lhs - fz) / (1 + np.linalg.norm(fz)))
        assert worst >= 0.05

    def test_plus_minus_valid(self, parallel, rng):
        grid = halfplane_grid(2, 8, seed=3)
        rp, rm = plus_minus_residuals(parallel, grid)
        assert rp < 1e-12 and rm < 1e-12

    def test_plus_identity_specializes_to_real_part(self, parallel):
        z = np.array([1.3 + 0.4j, 0.8 - 0.1j])
        ev = KernelEvaluator(parallel)
        fz = eval_schur(parallel, z)
        lhs = sum(2 * z[k].real * ev.phi(k, z, z) for k in range(2))
        assert np.allclose(lhs, fz + fz.conj().T)

    def test_plus_minus_corruption_detected(self, parallel):
        grid = np.array([[1, 1], [2, 1]], dtype=complex)
        ev = KernelEvaluator(parallel)
        worst_plus = 0.0
        for z in grid:
            for zeta in grid:
                phis = [ev.phi(k, z, zeta) + (0.1 if k == 0 else 0) for k in range(2)]
                fz, fzeta = eval_schur(parallel, z), eval_schur(parallel, zeta)
                lhs = sum((z[k] + np.conj(zeta[k])) * phis[k] for k in range(2))
                worst_plus = max(worst_plus, np.linalg.norm(lhs - fz - fzeta.conj().T))
        assert worst_plus > 1e-2


class TestPsdKernelCheck:
    def test_pencil_kernels_pass(self, parallel, rng):
        grid = halfplane_grid(2, 4, seed=9)
        ev = KernelEvaluator(parallel)
        samples = [[ev.phi(0, zm, zn) for zn in grid] for zm in grid]
        assert check_psd_kernel(samples)

    def test_rank_one_scalar_kernel(self):
        pts = [1.0, 2.0, 0.5 + 0.5j]
        g = lambda z: 1.0 / (1.0 + z)
        samples = [[np.array([[np.conj(g(zn)) * g(zm)]]) for zn in pts] for zm in pts]
        assert check_psd_kernel(samples)

    def test_non_hermitian_gram_rejected(self):
        # Phi(z, zeta) = z - conj(zeta) sampled on {1, 2}
        pts = [1.0, 2.0]
        samples = [[np.array([[zm - np.conj(zn)]]) for zn in pts] for zm in pts]
        assert not check_psd_kernel(samples)


class TestReconstruction:
    @pytest.mark.parametrize("shape, rank_deficient, grid_size", [
        ((2, 1, 3), False, 3), ((2, 1, 3), False, 25), ((3, 2, 4), True, 6),
        ((3, 2, 4), True, 40), ((2, 2, 0), False, 10),
    ])
    def test_dim_h_is_rank_of_difference_span(self, shape, rank_deficient, grid_size):
        rng = np.random.default_rng(sum(shape) + grid_size)
        f = random_pencil(rng, *shape, rank_deficient=rank_deficient)
        ks = sample_kernels(f, halfplane_grid(shape[0], grid_size, seed=grid_size))
        base = ks.base_index()
        phis = np.concatenate(ks.factors, axis=1)  # phi(z_j): the factors stacked per point
        phi_e = phis[base]
        diffs = np.hstack([phis[j] - phi_e for j in range(len(ks.grid)) if j != base])
        floor = DEFAULT_POLICY.psd_slack * max(np.linalg.norm(diffs, 2),
                                               1.0 + np.linalg.norm(phi_e, 2))
        assert pencil_from_kernel_samples(ks).dim_h == np.linalg.matrix_rank(diffs, tol=floor)

    def test_parallel_roundtrip(self, parallel, rng):
        grid = halfplane_grid(2, 6, seed=4)
        ks = sample_kernels(parallel, grid)
        rebuilt = pencil_from_kernel_samples(ks)
        holdout = halfplane_grid(2, 10, seed=77)
        err = np.abs(rebuilt(holdout) - parallel(holdout))
        assert np.max(err) < 1e-8

    def test_p0_exact(self):
        f = realize([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)
        grid = halfplane_grid(2, 5, seed=5)
        rebuilt = pencil_from_kernel_samples(sample_kernels(f, grid))
        assert rebuilt.dim_h == 0
        z = np.array([2.0, 3.0])
        assert np.allclose(rebuilt(z), f(z))

    def test_constant_psi_rebuilds_without_state(self, rng):
        # proportional coefficients make psi constant, so the factor
        # differences are pure roundoff and must not count as rank
        a = random_psd(rng, 4, rank=4)
        f = realize([a, 2.0 * a, 0.5 * a], 2)
        assert f.dim_h == 2
        rebuilt = pencil_from_kernel_samples(sample_kernels(f, halfplane_grid(3, 20, seed=1)))
        assert rebuilt.dim_h == 0
        z = np.array([1.5, 0.5 + 1j, 2.0])
        assert np.allclose(rebuilt(z), f(z))

    def test_single_variable_content(self):
        # f(z) = z1 with N = 2: second kernel identically zero
        grid = np.array([[1, 1], [2, 1 + 1j], [0.5, 3], [1 + 2j, 1 - 1j]], dtype=complex)
        factors = (np.ones((4, 1, 1), dtype=complex), np.zeros((4, 0, 1), dtype=complex))
        fs = grid[:, 0][:, None, None] * np.ones((4, 1, 1))
        ks = KernelSampleSet(grid, factors, fs)
        rebuilt = pencil_from_kernel_samples(ks)
        z = np.array([0.4 + 0.1j, 5.0 - 2j])
        assert np.allclose(rebuilt(z), [[z[0]]])

    def test_rejects_violated_identity(self, parallel):
        grid = halfplane_grid(2, 6, seed=4)
        ks = sample_kernels(parallel, grid)
        bad = KernelSampleSet(ks.grid, ks.factors, ks.f_samples + 0.3)
        with pytest.raises(ValidationError):
            pencil_from_kernel_samples(bad)

    def test_rebuild_off_the_samples_is_refused(self, monkeypatch, parallel):
        # valid samples, but a rebuilt pencil that misses them by 1e-6
        import posreal.kernels as kernels

        class Shifted(RealizedFunction):
            def __call__(self, z, pol=DEFAULT_POLICY):
                return super().__call__(z, pol) + 1e-6

        monkeypatch.setattr(kernels, "RealizedFunction", Shifted)
        ks = sample_kernels(parallel, halfplane_grid(2, 6, seed=4))
        with pytest.raises(NumericalRefusalError, match="reconstruction failed to interpolate"):
            pencil_from_kernel_samples(ks)

    def test_rejects_overflowing_samples(self, parallel):
        # finite samples whose identity residual overflows to NaN are an
        # input error, not passed on to the rebuild
        ks = sample_kernels(parallel, halfplane_grid(2, 6, seed=4))
        table = ks.factors[0].copy()
        table[2, 0, 0] = 1e160
        bad = KernelSampleSet(ks.grid, (table, ks.factors[1]), ks.f_samples)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(bad.identity_residual())
            with pytest.raises(ValidationError, match="residual nan"):
                pencil_from_kernel_samples(bad)

    def test_refuses_points_equal_up_to_signed_zero(self, parallel):
        ks = sample_kernels(parallel, halfplane_grid(2, 6, seed=4))
        grid = ks.grid.copy()
        # after rounding to 12 digits the imaginary parts are +0.0 and -0.0
        grid[1] = [2.0 + 1e-14j, 3.0 - 4e-13j]
        grid[2] = [2.0 - 1e-14j, 3.0 + 0j]
        with pytest.raises(ValidationError, match="pairwise distinct"):
            KernelSampleSet(grid, ks.factors, ks.f_samples)
        grid[2, 1] = 3.0 + 1e-11j  # distinct at 12 digits
        KernelSampleSet(grid, ks.factors, ks.f_samples)

    def test_requires_base_point(self, parallel):
        grid = halfplane_grid(2, 6, seed=4, include_base=False) + 0.3
        ks = sample_kernels(parallel, grid)
        with pytest.raises(ValidationError):
            pencil_from_kernel_samples(ks)

    def test_rebuild_matches_f_off_grid(self, parallel):
        # the rebuilt pencil realizes f itself: compare on fresh points,
        # rotated off the sample grid as in the kernels benchmark
        grid = halfplane_grid(2, 8, seed=8)
        rebuilt = pencil_from_kernel_samples(sample_kernels(parallel, grid))
        fresh = halfplane_grid(2, 40, seed=9) * (1 + 0.07j)
        target = parallel(fresh)
        err = np.linalg.norm(rebuilt(fresh) - target, axis=(1, 2))
        assert np.max(err / (1.0 + np.linalg.norm(target, axis=(1, 2)))) <= DEFAULT_POLICY.residual_tol

    def test_reconstructed_kernels_match_inputs_at_grid(self, rng):
        # the embedding preserves kernel values at the nodes, which is the
        # finite content of the vanishing of the lower block row
        f = random_pencil(rng, 2, 2, 3, rank_deficient=True)
        grid = halfplane_grid(2, f.dim_h + 3, seed=13)
        ks = sample_kernels(f, grid)
        rebuilt = pencil_from_kernel_samples(ks)
        ev = KernelEvaluator(rebuilt)
        for bi, z in enumerate(grid):
            for ci, zeta in enumerate(grid):
                for k in range(2):
                    orig = ks.factors[k][ci].conj().T @ ks.factors[k][bi]
                    assert np.linalg.norm(ev.phi(k, z, zeta) - orig) < 1e-9

    def test_random_roundtrips_with_holdout(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(0, 6))
            f = random_pencil(rng, 2, n, p, rank_deficient=True)
            grid = halfplane_grid(2, p + 3, seed=int(rng.integers(1 << 30)))
            rebuilt = pencil_from_kernel_samples(sample_kernels(f, grid))
            holdout = halfplane_grid(2, 10, seed=int(rng.integers(1 << 30))) * (1 + 0.1j)
            err = np.linalg.norm(rebuilt(holdout) - f(holdout), axis=(1, 2))
            assert np.max(err / (1 + np.linalg.norm(f(holdout), axis=(1, 2)))) < 1e-8


def _rebuilt_coeffs_reference(ks, pol=DEFAULT_POLICY):
    """The coefficients of ``pencil_from_kernel_samples`` through its former staging:
    concatenate the tables, delete the base row, subtract phi(e), conjugate,
    and reshape the transpose into the QR input."""
    base = ks.base_index()
    phis = np.concatenate(ks.factors, axis=1)
    phi_e = phis[base]
    diffs = np.delete(phis, base, axis=0) - phi_e
    r = np.linalg.qr(diffs.conj().transpose(0, 2, 1).reshape(-1, len(phi_e)), mode="r")
    q, sing, _ = np.linalg.svd(r.conj().T, full_matrices=False)
    floor = pol.psd_slack * max(sing.max(initial=0.0), scale_of(phi_e))
    v = np.hstack([phi_e, q[:, :int(np.sum(sing > floor))]])
    offsets = np.cumsum([0] + [t.shape[1] for t in ks.factors])
    return [v[lo:hi].conj().T @ v[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


# a bridge: the two internal nodes give the pencil a state space
BRIDGE = ("ports P\nbranch P M z1 1\nbranch M GND z2 2\nbranch P Q z2 1\n"
          "branch Q GND z1 3\nbranch M Q z3 1\n")


def _staging_case(at):
    """Kernel samples for ``TestRebuildStaging``: a rank-deficient (3, 2, 4) pencil at 40
    points with the base point moved first, to the middle or last, or one point, one
    variable, or a netlist pencil."""
    if at == "netlist":
        return sample_kernels(network_pencil(parse_netlist(BRIDGE)), halfplane_grid(3, 40, seed=2))
    if at == "one-variable":
        f = random_pencil(np.random.default_rng(3), 1, 2, 4)
        return sample_kernels(f, halfplane_grid(1, 40, seed=2))
    f = random_pencil(np.random.default_rng(3), 3, 2, 4, rank_deficient=True)
    ks = sample_kernels(f, halfplane_grid(3, 1 if at == "one-point" else 40, seed=2))
    g = len(ks.grid)
    if g == 1:
        return ks
    # move the base point, so the rows before and after it are both filled
    order = np.delete(np.arange(g), ks.base_index())
    order = np.insert(order, {"first": 0, "middle": g // 2, "last": g - 1}[at], ks.base_index())
    return KernelSampleSet(ks.grid[order], tuple(t[order] for t in ks.factors), ks.f_samples[order])


def _relative_gap(got, want):
    return np.max(np.linalg.norm(got - want, axis=(1, 2)) / (1.0 + np.linalg.norm(want, axis=(1, 2))))


class TestRebuildStaging:
    """The rebuild reads the difference span from the kernel identity's R, not from a QR of
    the stacked differences.  Against that former staging it keeps p, the bits of the U
    blocks phi(e)* P_k phi(e), and f; H gets another orthonormal basis of the same span."""

    @pytest.mark.parametrize("at", ["first", "middle", "last", "one-point", "one-variable", "netlist"])
    def test_coefficients_match_former_staging_bitwise(self, at):
        ks = _staging_case(at)
        rebuilt = pencil_from_kernel_samples(ks)
        want = _rebuilt_coeffs_reference(ks)
        n = ks.dim_u
        p = want[0].shape[0] - n
        assert rebuilt.dim_h == p
        if at in ("one-point", "one-variable"):
            assert p == 0  # constant psi: the differences are roundoff
        got = rebuilt.pencil.coeffs
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a[:n, :n].view(np.uint64), b[:n, :n].view(np.uint64))
        former = RealizedFunction(PsdPencil(ks.num_vars, n, p, tuple(want)), compressed=True)
        fresh = halfplane_grid(ks.num_vars, 50, seed=9) * (1 + 0.07j)
        for pts in (ks.grid, fresh):
            assert _relative_gap(rebuilt(pts), former(pts)) <= 1e-12

    def test_memory_stays_near_one_families_buffer(self, traced_peak):
        f = random_pencil(np.random.default_rng(1), 3, 2, 4)
        ks = sample_kernels(f, halfplane_grid(3, 1000, seed=1))
        g, n = ks.f_samples.shape[:2]
        m = sum(t.shape[1] for t in ks.factors)
        families = 2 * g * n * (m + n) * 16  # the kernel identity's (2, g, n, m + n) buffer
        rebuilt, peak = traced_peak(lambda: pencil_from_kernel_samples(ks))
        assert rebuilt.dim_h > 0
        # beyond the families, freed once the gate has read them, only buffers
        # of a fixed size (one point block of the TSQR and R, numpy's ufunc
        # buffers) and, later, the interpolation check's blocks add to the
        # peak; no difference stack is formed
        assert peak < 1.5 * families


class TestKernelHomogeneity:
    def test_degree_zero(self, parallel, rng):
        ev = KernelEvaluator(parallel)
        for _ in range(10):
            z = np.array([1 + 0.3j, 0.7]) * (1 + rng.random())
            zeta = np.array([2.0, 1 - 0.2j])
            lam = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            for k in range(2):
                a = ev.phi(k, lam * z, lam * zeta)
                b = ev.phi(k, z, zeta)
                assert np.linalg.norm(a - b) < 1e-9 * (1 + np.linalg.norm(b))
