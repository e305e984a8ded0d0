"""Kernel decompositions of realized functions.

Every realized function satisfies f(z) = sum_k z_k Phi_k(z, zeta) for
the PSD kernels Phi_k(z, zeta) = psi(zeta)* A_k psi(z), where
psi(z) = [I ; -d(z)^{-1} c(z)].  This module produces the kernels and
their Gram factors analytically from a pencil, verifies the defining
identities on grids, certifies and factors sampled kernels, and rebuilds
a pencil from kernel samples through the embedding of the sampled factor
spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    as_points,
    cross_gram_residual,
    hermitian_split_residuals,
    hermitian_part,
    eigh_or_refuse,
    is_hermitian,
    psd_sqrt,
    scale_of,
)
from .pencil import PsdPencil, RealizedFunction, schur_solve
# kernels solves d(z) through schur_solve and no longer calls the guard; the
# binding stays because perfbench/tests checks that the tracer rebinds this copy
from .pencil import _refuse_ill_conditioned  # noqa: F401

__all__ = [
    "KernelEvaluator",
    "KernelSampleSet",
    "psi",
    "phi",
    "kernel_identity_residual",
    "plus_minus_residuals",
    "check_psd_kernel",
    "factor_kernel_samples",
    "sample_kernels",
    "pencil_from_kernel_samples",
]


def psi(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY, solve=None) -> np.ndarray:
    """The (n+p) x n column [I ; -d(z)^{-1} c(z)]; batched over points.

    ``solve`` is d(z)^{-1} c(z) on the same points, the second part of
    ``schur_solve``, when the caller already has it; d(z) is then not
    solved again.
    """
    if not f.compressed:
        raise ValidationError("kernel evaluation needs a compressed realization")
    pts = as_points(z, f.num_vars)
    n, p = f.dim_u, f.dim_h
    if solve is None:
        solve = schur_solve(f, pts, pol)[1]
    elif np.shape(solve) != (len(pts), p, n):
        raise ShapeError(f"expected d(z)^-1 c(z) of shape {(len(pts), p, n)}, "
                         f"got {np.shape(solve)}")
    out = np.zeros((len(pts), n + p, n), dtype=complex)
    out[:, :n, :n] = np.eye(n)
    out[:, n:, :] = -solve
    return out[0] if np.asarray(z).ndim == 1 else out


class KernelEvaluator:
    """Kernels Phi_k and their Gram factors phi_k for one realization.

    The factor of the k-th kernel is phi_k(z) = S_k psi(z) where S_k is
    the rank-revealing PSD square root of A_k, so that
    Phi_k(z, zeta) = phi_k(zeta)* phi_k(z).
    """

    def __init__(self, f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY):
        if not f.compressed:
            raise ValidationError("kernel evaluation needs a compressed realization")
        self.f = f
        self.pol = pol
        self.factors = tuple(psd_sqrt(a, pol) for a in f.pencil.coeffs)

    @property
    def factor_ranks(self) -> tuple[int, ...]:
        return tuple(s.shape[0] for s in self.factors)

    def psi(self, z, solve=None) -> np.ndarray:
        return psi(self.f, z, self.pol, solve)

    def phi_factor(self, k: int, z) -> np.ndarray:
        """phi_k(z), an m_k x n matrix; batched over points."""
        ps = self.psi(z)
        return self.factors[k] @ ps

    def phi(self, k: int, z, zeta) -> np.ndarray:
        """Phi_k(z, zeta) = psi(zeta)* A_k psi(z)."""
        fz = self.phi_factor(k, z)
        fzeta = self.phi_factor(k, zeta)
        return np.swapaxes(fzeta, -1, -2).conj() @ fz

    def phi_table(self, grid, solve=None) -> list[np.ndarray]:
        """phi_k at every grid point, as one (g, m_k, n) array per k.

        ``solve`` is passed to ``psi``.
        """
        pts = as_points(grid, self.f.num_vars)
        ps = self.psi(pts, solve)
        return [s @ ps for s in self.factors]


def phi(f: RealizedFunction, k: int, z, zeta, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Phi_k(z, zeta) for the k-th variable (0-based k)."""
    return KernelEvaluator(f, pol).phi(k, z, zeta)


def _stacked_factors(pts, tables) -> tuple[np.ndarray, np.ndarray]:
    """phi = [phi_1; ...; phi_N] and z.phi (block k scaled by z_k) at every point."""
    phis = np.concatenate(tables, axis=1)
    weights = np.repeat(pts, [t.shape[1] for t in tables], axis=1)
    return phis, weights[:, :, None] * phis


def _identity_families(pts, tables, fvals):
    """x = [phi; I], y = [z.phi; -f] and the scale 1 + ||f(b)|| of the kernel identity.

    x(c)* y(b) = sum_k z_k(b) phi_k(c)* phi_k(b) - f(b) vanishes on every
    pair of grid points exactly when the identity holds.
    """
    phis, zphis = _stacked_factors(pts, tables)
    eye = np.broadcast_to(np.eye(fvals.shape[-1], dtype=complex), fvals.shape)
    return (np.concatenate([phis, eye], axis=1), np.concatenate([zphis, -fvals], axis=1),
            1.0 + np.linalg.norm(fvals, axis=(1, 2)))


def _identity_residual(pts, tables, fvals) -> float:
    """Max over (b, c) of ||sum_k z_k(b) phi_k(c)* phi_k(b) - f(b)|| / (1 + ||f(b)||)."""
    return cross_gram_residual(*_identity_families(pts, tables, fvals))


def kernel_identity_residual(f: RealizedFunction, grid,
                             pol: TolerancePolicy = DEFAULT_POLICY,
                             evaluator: KernelEvaluator | None = None,
                             f_values=None, solve=None) -> float:
    """Max over grid x grid of ||f(z) - sum_k z_k Phi_k(z, zeta)|| / (1+||f(z)||).

    ``f_values`` is f on the same grid when the caller already has it;
    f is then not evaluated again.  ``solve`` is d(z)^{-1} c(z) on the
    grid, passed to ``psi``; ``schur_solve`` gives both at once.
    """
    ev = evaluator or KernelEvaluator(f, pol)
    pts = as_points(grid, f.num_vars)
    if f_values is None:
        f_values = f(pts, pol)
    elif np.shape(f_values) != (len(pts), f.dim_u, f.dim_u):
        raise ShapeError(f"expected f values of shape {(len(pts),) + (f.dim_u,) * 2}, "
                         f"got {np.shape(f_values)}")
    return _identity_residual(pts, ev.phi_table(pts, solve), f_values)


def plus_minus_residuals(f: RealizedFunction, grid,
                         pol: TolerancePolicy = DEFAULT_POLICY,
                         evaluator: KernelEvaluator | None = None) -> tuple[float, float]:
    """Residuals of the two-point sum and difference identities.

    The plus identity expands f(z) + f(zeta)* over the kernels with
    weights z_k + conj(zeta_k); the minus identity uses z_k - conj(zeta_k).
    Together they are equivalent to the defining identity, and they are
    the Hermitian and skew-Hermitian parts of its two-point residual.
    """
    ev = evaluator or KernelEvaluator(f, pol)
    pts = as_points(grid, f.num_vars)
    return hermitian_split_residuals(*_identity_families(pts, ev.phi_table(pts), f(pts, pol)))


def block_gram(samples) -> np.ndarray:
    """Assemble the block Gram matrix G[nu, mu] = Phi(z_mu, z_nu).

    ``samples[mu][nu]`` holds Phi(z_mu, z_nu); the index order of the
    assembled Gram matches the quadratic-form positivity condition
    sum <Phi(z_mu, z_nu) u_mu, u_nu> >= 0.
    """
    m = len(samples)
    if m == 0:
        raise ShapeError("empty sample grid")
    blocks = [[as_matrix(samples[mu][nu], square=True) for mu in range(m)] for nu in range(m)]
    return np.block(blocks)


def check_psd_kernel(samples, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the block Gram of the sampled kernel is Hermitian PSD.

    ``samples`` is an m x m nested sequence with samples[mu][nu] =
    Phi(z_mu, z_nu).  A Gram that fails Hermitian symmetry beyond
    tolerance is not a PSD kernel sample and yields False.
    """
    g = block_gram(samples)
    if not is_hermitian(g, pol):
        return False
    w = eigh_or_refuse(hermitian_part(g))[0]
    return bool(w[0] >= -pol.psd_slack * scale_of(g))


def factor_kernel_samples(gram, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> list[np.ndarray]:
    """Columns-of-factor reconstruction of a PSD block Gram.

    Returns factors phi(z_j) of minimal rank with
    phi(z_nu)* phi(z_mu) equal to the (nu, mu) block of the Gram.
    """
    g = as_matrix(gram, square=True)
    if n <= 0 or g.shape[0] % n:
        raise ShapeError("Gram size must be a multiple of the block dimension")
    try:
        s = psd_sqrt(g, pol)
    except ValidationError as exc:
        raise ValidationError(f"indefinite kernel Gram: {exc}") from exc
    return [s[:, j * n:(j + 1) * n] for j in range(g.shape[0] // n)]


@dataclass(frozen=True)
class KernelSampleSet:
    """Sampled kernel data: grid, per-variable factors, function values.

    grid:       (g, N) complex points in the open right polyhalfplane,
                containing the base point e = (1, ..., 1)
    factors:    per variable k an (g, m_k, n) array of phi_k samples
    f_samples:  (g, n, n) function values
    """

    grid: np.ndarray
    factors: tuple
    f_samples: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=complex)
        fs = np.asarray(self.f_samples, dtype=complex)
        if grid.ndim != 2:
            raise ShapeError("grid must be a (g, N) array")
        g = len(grid)
        if fs.shape[0] != g or fs.ndim != 3 or fs.shape[1] != fs.shape[2]:
            raise ShapeError("f_samples must be a (g, n, n) array")
        if len(self.factors) != grid.shape[1]:
            raise ShapeError("one factor table per variable required")
        n = fs.shape[1]
        factors = tuple(np.asarray(t, dtype=complex) for t in self.factors)
        for t in factors:
            if t.ndim != 3 or t.shape[0] != g or t.shape[2] != n:
                raise ShapeError("factor tables must have shape (g, m_k, n)")
        if not all(np.isfinite(a).all() for a in (grid, fs, *factors)):
            raise ValidationError("kernel samples contain NaN or Inf entries")
        # + 0.0 turns -0.0 into +0.0, so points equal up to a signed zero
        # collide; asking for counts keeps np.unique from importing numpy.ma
        # (10 ms on its first call)
        counts = np.unique(np.round(grid, 12) + 0.0, axis=0, return_counts=True)[1]
        if np.any(counts > 1):
            raise ValidationError("grid points must be pairwise distinct")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "f_samples", fs)

    @property
    def num_vars(self) -> int:
        return self.grid.shape[1]

    @property
    def dim_u(self) -> int:
        return self.f_samples.shape[1]

    def base_index(self) -> int:
        hits = np.nonzero(np.all(np.abs(self.grid - 1.0) < 1e-12, axis=1))[0]
        if len(hits) == 0:
            raise ValidationError("sample grid must contain the base point e = (1, ..., 1)")
        return int(hits[0])

    def stacked_factor(self, j: int) -> np.ndarray:
        """phi(z_j): all per-variable factors stacked into one column block."""
        return np.vstack([tab[j] for tab in self.factors])

    def identity_residual(self) -> float:
        """Residual of f(z) = sum_k z_k phi_k(zeta)* phi_k(z) over grid x grid."""
        return _identity_residual(self.grid, self.factors, self.f_samples)


def sample_kernels(f: RealizedFunction, grid, pol: TolerancePolicy = DEFAULT_POLICY) -> KernelSampleSet:
    """Sample factored kernels and function values of a realization."""
    ev = KernelEvaluator(f, pol)
    pts = as_points(grid, f.num_vars)
    return KernelSampleSet(pts, tuple(ev.phi_table(pts)), f(pts, pol))


def pencil_from_kernel_samples(ks: KernelSampleSet,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Rebuild a PSD pencil realization from sampled kernel factors.

    Finite version of the kernel-to-pencil construction: with
    phi(z) the stacked factor columns and e the base point, the span of
    {phi(e) u} and the span over the grid of {(phi(zeta) - phi(e)) u}
    are orthogonal; the coefficients are

        A_k = V* P_k V,   V = [phi(e), Q_H],

    with P_k the coordinate projector onto the k-th factor block and
    Q_H the leading left singular vectors of the stacked differences, an
    orthonormal basis of their span: the rank counts the singular values
    above psd_slack max(sigma_1, scale of phi(e)).  The result
    interpolates the samples at every grid point, and reproduces the
    generating function off-grid once the grid saturates the difference
    span.
    """
    res = ks.identity_residual()
    if not res <= pol.residual_tol:  # a NaN residual fails too
        raise ValidationError(
            f"kernel identity violated on input samples (residual {res:.3e})")
    base = ks.base_index()
    n = ks.dim_u
    phi_e = ks.stacked_factor(base)
    diffs = [ks.stacked_factor(j) - phi_e for j in range(len(ks.grid)) if j != base]
    if diffs:
        stacked = np.hstack(diffs)
        q, sing, _ = np.linalg.svd(stacked, full_matrices=False)
        # floor at the factor scale so all-roundoff difference columns
        # (constant psi, e.g. one variable) do not fake rank
        floor = pol.psd_slack * max(sing.max(initial=0.0), scale_of(phi_e))
        rank = int(np.sum(sing > floor))
        qh = q[:, :rank]
    else:
        qh = np.zeros((phi_e.shape[0], 0), dtype=complex)
    v = np.hstack([phi_e, qh])

    ranks = [tab.shape[1] for tab in ks.factors]
    offsets = np.concatenate([[0], np.cumsum(ranks)])
    coeffs = []
    for k in range(ks.num_vars):
        vk = v[offsets[k]:offsets[k + 1]]
        coeffs.append(vk.conj().T @ vk)
    pencil = PsdPencil(ks.num_vars, n, qh.shape[1], tuple(coeffs), validated=True)
    rebuilt = RealizedFunction(pencil, compressed=True)

    vals = rebuilt(ks.grid, pol)
    num = np.linalg.norm(vals - ks.f_samples, axis=(1, 2))
    den = 1.0 + np.linalg.norm(ks.f_samples, axis=(1, 2))
    worst = float(np.max(num / den))
    if not worst <= pol.residual_tol:
        # valid input data that the sampled spans cannot realize faithfully
        # (rank collapse in the embedding)
        raise NumericalRefusalError(
            f"reconstruction failed to interpolate the samples (residual {worst:.3e})")
    return rebuilt


def factor_orthogonality_residual(ks: KernelSampleSet) -> float:
    """Residual of sum_k (phi_k(zeta) - phi_k(e))* phi_k(e) = 0 over the grid."""
    base = ks.base_index()
    phi_e = ks.stacked_factor(base)
    worst = 0.0
    for j in range(len(ks.grid)):
        d = ks.stacked_factor(j) - phi_e
        worst = max(worst, float(np.linalg.norm(d.conj().T @ phi_e)))
    return worst / scale_of(phi_e)
