"""Kernel decompositions of realized functions.

Every realized function satisfies f(z) = sum_k z_k Phi_k(z, zeta) for
the PSD kernels Phi_k(z, zeta) = psi(zeta)* A_k psi(z), where
psi(z) = [I ; -d(z)^{-1} c(z)].  This module produces the kernels and
their Gram factors analytically from a pencil, verifies the defining
identities on grids, certifies sampled kernels, and rebuilds a pencil
from kernel samples through the embedding of the sampled factor spans.

f and psi share the solve d(z)^{-1} c(z), so sampling a grid is one
``pencil.schur_solve``: ``KernelEvaluator.phi_table`` returns f and every
phi_k on the grid as one ``KernelSampleSet``, and each grid residual here
reads that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    as_points,
    column_bound,
    factor_rows,
    family_r,
    hermitian_split_residuals,
    like_points,
    psd_spectrum,
    psd_sqrt,
    relative_residual,
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
    "kernel_identity_residual",
    "plus_minus_residuals",
    "check_psd_kernel",
    "sample_kernels",
    "rebuild_factor",
    "pencil_from_kernel_samples",
]


def _f_and_psi(f: RealizedFunction, pts: np.ndarray,
               pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """f and [I ; -X] at a batch of points, from the one solve X = d(z)^{-1} c(z)."""
    vals, solve = schur_solve(f, pts, pol)
    n, p = f.dim_u, f.dim_h
    out = np.zeros((len(pts), n + p, n), dtype=complex)
    out[:, :n, :n] = np.eye(n)
    out[:, n:, :] = -solve
    return vals, out


def psi(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """The (n+p) x n column [I ; -d(z)^{-1} c(z)]; batched over points.

    Refused by the d(z) guard of ``pencil.schur_solve`` where d(z) is
    numerically singular, as at every z for an uncompressed degenerate H.
    """
    return like_points(z, _f_and_psi(f, as_points(z, f.num_vars), pol)[1])


class KernelEvaluator:
    """Kernels Phi_k and their Gram factors phi_k for one realization.

    The factor of the k-th kernel is phi_k(z) = S_k psi(z) where S_k is
    the rank-revealing PSD square root of A_k, so that
    Phi_k(z, zeta) = phi_k(zeta)* phi_k(z).  The factors S_k need no
    solve; every value at a point goes through the d(z) guard of ``psi``.
    """

    def __init__(self, f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY):
        self.f = f
        self.pol = pol
        self.factors = tuple(psd_sqrt(a, pol) for a in f.pencil.coeffs)

    def phi_factor(self, k: int, z) -> np.ndarray:
        """phi_k(z), an m_k x n matrix; batched over points."""
        return self.factors[k] @ psi(self.f, z, self.pol)

    def phi(self, k: int, z, zeta) -> np.ndarray:
        """Phi_k(z, zeta) = psi(zeta)* A_k psi(z)."""
        fz = self.phi_factor(k, z)
        fzeta = self.phi_factor(k, zeta)
        return np.swapaxes(fzeta, -1, -2).conj() @ fz

    def phi_table(self, grid) -> KernelSampleSet:
        """f and every phi_k on a grid, from one d(z) solve.

        ``factors[k]`` of the result is the (g, m_k, n) table of phi_k and
        ``f_samples`` holds f; one ``schur_solve`` gives f and psi.
        """
        pts = as_points(grid, self.f.num_vars)
        vals, ps = _f_and_psi(self.f, pts, self.pol)
        return KernelSampleSet(pts, tuple(s @ ps for s in self.factors), vals)


def _identity_families(ks: KernelSampleSet):
    """The kernel identity's families x = [phi; I], y = [z.phi; -f] and scale 1 + ||f(b)||.

    phi = [phi_1; ...; phi_N] and z.phi scales block k by z_k; then
    x(c)* y(b) = sum_k z_k(b) phi_k(c)* phi_k(b) - f(b) vanishes on every
    pair of grid points exactly when the identity holds.  The families
    come in the (g, n, M) row layout of ``core.factor_rows``,
    x* = [phi*, I] and y^T = [(z.phi)^T, -f^T], each finished in place.
    Both live in one (2, g, n, M) allocation: glibc raises its mmap
    threshold to the largest mapped block freed, so one block of this
    size keeps a pass's other large buffers on the heap; two halves freed
    apart cost about 2,300 more page faults (fresh zeroed pages) in a
    kernels pass on a (3, 4, 16) pencil at g = 300.
    """
    fvals = ks.f_samples
    g, n = fvals.shape[:2]
    m = sum(t.shape[1] for t in ks.factors)
    rows = np.empty((2, g, n, m + n), dtype=complex)
    x_adj = factor_rows(ks.factors, None, np.broadcast_to(np.eye(n), (g, n, n)), out=rows[0])
    np.conjugate(x_adj[:, :, :m], out=x_adj[:, :, :m])
    y_rows = factor_rows(ks.factors, ks.grid, fvals.transpose(0, 2, 1), out=rows[1])
    np.negative(y_rows[:, :, m:], out=y_rows[:, :, m:])
    return x_adj, y_rows, 1.0 + np.linalg.norm(fvals, axis=(1, 2))


def kernel_identity_residual(f: RealizedFunction, grid,
                             pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Max over grid x grid of ||f(z) - sum_k z_k Phi_k(z, zeta)|| / (1+||f(z)||).

    This is ``sample_kernels(f, grid, pol).identity_residual()``, read off
    the gate directly: perfbench/tracer.py counts the dense-tensor bytes
    of each two-point span, so a nested ``identity_residual`` span would
    count this residual twice.
    """
    return sample_kernels(f, grid, pol).identity_gate[0]


def plus_minus_residuals(f: RealizedFunction, grid,
                         pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Residuals of the two-point sum and difference identities.

    The plus identity expands f(z) + f(zeta)* over the kernels with
    weights z_k + conj(zeta_k); the minus identity uses z_k - conj(zeta_k).
    Together they are equivalent to the defining identity, and they are
    the Hermitian and skew-Hermitian parts of its two-point residual.
    """
    return hermitian_split_residuals(*_identity_families(KernelEvaluator(f, pol).phi_table(grid)))


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
    spec = psd_spectrum(block_gram(samples), pol)
    return spec.hermitian and spec.ok


@dataclass(frozen=True)
class KernelSampleSet:
    """Sampled kernel data: grid, per-variable factors, function values.

    grid:       (g, N) complex points in the open right polyhalfplane,
                containing the base point e = (1, ..., 1)
    factors:    per variable k an (g, m_k, n) array of phi_k samples
    f_samples:  (g, n, n) function values

    The set is frozen and no library code writes its arrays after
    construction, so ``identity_gate`` is formed at most once per set.
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

    def identity_residual(self) -> float:
        """Residual of f(z) = sum_k z_k phi_k(zeta)* phi_k(z) over grid x grid."""
        return self.identity_gate[0]

    @cached_property
    def identity_gate(self) -> tuple[float, np.ndarray]:
        """The kernel identity's residual and R, the TSQR factor of its x(c)* (``core.family_r``).

        The residual is ``core.column_bound`` over R.  It is formed on the
        first read and kept: the rebuild, the colligation synthesis and
        ``verify``'s kernel-identity row all read this one pair.  The
        families are freed on return, so the set holds R alone beside its
        samples (M x M at most).
        """
        x_adj, y_rows, scale = _identity_families(self)
        r = family_r(x_adj)
        return column_bound(r, y_rows, scale), r


def sample_kernels(f: RealizedFunction, grid, pol: TolerancePolicy = DEFAULT_POLICY) -> KernelSampleSet:
    """Sample factored kernels and function values of a realization."""
    return KernelEvaluator(f, pol).phi_table(grid)


def rebuild_factor(ks: KernelSampleSet, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """The rebuild's factor v = [phi(e), Q_H] (m x (n + p')), read from the kernel identity's R.

    The gate is ``ks.identity_gate``, (residual, R), formed once per
    set; samples whose residual exceeds residual_tol are refused.  Row
    block k of v has the m_k rows of phi_k.  phi(e) is the stacked
    factor at the base point e and Q_H the leading left singular vectors
    of the stacked differences D = [phi(b) - phi(e)]_b, an orthonormal
    basis of their span: the rank counts the singular values above
    psd_slack max(sigma_1, scale of phi(e)).  On data that satisfy the
    identity phi(e) is orthogonal to that span (the identity at (c, e)
    and at (e, e) gives (phi(c) - phi(e))* phi(e) = f(e) - f(e) = 0).

    The span is read from R.  With R the TSQR factor of the stack X of
    the x(c)* = [phi(c)*, I] and T = [I_m; -phi(e)*], row block c of X T
    is phi(c)* - phi(e)*, so D* = X T up to its zero block at c = e, and
    X = Q R gives D = (R T)* Q*.  Q has orthonormal columns, so the SVD
    (R T)* = W S V* yields D = W S (Q V)*: the left singular vectors and
    singular values of D are those of the small m x min(g n, M) matrix
    (R T)*.  A single point gives R T = 0 up to roundoff, hence rank 0.

    Roundoff: R is exact for X + dX with ||dX||_F <= c eps ||X||_F, so
    the differences read from R carry errors of order eps ||x(c)||
    rather than eps ||phi(c) - phi(e)||.
    """
    res, r = ks.identity_gate
    if not res <= pol.residual_tol:  # a NaN residual fails too
        raise ValidationError(
            f"kernel identity violated on input samples (residual {res:.3e})")
    base = ks.base_index()
    phi_e = np.concatenate([t[base] for t in ks.factors])
    m = len(phi_e)
    q, sing, _ = np.linalg.svd((r[:, :m] - r[:, m:] @ phi_e.conj().T).conj().T, full_matrices=False)
    # floor at the factor scale so all-roundoff difference columns
    # (constant psi, e.g. one variable, or a single point) do not fake rank
    floor = pol.psd_slack * max(sing.max(initial=0.0), scale_of(phi_e))
    return np.hstack([phi_e, q[:, :int(np.sum(sing > floor))]])


def pencil_from_kernel_samples(ks: KernelSampleSet,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Rebuild a PSD pencil realization from sampled kernel factors.

    Finite version of the kernel-to-pencil construction: with
    phi(z) the stacked factor columns and e the base point, the span of
    {phi(e) u} and the span over the grid of {(phi(zeta) - phi(e)) u}
    are orthogonal; the coefficients are

        A_k = v_k* v_k,   v = [phi(e), Q_H],

    with v_k the k-th factor block of ``rebuild_factor`` and Q_H an
    orthonormal basis of the difference span.  The result interpolates
    the samples at every grid point, and reproduces the generating
    function off-grid once the grid saturates the difference span.

    One factorization serves the gate and the span: ``rebuild_factor``
    reads the span from the set's ``identity_gate``, so only R is held
    beside the samples; the interpolation residual reads about 4e-15 on
    the kernels benchmark's pencils.
    """
    v = rebuild_factor(ks, pol)
    offsets = np.cumsum([0] + [t.shape[1] for t in ks.factors])
    coeffs = tuple(v[lo:hi].conj().T @ v[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:]))
    rebuilt = RealizedFunction(PsdPencil(ks.num_vars, ks.dim_u, v.shape[1] - ks.dim_u, coeffs))

    worst = relative_residual(rebuilt(ks.grid, pol), ks.f_samples)
    if not worst <= pol.residual_tol:
        # valid input data that the sampled spans cannot realize faithfully
        # (rank collapse in the embedding)
        raise NumericalRefusalError(
            f"reconstruction failed to interpolate the samples (residual {worst:.3e})")
    return rebuilt
