"""PSD linear pencils and their Schur-complement realizations.

The central object: a pencil ``A(z) = z_1 A_1 + ... + z_N A_N`` of
Hermitian PSD coefficients on a block-partitioned space U (+) H, whose
Schur complement

    f(z) = a(z) - b(z) d(z)^{-1} c(z)

is a homogeneous degree-one positive-real function.  This module
evaluates f (Schur form and the long-resolvent cross-check), compresses
degenerate H directions, and composes realizations.
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
    argument_arc,
    as_matrix,
    as_points,
    hermitian_part,
    eigh_or_refuse,
    is_hermitian,
    is_psd,
    scale_of,
)

__all__ = [
    "PsdPencil",
    "RealizedFunction",
    "eval_pencil",
    "compress",
    "eval_schur",
    "schur_solve",
    "d_condition_bound",
    "eval_long_resolvent",
    "sum_realization",
    "diagonal_realization",
    "realize",
]


@dataclass(frozen=True)
class PsdPencil:
    """N Hermitian PSD coefficients of dimension (n+p) on U (+) H.

    The block partition at index ``dim_u`` defines a_k, b_k, c_k, d_k
    with c_k = b_k* forced by Hermitian symmetry.  There is no constant
    coefficient; the pencil is homogeneous by construction.
    """

    num_vars: int
    dim_u: int
    dim_h: int
    coeffs: tuple
    validated: bool = True

    @classmethod
    def from_coeffs(cls, coeffs, dim_u: int, pol: TolerancePolicy = DEFAULT_POLICY,
                    validate: bool = True) -> "PsdPencil":
        """Build a pencil, certifying every coefficient Hermitian PSD.

        ``validate=False`` produces the explicit unchecked variant used
        only by search harnesses for deliberately invalid candidates.
        """
        mats = tuple(as_matrix(c, square=True) for c in coeffs)
        if not mats:
            raise ValidationError("a pencil needs at least one coefficient")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ShapeError("all pencil coefficients must share one dimension")
        if not 0 <= dim_u <= dim:
            raise ShapeError(f"dim_u={dim_u} outside [0, {dim}]")
        if validate:
            for k, m in enumerate(mats):
                if not is_hermitian(m, pol):
                    raise ValidationError(f"coefficient {k + 1} is not Hermitian")
                rep = is_psd(m, pol)
                if not rep.ok:
                    raise ValidationError(
                        f"coefficient {k + 1} is not PSD (min eigenvalue {rep.min_eig:.3e})")
            mats = tuple(hermitian_part(m) for m in mats)
        return cls(len(mats), dim_u, dim - dim_u, mats, validated=validate)

    @property
    def dim(self) -> int:
        return self.dim_u + self.dim_h

    def coeff_blocks(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a_k, b_k, c_k, d_k) of the k-th coefficient (0-based k)."""
        n = self.dim_u
        m = self.coeffs[k]
        return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]

    def stacked(self) -> np.ndarray:
        return np.stack(self.coeffs)


def eval_pencil(pencil: PsdPencil, z) -> np.ndarray:
    """A(z) = sum_k z_k A_k; batched over points."""
    pts = as_points(z, pencil.num_vars)
    out = np.tensordot(pts, pencil.stacked(), axes=(1, 0))
    return out[0] if np.asarray(z).ndim == 1 else out


@dataclass(frozen=True)
class RealizedFunction:
    """A pencil together with the compression state of its H block.

    After compression the summed d-blocks are positive definite, so
    d(z) is invertible on every rotated polyhalfplane and the Schur
    complement is defined on the whole evaluation domain.
    """

    pencil: PsdPencil
    compressed: bool = False

    @property
    def num_vars(self) -> int:
        return self.pencil.num_vars

    @property
    def dim_u(self) -> int:
        return self.pencil.dim_u

    @property
    def dim_h(self) -> int:
        return self.pencil.dim_h

    def __call__(self, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
        return eval_schur(self, z, pol)

    @cached_property
    def _d_bound_constants(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Point-independent part of ``d_condition_bound``, computed once per realization.

        (lambda_min(sum_k Re d_k), per-k norm bounds, per-k negative
        eigenvalue parts, per-k skew Frobenius norms); see that function.
        """
        n = self.dim_u
        ds = [m[n:, n:] for m in self.pencil.coeffs]
        herm = [hermitian_part(d) for d in ds]
        eigs = [eigh_or_refuse(h)[0] for h in herm]
        lam = float(eigh_or_refuse(sum(herm))[0][0])
        skew = np.array([np.linalg.norm(d - h) for d, h in zip(ds, herm)])
        norms = np.array([max(-w[0], w[-1]) for w in eigs]) + skew
        neg = np.array([max(-w[0], 0.0) for w in eigs])
        return lam, norms, neg, skew


def realize(coeffs, dim_u: int, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Validate coefficients and return the compressed realization."""
    return compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, dim_u, pol)), pol)


def compress(pencil: PsdPencil, pol: TolerancePolicy = DEFAULT_POLICY) -> PsdPencil:
    """Drop the common kernel of the d-blocks from H.

    Because each coefficient is PSD, ker d_k is contained in ker b_k,
    so removing ker(sum_k d_k) leaves the Schur complement unchanged
    while making sum_k d_k positive definite.  No-op when already
    compressed.
    """
    n, p = pencil.dim_u, pencil.dim_h
    if p == 0:
        return pencil
    dsum = hermitian_part(sum(pencil.coeffs)[n:, n:])
    w, v = eigh_or_refuse(dsum)
    keep = w > pol.psd_slack * scale_of(dsum)
    if np.all(keep):
        return pencil
    basis = v[:, keep]
    t = np.zeros((n + p, n + basis.shape[1]), dtype=complex)
    t[:n, :n] = np.eye(n)
    t[n:, n:] = basis
    coeffs = tuple(t.conj().T @ m @ t for m in pencil.coeffs)
    return PsdPencil(pencil.num_vars, n, basis.shape[1], coeffs, validated=pencil.validated)


def compress_realization(f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    return RealizedFunction(compress(f.pencil, pol), compressed=True)


def _blocks_at(f: RealizedFunction, pts: np.ndarray):
    """a(z), b(z), c(z), d(z) stacked over a batch of points."""
    n = f.dim_u
    az = np.tensordot(pts, f.pencil.stacked(), axes=(1, 0))
    return az[:, :n, :n], az[:, :n, n:], az[:, n:, :n], az[:, n:, n:]


def _refuse_ill_conditioned(mats: np.ndarray, pol: TolerancePolicy, what: str,
                            bound=None) -> None:
    """Refuse a stack of square matrices if any is numerically singular.

    The decision is the computed condition number: a matrix is refused
    when ``np.linalg.cond`` exceeds 1/psd_slack (or is not finite).
    ``bound`` optionally gives a certified upper bound on each matrix's
    condition number (+inf where nothing is proven).  A matrix whose
    bound, padded for roundoff, is at most 1/(2 psd_slack) is accepted
    without the estimate: its condition number is at most half the
    refusal threshold, and the pad plus the factor 2 absorb the
    roundoff in forming the matrix and the bound.  Every other matrix
    goes through ``np.linalg.cond`` exactly as without a bound.  A
    bound may only skip the estimate, never loosen the decision, and a
    refused matrix (condition above 1/psd_slack) is never one that the
    bound accepted, so the worst condition reported is unchanged.
    """
    if mats.shape[-1] == 0:
        return
    limit = 1.0 / pol.psd_slack
    if bound is not None:
        b = np.minimum(np.asarray(bound, dtype=float), limit)
        proven = b * (1.0 + 16.0 * mats.shape[-1] * np.finfo(float).eps * b) <= 0.5 * limit
        if np.all(proven):
            return
        mats = mats[~proven]
    conds = np.linalg.cond(mats)
    worst = float(np.max(conds))
    if not np.isfinite(worst) or worst > limit:
        raise NumericalRefusalError(
            f"{what} is numerically singular (condition {worst:.3e}); "
            "boundary or outside-domain evaluation")


def d_condition_bound(f: RealizedFunction, z) -> np.ndarray:
    """Certified upper bound on cond d(z) at each point; +inf where none is proven.

    With theta the midpoint of the shortest arc holding the arguments of
    z and mu = min_k Re(exp(-i theta) z_k), every unit vector x gives
    |x* d(z) x| >= Re(exp(-i theta) x* d(z) x) >= mu x* (sum_k d_k) x for
    PSD d_k, so sigma_min d(z) >= mu lambda_min(sum_k d_k), while
    ||d(z)|| <= sum_k |z_k| ||d_k||.  Hence

        cond d(z) <= sum_k |z_k| ||d_k|| / (mu lambda_min(sum_k d_k)),

    on every rotated polyhalfplane.  Coefficients that are not exactly
    Hermitian PSD (unchecked pencils, roundoff after compression) are
    covered by subtracting (Re(exp(-i theta) z_k) - mu) times their most
    negative eigenvalue and |z_k| times the Frobenius norm of their skew
    part from the denominator.  The bound is +inf when mu <= 0 (off the
    domain) or the denominator is not positive.
    """
    pts = as_points(z, f.num_vars)
    if f.dim_h == 0:
        return np.ones(len(pts))
    lam, norms, neg, skew = f._d_bound_constants

    start, gap = argument_arc(pts)
    theta = start + (np.pi - gap / 2.0)
    re = (np.exp(-1j * theta)[:, None] * pts).real  # (B, N)
    mu = np.min(re, axis=1)
    mags = np.abs(pts)
    num = mags @ norms
    den = mu * lam - (re - mu[:, None]) @ neg - mags @ skew
    out = np.full(len(pts), np.inf)
    ok = (mu > 0) & (den > 0)
    out[ok] = num[ok] / den[ok]
    return out


def eval_schur(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """f(z) = a(z) - b(z) d(z)^{-1} c(z); batched over points.

    The value comes from ``schur_solve``, whose guard refuses (never
    regularizes) boundary evaluations.
    """
    out = schur_solve(f, z, pol)[0]
    return out[0] if np.asarray(z).ndim == 1 else out


def schur_solve(f: RealizedFunction, z,
                pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """f(z) (B, n, n) and d(z)^{-1} c(z) (B, p, n) on a batch of points, from one d(z) solve.

    The one implementation of the d(z) solve: ``eval_schur`` returns the
    first part and ``kernels.psi`` builds [I ; -d(z)^{-1} c(z)] from the
    second, so a caller that needs both solves d(z) once.

    d(z) is inverted by LU with partial pivoting; evaluation is refused
    (never regularized) when the condition of d(z) exceeds 1/psd_slack,
    so boundary evaluations stay detectable.  The guard first tries the
    certificate of ``d_condition_bound`` (proof: on a rotated
    polyhalfplane Re(exp(-i theta) d(z)) dominates mu(z) sum_k d_k, which
    bounds sigma_min d(z) from below); points it does not clear fall
    back to the computed condition number, so the decision is the same.
    """
    if not f.compressed:
        raise ValidationError("realization must be compressed before Schur evaluation")
    pts = as_points(z, f.num_vars)
    a, b, c, d = _blocks_at(f, pts)
    if f.dim_h == 0:
        return a, c
    _refuse_ill_conditioned(d, pol, "d(z)", bound=d_condition_bound(f, pts))
    sol = np.linalg.solve(d, c)
    return a - b @ sol, sol


def eval_long_resolvent(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """f(z) recovered as the inverse of the U-corner of A(z)^{-1}.

    Must agree with ``eval_schur`` wherever both are defined; requires
    A(z) and the corner itself to be invertible, otherwise refuses
    (f(z) can be non-invertible while the Schur form is still valid).
    """
    pts = as_points(z, f.num_vars)
    n = f.dim_u
    az = np.tensordot(pts, f.pencil.stacked(), axes=(1, 0))
    _refuse_ill_conditioned(az, pol, "A(z)")
    corner = np.linalg.inv(az)[:, :n, :n]
    _refuse_ill_conditioned(corner, pol, "the U-corner of A(z)^{-1}")
    out = np.linalg.inv(corner)
    return out[0] if np.asarray(z).ndim == 1 else out


def sum_realization(f1: RealizedFunction, f2: RealizedFunction,
                    pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Realization of f1 + f2 on U (+) (H1 (+) H2) (series connection).

    Each new coefficient is the sum of two PSD embeddings of the old
    ones, so the PSD invariant is preserved by construction.
    """
    if f1.num_vars != f2.num_vars:
        raise ShapeError("summands must share the number of variables")
    if f1.dim_u != f2.dim_u:
        raise ShapeError("summands must share the U dimension")
    n, p1, p2 = f1.dim_u, f1.dim_h, f2.dim_h
    dim = n + p1 + p2
    coeffs = []
    for k in range(f1.num_vars):
        a1, b1, c1, d1 = f1.pencil.coeff_blocks(k)
        a2, b2, c2, d2 = f2.pencil.coeff_blocks(k)
        m = np.zeros((dim, dim), dtype=complex)
        m[:n, :n] = a1 + a2
        m[:n, n:n + p1] = b1
        m[:n, n + p1:] = b2
        m[n:n + p1, :n] = c1
        m[n + p1:, :n] = c2
        m[n:n + p1, n:n + p1] = d1
        m[n + p1:, n + p1:] = d2
        coeffs.append(m)
    pencil = PsdPencil(f1.num_vars, n, p1 + p2, tuple(coeffs),
                       validated=f1.pencil.validated and f2.pencil.validated)
    return RealizedFunction(pencil, compressed=f1.compressed and f2.compressed)


def diagonal_realization(coeffs, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """p = 0 realization of sum_k z_k E_k from PSD coefficients E_k on U."""
    mats = [as_matrix(e, square=True) for e in coeffs]
    n = mats[0].shape[0]
    pencil = PsdPencil.from_coeffs(mats, n, pol)
    return RealizedFunction(pencil, compressed=True)


def ldu_factor_residual(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Residual of the block LDU identity behind the long resolvent form.

    Assembling [[I, -b d^{-1}], [0, I]] A(z) [[I, 0], [-d^{-1} c, I]]
    must reproduce diag(f(z), d(z)).
    """
    pts = as_points(z, f.num_vars)
    n, p = f.dim_u, f.dim_h
    if p == 0:
        return 0.0
    a, b, c, d = _blocks_at(f, pts)
    az = np.tensordot(pts, f.pencil.stacked(), axes=(1, 0))
    _refuse_ill_conditioned(d, pol, "d(z)", bound=d_condition_bound(f, pts))
    dinv_c = np.linalg.solve(d, c)
    b_dinv = np.linalg.solve(d.conj().transpose(0, 2, 1), b.conj().transpose(0, 2, 1))
    b_dinv = b_dinv.conj().transpose(0, 2, 1)
    eye = np.broadcast_to(np.eye(n + p, dtype=complex), az.shape).copy()
    left = eye.copy()
    left[:, :n, n:] = -b_dinv
    right = eye.copy()
    right[:, n:, :n] = -dinv_c
    formed = left @ az @ right
    target = np.zeros_like(az)
    target[:, :n, :n] = a - b @ dinv_c
    target[:, n:, n:] = d
    num = np.linalg.norm(formed - target, axis=(1, 2))
    den = 1.0 + np.linalg.norm(target, axis=(1, 2))
    return float(np.max(num / den))
