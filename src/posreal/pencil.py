"""PSD linear pencils and their Schur-complement realizations.

The central object: a pencil ``A(z) = z_1 A_1 + ... + z_N A_N`` of
Hermitian PSD coefficients on a block-partitioned space U (+) H, whose
Schur complement

    f(z) = a(z) - b(z) d(z)^{-1} c(z)

is a homogeneous degree-one positive-real function.  This module
evaluates f (Schur form and the long-resolvent cross-check), compresses
degenerate H directions, and composes realizations.  A realization is
its pencil: compression is a normalization, not a precondition, since a
degenerate H leaves f unchanged and makes d(z) singular at every z,
which the guard refuses.

It also holds the library's one guarded solve, ``guarded_solve``: every
resolvent of the package (d(z), d(R), F + I, I - S, M(w), I - A P(w),
A(z) and its U-corner) is solved there, behind the one conditioning
guard, which refuses a numerically singular matrix instead of
regularizing it.
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
    like_points,
    hermitian_part,
    eigvalsh_or_refuse,
    point_blocks,
    psd_spectrum,
)

__all__ = [
    "PsdPencil",
    "PencilBound",
    "RealizedFunction",
    "as_evaluator",
    "eval_pencil",
    "compress",
    "eval_schur",
    "schur_solve",
    "guarded_solve",
    "d_condition_bound",
    "d_tuple_condition_bound",
    "eval_long_resolvent",
    "sum_realization",
    "realize",
    "MAX_COEFF_ENTRY",
]

# Largest entry magnitude a pencil coefficient may have.  Evaluation
# squares entries (Grams, norms, kernel products) and multiplies them by
# grid coordinates.  Random (2, 1, 2), (3, 2, 4) and (3, 4, 32) pencils run
# verify, kernels (grid 20 and 300) and colligate without overflow up to a
# largest entry of 1e153.  Overflow first shows at 3e153 (the two larger
# shapes) or 1e154, and the residuals then come out silently wrong (0,
# then NaN).  The cap leaves 53 orders of magnitude below that onset.
MAX_COEFF_ENTRY = 1e100


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

    @classmethod
    def from_coeffs(cls, coeffs, dim_u: int, pol: TolerancePolicy = DEFAULT_POLICY,
                    validate: bool = True) -> "PsdPencil":
        """Build a pencil, certifying every coefficient Hermitian PSD.

        ``validate=False`` produces the explicit unchecked variant used
        only by search harnesses for deliberately invalid candidates.
        Either way an entry of magnitude above ``MAX_COEFF_ENTRY`` is
        refused.
        """
        mats = tuple(as_matrix(c, square=True) for c in coeffs)
        if not mats:
            raise ValidationError("a pencil needs at least one coefficient")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ShapeError("all pencil coefficients must share one dimension")
        if not 0 <= dim_u <= dim:
            raise ShapeError(f"dim_u={dim_u} outside [0, {dim}]")
        with np.errstate(over="ignore"):  # |re + i im| of huge parts is inf, and refused
            for k, m in enumerate(mats):
                big = float(np.max(np.abs(m), initial=0.0))
                if big > MAX_COEFF_ENTRY:
                    raise ValidationError(f"coefficient {k + 1} has an entry of magnitude "
                                          f"{big:.3e} above {MAX_COEFF_ENTRY:.0e}")
        if validate:
            for k, m in enumerate(mats):
                spec = psd_spectrum(m, pol)
                if not spec.hermitian:
                    raise ValidationError(f"coefficient {k + 1} is not Hermitian")
                if not spec.ok:
                    raise ValidationError(
                        f"coefficient {k + 1} is not PSD (min eigenvalue {spec.min_eig:.3e})")
            mats = tuple(hermitian_part(m) for m in mats)
        return cls(len(mats), dim_u, dim - dim_u, mats)

    @property
    def dim(self) -> int:
        return self.dim_u + self.dim_h

    def coeff_blocks(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(a_k, b_k, c_k, d_k) of the k-th coefficient (0-based k)."""
        n = self.dim_u
        m = self.coeffs[k]
        return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]

    @cached_property
    def stacked(self) -> np.ndarray:
        """The (N, dim, dim) coefficient stack, formed once and read-only."""
        stack = np.stack(self.coeffs)
        stack.flags.writeable = False
        return stack


def eval_pencil(pencil: PsdPencil, z) -> np.ndarray:
    """A(z) = sum_k z_k A_k; batched over points."""
    return like_points(z, _assemble(pencil, as_points(z, pencil.num_vars)))


def _assemble(pencil: PsdPencil, pts: np.ndarray) -> np.ndarray:
    """A(z) at validated (B, N) points: the one (B, N) x (N, dim^2) product of ``np.tensordot``."""
    flat = np.dot(pts, pencil.stacked.reshape(pencil.num_vars, -1))
    return flat.reshape(len(pts), pencil.dim, pencil.dim)


@dataclass(frozen=True)
class PencilBound:
    """Certified condition bounds for sums L = sum_j P_j (x) C_j over one stack P_1, ..., P_K.

    ``of`` computes once: ``lam`` = lambda_min(sum_j H_j) for the Hermitian
    parts H_j, ``norms`` >= ||P_j||, ``neg`` = max(-lambda_min H_j, 0) and
    ``skew`` = ||P_j - H_j||_F.  ``bound`` takes scalar weights (d(z), A(z),
    M(w)), ``tuple_bound`` matrix weights (d(R)).

    Proof.  Let G_j = Re(exp(-i theta) C_j) with mu I <= G_j <= rho_j I and
    ||C_j|| <= m_j.  The Hermitian part of exp(-i theta) L is mu sum_j H_j (x) I
    >= mu lam I, plus sum_j H_j (x) (G_j - mu I) >= -sum_j (rho_j - mu) neg_j I,
    plus the share of the skew parts, of norm at most sum_j m_j skew_j.  So
    for every unit x

        |x* L x| >= Re(exp(-i theta) x* L x) >= mu lam - sum_j ((rho_j - mu) neg_j + m_j skew_j).

    That bounds sigma_min L from below, and ||L|| <= sum_j m_j norms_j; for
    Hermitian PSD P_j, cond L <= sum_j m_j ||P_j|| / (mu lambda_min(sum_j P_j)).
    The bound is +inf where mu <= 0 or the denominator is not positive.
    """

    lam: float
    norms: np.ndarray
    neg: np.ndarray
    skew: np.ndarray

    @classmethod
    def of(cls, coeffs) -> "PencilBound":
        """The constants of a (K, r, r) stack: the eigenvalues of each H_j and of their sum."""
        herm = [hermitian_part(p) for p in coeffs]
        eigs = [eigvalsh_or_refuse(h) for h in herm]
        skew = np.array([np.linalg.norm(p - h) for p, h in zip(coeffs, herm)])
        return cls(lam=float(np.min(eigvalsh_or_refuse(sum(herm)), initial=np.inf)),
                   norms=np.array([np.max(np.abs(w), initial=0.0) for w in eigs]) + skew,
                   neg=np.array([-np.min(w, initial=0.0) for w in eigs]),
                   skew=skew)

    def _quotient(self, mags, re, mu):
        """The bound from m_j = ``mags``, rho_j = ``re`` and ``mu``; see the class."""
        den = mu * self.lam - (re - mu[..., None]) @ self.neg - mags @ self.skew
        out = np.full(np.shape(mu), np.inf)
        np.divide(mags @ self.norms, den, out=out, where=(mu > 0) & (den > 0))
        return out

    def bound(self, weights) -> np.ndarray:
        """Bound on cond(sum_j c_j P_j) for each row c of (B, K) weights.

        theta is the midpoint of the shortest arc holding the arguments of c
        (``core.argument_arc``), rho_j = Re(exp(-i theta) c_j), mu = min_j rho_j
        and m_j = |c_j|: mu > 0 exactly on the rotated open polyhalfplanes.
        """
        start, gap = argument_arc(weights)
        theta = start + (np.pi - gap / 2.0)
        re = (np.exp(-1j * theta)[:, None] * weights).real  # (B, K)
        return self._quotient(np.abs(weights), re, np.min(re, axis=1))

    def tuple_bound(self, mats, accretivity: float) -> float:
        """Bound on cond(sum_j P_j (x) R_j) if R_j + R_j* >= beta I: mu = beta/2, rho_j = m_j = ||R_j||_F."""
        mags = np.linalg.norm(np.asarray(mats), axis=(1, 2))
        return float(self._quotient(mags, mags, np.asarray(0.5 * accretivity)))


@dataclass(frozen=True)
class RealizedFunction:
    """The Schur complement f of a pencil, with the pencil's cached certificates.

    A degenerate H (a common kernel of the d_k) leaves f unchanged, since
    ker d_k is contained in ker b_k, but makes d(z) singular at every z:
    every evaluation of such a realization is refused by the d(z) guard
    of ``guarded_solve``.  ``compress_realization`` drops the common
    kernel, after which the summed d-blocks are positive definite and
    d(z) is invertible on every rotated polyhalfplane.
    """

    pencil: PsdPencil

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
    def d_bound(self) -> PencilBound:
        """The certificate of d(z) and d(R), from the d-blocks; formed on first use (p >= 1)."""
        n = self.dim_u
        return PencilBound.of(self.pencil.stacked[:, n:, n:])

    @cached_property
    def a_bound(self) -> PencilBound:
        """The certificate of A(z), from the whole coefficients; formed on first use."""
        return PencilBound.of(self.pencil.stacked)


def as_evaluator(source, pol: TolerancePolicy = DEFAULT_POLICY):
    """pts -> (B, n, n) complex values of a RealizedFunction (under ``pol``) or a callable."""
    if isinstance(source, RealizedFunction):
        return lambda pts: source(pts, pol)
    return lambda pts: np.asarray(source(pts), dtype=complex)


def realize(coeffs, dim_u: int, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Validate coefficients and return the compressed realization."""
    return compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, dim_u, pol)), pol)


def compress(pencil: PsdPencil, pol: TolerancePolicy = DEFAULT_POLICY) -> PsdPencil:
    """Drop the common kernel of the d-blocks from H.

    Because each coefficient is PSD, ker d_k is contained in ker b_k,
    so removing ker(sum_k d_k) leaves the Schur complement unchanged
    while making sum_k d_k positive definite.  No-op when already
    compressed (p = 0 included).
    """
    n, p = pencil.dim_u, pencil.dim_h
    spec = psd_spectrum(hermitian_part(sum(pencil.coeffs)[n:, n:]), pol)
    keep = spec.kept
    if np.all(keep):
        return pencil
    basis = spec.eigvecs[:, keep]
    t = np.zeros((n + p, n + basis.shape[1]), dtype=complex)
    t[:n, :n] = np.eye(n)
    t[n:, n:] = basis
    coeffs = tuple(t.conj().T @ m @ t for m in pencil.coeffs)
    return PsdPencil(pencil.num_vars, n, basis.shape[1], coeffs)


def compress_realization(f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    return RealizedFunction(compress(f.pencil, pol))


def _refuse_ill_conditioned(mats: np.ndarray, pol: TolerancePolicy, what: str,
                            bound=None) -> None:
    """Refuse a stack of square matrices if any is numerically singular.

    Its one library caller is ``guarded_solve``, which passes the bound.
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


def guarded_solve(mats: np.ndarray, rhs, pol: TolerancePolicy, what: str, bound) -> np.ndarray:
    """mats^{-1} rhs on a (B, r, r) stack: the library's one guarded solve.

    ``_refuse_ill_conditioned`` first refuses (never regularizes) a stack
    holding a numerically singular matrix, named ``what`` in the message,
    and skips the condition estimate where the certificate ``bound``
    clears; then one LU solve with partial pivoting.  ``bound`` is
    required: each caller passes the certificate of its matrix.  An
    empty system (r = 0, as d(z) of a pencil with p = 0) has the empty
    solution, returned without a LAPACK call.

    ``rhs`` must be a stack of matrices with the ndim of ``mats``
    (broadcast over the batch axis).  numpy before 2.0 reads an ``rhs``
    of one fewer axis as a stack of vectors, so a 2-D ``rhs`` against a
    3-D stack would solve different systems on different numpy versions;
    it is refused instead.
    """
    if np.ndim(rhs) != np.ndim(mats):
        raise ShapeError(f"{what}: right-hand side of ndim {np.ndim(rhs)} for a stack of ndim {np.ndim(mats)}")
    _refuse_ill_conditioned(mats, pol, what, bound=bound)
    # the empty system's solution is the empty product, broadcast as solve would
    return np.linalg.solve(mats, rhs) if mats.shape[-1] else mats @ rhs


def d_condition_bound(f: RealizedFunction, z) -> np.ndarray:
    """Certified upper bound on cond d(z) at each point; +inf where none is proven.

    ``PencilBound.bound`` of the d-blocks at weights z.
    """
    pts = as_points(z, f.num_vars)
    return np.ones(len(pts)) if f.dim_h == 0 else f.d_bound.bound(pts)


def d_tuple_condition_bound(f: RealizedFunction, mats, accretivity: float) -> float:
    """Certified upper bound on cond d(R) for d(R) = sum_k d_k (x) R_k, R_k + R_k* >= ``accretivity`` I.

    ``PencilBound.tuple_bound`` of the d-blocks; +inf where none is proven.
    """
    return 1.0 if f.dim_h == 0 else f.d_bound.tuple_bound(mats, accretivity)


def eval_schur(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """f(z) = a(z) - b(z) d(z)^{-1} c(z); batched over points.

    The value comes from ``schur_solve``, whose guard refuses (never
    regularizes) boundary evaluations.
    """
    return like_points(z, schur_solve(f, z, pol)[0])


def schur_solve(f: RealizedFunction, z,
                pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """f(z) (B, n, n) and d(z)^{-1} c(z) (B, p, n) on a batch of points, from one d(z) solve.

    The one implementation of the d(z) solve: ``eval_schur`` returns the
    first part, and ``kernels.KernelEvaluator.phi_table`` builds the
    kernel columns [I ; -d(z)^{-1} c(z)] from the second with f from the
    first, so sampling f and its kernels on a grid solves d(z) once.

    d(z) is solved by ``guarded_solve``: evaluation is refused (never
    regularized) when the condition of d(z) exceeds 1/psd_slack, so
    boundary evaluations, and every evaluation of an uncompressed
    degenerate H, stay detectable.  At p = 0 the solve is empty and
    f(z) = a(z).  The guard first tries the certificate
    ``d_condition_bound``; points it does not clear fall back to the
    computed condition number, so the decision is the same.

    The points are taken in the ``core.point_blocks`` of (n + p)^2
    entries a point: A(z) is assembled, guarded and solved one block at a
    time into the two outputs, so the working memory beyond them is one
    block's A(z), whatever the batch size.  Every value has the bits of
    one whole-batch solve.  The certificate is computed once for the batch.
    A refusal is raised by the first block that holds a refused d(z), and
    its message gives the worst condition within that block: the same
    text as one whole-batch guard, unless a later block holds a refused
    d(z) of larger condition.
    """
    pts = as_points(z, f.num_vars)
    n, p = f.dim_u, f.dim_h
    vals = np.empty((len(pts), n, n), dtype=complex)
    sol = np.empty((len(pts), p, n), dtype=complex)
    bound = d_condition_bound(f, pts)
    for blk in point_blocks(len(pts), (n + p) ** 2):
        az = _assemble(f.pencil, pts[blk])
        a, b, c, d = az[:, :n, :n], az[:, :n, n:], az[:, n:, :n], az[:, n:, n:]
        sol[blk] = guarded_solve(d, c, pol, "d(z)", bound[blk])
        np.subtract(a, b @ sol[blk], out=vals[blk])
    return vals, sol


def eval_long_resolvent(f: RealizedFunction, z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """f(z) recovered as the inverse of the U-corner of A(z)^{-1}.

    Must agree with ``eval_schur`` wherever both are defined; requires
    A(z) and the corner itself to be invertible, otherwise refuses
    (f(z) can be non-invertible while the Schur form is still valid).

    Both guards read the A(z) certificate b = num/den of ``a_bound``.
    With B = exp(-i theta) A(z), ``PencilBound`` proves Re B >= den I and
    ||B|| <= num.  For x = B y, Re(x* B^{-1} x) = Re(y* B* y) >= den ||y||^2
    >= (den/num^2) ||x||^2, so Re B^{-1} >= (den/num^2) I.  The corner
    C = E* A^{-1} E then has sigma_min(C) >= den/num^2 (its rotation
    exp(i theta) C has that Hermitian floor) and ||C|| <= ||B^{-1}|| <= 1/den,
    hence cond C <= (num/den)^2 = b^2.  Forming C by inversion perturbs it
    by about b^3 eps relative to sigma_min(C), at most 0.08 where b^2
    clears the guard at the fixed psd_slack of 1e-10; the guard's
    factor 2 absorbs that, and a bound only skips the estimate.

    Both are ``guarded_solve``s, which run the LAPACK gesv of numpy's
    inverse: the corner solves A(z) against the n columns of E and keeps
    the first n rows, and f(z) solves the corner against the identity,
    so both give the bits of the inverses.  This is the one cross-check
    that forms a (g, n + p, n + p) stack of A(z).
    """
    pts = as_points(z, f.num_vars)
    n = f.dim_u
    az = eval_pencil(f.pencil, pts)
    bound = f.a_bound.bound(pts)
    corner = guarded_solve(az, np.eye(f.pencil.dim, n)[None], pol, "A(z)", bound)[:, :n]
    return like_points(z, guarded_solve(corner, np.eye(n)[None], pol, "the U-corner of A(z)^{-1}",
                                        bound ** 2))


def sum_realization(f1: RealizedFunction, f2: RealizedFunction) -> RealizedFunction:
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
    pencil = PsdPencil(f1.num_vars, n, p1 + p2, tuple(coeffs))
    return RealizedFunction(pencil)
