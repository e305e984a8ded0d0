"""Selfadjoint unitary colligations and their transfer functions.

A colligation here is a unitary block operator U = [[A, B], [C, D]] on
X (+) U with a state splitting X = X_1 (+) ... (+) X_N; its transfer
function is S(w) = D + C P(w) (I - A P(w))^{-1} B with
P(w) = sum_k w_k P_k.  Transfer functions of *selfadjoint* unitary
colligations with 1 outside the spectrum of S(0) are exactly the double
Cayley transforms of realized functions; synthesis from grid data uses
the finite lurking-isometry model.
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
    hermitian_part,
    eigh_or_refuse,
    operator_norm,
)
from .pencil import _refuse_ill_conditioned

__all__ = [
    "AglerColligation",
    "transfer_eval",
    "transfer_condition_bound",
    "agler_identity_residual",
    "transfer_identity_residuals",
    "spectrum_condition",
    "ColligationSynthesis",
    "build_colligation",
]


@dataclass(frozen=True)
class AglerColligation:
    """Unitary block operator with a state splitting.

    dims:        per-variable state dimensions (d_1, ..., d_N)
    n:           input/output dimension
    U:           (sum(dims) + n) square unitary matrix
    selfadjoint: whether U = U* is asserted (and then validated)
    """

    dims: tuple
    n: int
    U: np.ndarray
    selfadjoint: bool = False

    def __post_init__(self):
        u = as_matrix(self.U, square=True)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise ShapeError("state dimensions must be nonnegative")
        if u.shape[0] != sum(dims) + self.n:
            raise ShapeError("U dimension must equal state dim + io dim")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "dims", dims)

    def validate(self, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
        """Refuse U unless unitary (and selfadjoint when asserted) within residual_tol.

        Returns the unitarity and selfadjointness residuals it measured.
        """
        unit = self.unitarity_residual()
        if unit > pol.residual_tol:
            raise ValidationError("colligation operator is not unitary")
        sa = self.selfadjointness_residual()
        if self.selfadjoint and sa > pol.residual_tol:
            raise ValidationError("colligation operator is not selfadjoint")
        return unit, sa

    @property
    def num_vars(self) -> int:
        return len(self.dims)

    @property
    def dim_state(self) -> int:
        return sum(self.dims)

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        x = self.dim_state
        return self.U[:x, :x], self.U[:x, x:], self.U[x:, :x], self.U[x:, x:]

    def state_weights(self, w: np.ndarray) -> np.ndarray:
        """Diagonal of P(w) as a vector over the state space; batched."""
        return np.repeat(w, self.dims, axis=-1)

    def unitarity_residual(self) -> float:
        return operator_norm(self.U.conj().T @ self.U - np.eye(self.U.shape[0]))

    def selfadjointness_residual(self) -> float:
        return operator_norm(self.U - self.U.conj().T)

    def __call__(self, w, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
        return transfer_eval(self, w, pol)


def transfer_eval(c: AglerColligation, w, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """S(w) = D + C P(w) (I - A P(w))^{-1} B; batched over disk points.

    Strictly inside the polydisk I - A P(w) is invertible for unitary U;
    a singular system therefore signals corrupted data and is refused.
    The guard first tries the certificate of ``transfer_condition_bound``
    and falls back to the computed condition number where it does not
    clear, so the decision is the same.
    """
    pts = as_points(w, c.num_vars)
    d = c.blocks()[3]
    if c.dim_state == 0:
        out = np.broadcast_to(d, (len(pts),) + d.shape).copy()
    else:
        out = _transfer_from_state(c, *_state_solve(c, pts, pol))
    return out[0] if np.asarray(w).ndim == 1 else out


def _state_solve(c: AglerColligation, pts: np.ndarray,
                 pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """P(w) as state weights (B, x) and (I - A P(w))^{-1} B (B, x, n), behind the guard."""
    a, b, _, _ = c.blocks()
    x = c.dim_state
    pw = c.state_weights(pts)
    sys = np.broadcast_to(np.eye(x, dtype=complex), (len(pts), x, x)) - a[None] * pw[:, None, :]
    _refuse_ill_conditioned(sys, pol, "I - A P(w)", bound=transfer_condition_bound(c, pts))
    return pw, np.linalg.solve(sys, np.broadcast_to(b, (len(pts),) + b.shape))


def _transfer_from_state(c: AglerColligation, pw: np.ndarray, sol: np.ndarray) -> np.ndarray:
    """S(w) = D + C P(w) sol from the state solve sol = (I - A P(w))^{-1} B."""
    _, _, cc, d = c.blocks()
    return d[None] + cc[None] @ (pw[:, :, None] * sol)


def transfer_condition_bound(c: AglerColligation, w) -> np.ndarray:
    """Certified upper bound on cond(I - A P(w)) at each point; +inf where none is proven.

    With rho = ||A|| max_k |w_k| >= ||A P(w)||, the Neumann series gives
    sigma_min(I - A P(w)) >= 1 - rho and ||I - A P(w)|| <= 1 + rho, so
    cond <= (1 + rho) / (1 - rho) when rho < 1.  ||A|| is computed, not
    assumed to be at most 1.
    """
    pts = as_points(w, c.num_vars)
    rho = operator_norm(c.blocks()[0]) * np.max(np.abs(pts), axis=1, initial=0.0)
    out = np.full(len(pts), np.inf)
    ok = rho < 1.0
    out[ok] = (1.0 + rho[ok]) / (1.0 - rho[ok])
    return out


def transfer_identity_residuals(weights, left, right, values, scale=None) -> tuple[float, float]:
    """Residuals of the disk-side transfer identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) left_k(o)* right_k(w)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) left_k(o)* right_k(w)

    ``left`` and ``right`` stack the blocks k of the factor tables (g, M, n),
    ``weights`` (g, M) repeats w_k over the rows of block k, ``values`` is S
    on the grid (g, n, n), and ``scale`` is passed to ``cross_gram_residual``.
    """
    wl, wr = weights[:, :, None] * left, weights[:, :, None] * right
    eye = np.broadcast_to(np.eye(values.shape[-1], dtype=complex), values.shape)
    plus = cross_gram_residual(np.concatenate([left, -wl, eye, values], axis=1),
                               np.concatenate([right, wr, -eye, values], axis=1), scale)
    minus = cross_gram_residual(np.concatenate([left, -wl, eye, -values], axis=1),
                                np.concatenate([wr, right, -values, -eye], axis=1), scale)
    return plus, minus


def agler_identity_residual(c: AglerColligation, grid,
                            pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Residuals of the two transfer-function identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) G_k(w, o)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) G_k(w, o)

    Both hold exactly for selfadjoint unitary U; the residual grows with
    any unitarity or selfadjointness defect.
    """
    if not c.selfadjoint:
        raise ValidationError("identity residuals are defined for selfadjoint colligations")
    pts = as_points(grid, c.num_vars)
    a, b, _, _ = c.blocks()
    # G_k(w, o) = B* (I - P(conj o) A)^{-1} P_k (I - A P(w))^{-1} B is block k of
    # left(o)* right(w): B* (I - P(conj o) A)^{-1} = [(I - A* P(o))^{-1} B]*, since
    # the adjoint of the diagonal P(conj o) is P(o).  The right solve also gives S(w).
    pw, right = _state_solve(c, pts, pol)
    left = np.linalg.solve(np.eye(c.dim_state) - a.conj().T[None] * pw[:, None, :],
                           np.broadcast_to(b, (len(pts),) + b.shape))
    return transfer_identity_residuals(pw, left, right, _transfer_from_state(c, pw, right))


def spectrum_condition(c: AglerColligation, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, float]:
    """Distance from 1 to the spectrum of S(0) = D, and whether it clears the margin.

    For selfadjoint contractive D this is 1 - max eigenvalue.
    """
    d = c.blocks()[3]
    if c.selfadjoint:
        eigs = eigh_or_refuse(hermitian_part(d))[0].astype(complex)
    else:
        eigs = np.linalg.eigvals(d)
    dist = float(np.min(np.abs(1.0 - eigs))) if eigs.size else 1.0
    return dist >= pol.margin, dist


@dataclass(frozen=True)
class ColligationSynthesis:
    """Synthesized colligation plus the residuals achieved on the input data.

    ``values`` is its transfer function S on the synthesis grid (g, n, n);
    the unitarity and selfadjointness residuals are those of U that
    ``validate`` measured.
    """

    colligation: AglerColligation
    interpolation_residual: float
    gram_residual: float
    rank: int
    values: np.ndarray
    unitarity_residual: float
    selfadjointness_residual: float


def build_colligation(grid, theta_tables, schur_samples,
                      pol: TolerancePolicy = DEFAULT_POLICY) -> ColligationSynthesis:
    """Synthesize a selfadjoint unitary colligation interpolating grid data.

    Inputs are a polydisk grid (g, N), per-variable factor tables
    theta_tables[k] of shape (g, m_k, n) with
    Theta_k(w, o) = theta_k(o)* theta_k(w), and the Schur-side values
    schur_samples (g, n, n).

    The two families of vectors in (+)_k C^{m_k} (+) C^n

        d(w, u) = (col_k(w_k theta_k(w) u); u)
        r(w, u) = (col_k(theta_k(w) u);     S(w) u)

    have equal Grams and a Hermitian cross-Gram exactly when the sampled
    data satisfies both transfer identities; the swap d <-> r is then a
    well-defined isometric involution of their joint span.  It extends
    by the identity on the orthogonal complement to the selfadjoint
    unitary U; by construction U d(w, u) = r(w, u) makes the transfer
    interpolate S at every grid node.

    The gates and the swap are computed in the small space, never
    forming the 2gn x 2gn Grams: with one thin QR  [D ; R]* = Q [R1 | R2]
    of the stacked generator matrices D = dmat and R = rmat, Q has
    orthonormal columns, so exactly in arithmetic ||D* D|| = ||D||^2,
    ||D* D - R* R|| = ||R1 R1* - R2 R2*|| and
    ||D* R - R* D|| = ||R1 R2* - R2 R1*||.  These are identities, not
    bounds, so both gates below keep their meaning.

    The same QR carries the range of D = R1* Q*.  With the SVD
    R1* = W S V* of the (m+n)-row factor, Q V has orthonormal columns,
    so S are the singular values of D and W its left singular vectors.
    The rank r counts S_i > psd_slack S_1, and q = W_r spans the range.
    In that basis x = q* D = S_r (Q V_r)* and y = q* R = q* R2* Q*, so
    the swap y x^+ is  W0 = q* R2* V_r S_r^{-1}.  U does not depend on
    which orthonormal basis of the range is used.

    When the data satisfies the identities only approximately (Gram
    residual above residual_tol but below 1e-6) the swap is replaced by
    the closest involutive unitary and the achieved residuals are
    reported in the result rather than hidden.  Larger residuals are
    rejected.
    """
    pts = as_points(grid, len(theta_tables))
    g, num_vars = pts.shape
    svals = np.asarray(schur_samples, dtype=complex)
    if svals.shape[0] != g:
        raise ShapeError("one Schur-side sample per grid point required")
    n = svals.shape[1]
    tables = [np.asarray(t, dtype=complex) for t in theta_tables]
    dims = tuple(t.shape[1] for t in tables)
    m = sum(dims)

    # Generator matrices, n columns per grid point.
    h = np.concatenate(tables, axis=1) if m else np.zeros((g, 0, n), dtype=complex)
    weights = np.repeat(pts, dims, axis=1)  # (g, m)
    d_vecs = np.concatenate([weights[:, :, None] * h, np.broadcast_to(np.eye(n, dtype=complex), (g, n, n))], axis=1)
    r_vecs = np.concatenate([h, svals], axis=1)
    dmat = np.hstack(list(d_vecs) + list(r_vecs))  # (m+n, 2 g n)
    rmat = np.hstack(list(r_vecs) + list(d_vecs))

    r12 = np.linalg.qr(np.vstack([dmat, rmat]).conj().T, mode="r")
    r1, r2 = r12[:, :m + n], r12[:, m + n:]
    svecs, sing, vh = np.linalg.svd(r1.conj().T, full_matrices=False)
    top = sing.max(initial=0.0)
    scale = 1.0 + top ** 2
    gram_res = max(operator_norm(r1 @ r1.conj().T - r2 @ r2.conj().T),
                   operator_norm(r1 @ r2.conj().T - r2 @ r1.conj().T)) / scale
    if gram_res > 1e-6:
        raise ValidationError(
            f"samples violate the transfer identities (Gram residual {gram_res:.3e})")

    rank = int(np.sum(sing > pol.psd_slack * top))
    if rank == 0 and m + n > 0 and g > 0:
        raise NumericalRefusalError("rank collapse: generator span is empty")
    q = svecs[:, :rank]
    # Swap on the span, then projection to the nearest selfadjoint unitary:
    # the unitary factor of the Hermitian part is the eigenvalue sign function.
    w0 = (q.conj().T @ r2.conj().T @ vh[:rank].conj().T) / sing[:rank]
    herm = hermitian_part(w0)
    evals, evecs = eigh_or_refuse(herm)
    if np.any(np.abs(evals) < 0.5):
        raise NumericalRefusalError("swap isometry is not close to an involution")
    w0 = (evecs * np.sign(evals)) @ evecs.conj().T

    u_full = np.eye(m + n, dtype=complex) + q @ (w0 - np.eye(rank, dtype=complex)) @ q.conj().T
    coll = AglerColligation(dims, n, u_full, selfadjoint=True)
    unit, sa = coll.validate(pol)

    tv = transfer_eval(coll, pts, pol)
    interp = float(np.max(np.linalg.norm(tv - svals, axis=(1, 2)) /
                          (1.0 + np.linalg.norm(svals, axis=(1, 2)))))
    if gram_res <= pol.residual_tol and interp > pol.residual_tol:
        raise NumericalRefusalError(
            f"synthesized colligation fails to interpolate (residual {interp:.3e})")
    return ColligationSynthesis(coll, interp, gram_res, rank, tv, unit, sa)
