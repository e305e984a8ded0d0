"""Selfadjoint unitary colligations and their transfer functions.

A colligation here is a unitary block operator U = [[A, B], [C, D]] on
X (+) U with a state splitting X = X_1 (+) ... (+) X_N; its transfer
function is S(w) = D + C P(w) (I - A P(w))^{-1} B with
P(w) = sum_k w_k P_k.  Transfer functions of *selfadjoint* unitary
colligations with 1 outside the spectrum of S(0) are exactly the double
Cayley transforms of realized functions; synthesis from grid data uses
the finite lurking-isometry model.

A selfadjoint unitary U is a reflection U = I - 2 V V* with V* V = I_r,
r the multiplicity of its eigenvalue -1.  Synthesis holds V exactly and
attaches it to the colligation; inside the open polydisk the transfer
function is then S(w) = I - 2 V_u M(w)^{-1} V_u* with the r x r pencil
M(w) = V_u* V_u + sum_k z_k V_k* V_k, z_k = (1 + w_k) / (1 - w_k): the
double Cayley transform of a linear pencil with PSD coefficients.  The
state-size solve stays for colligations without the factor (loaded or
built by hand) and is the cross-check of the reflection route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    reflection:  optional factor V with U = I - 2 V V* and V* V = I, both
                 within the default residual_tol (Frobenius norm); only a
                 selfadjoint colligation may carry one.  ``transfer_eval``
                 uses it inside the open polydisk.
    """

    dims: tuple
    n: int
    U: np.ndarray
    selfadjoint: bool = False
    reflection: np.ndarray | None = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        u = as_matrix(self.U, square=True)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise ShapeError("state dimensions must be nonnegative")
        if u.shape[0] != sum(dims) + self.n:
            raise ShapeError("U dimension must equal state dim + io dim")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "dims", dims)
        if self.reflection is not None:
            object.__setattr__(self, "reflection", _checked_reflection(self.reflection, u, self.selfadjoint))

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

    @cached_property
    def _reflection_constants(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Grams G = (V_u* V_u, V_1* V_1, ..., V_N* V_N), their norms, lambda_min(sum G)."""
        v = self.reflection
        bounds = np.cumsum((0,) + self.dims)
        blocks = [v[self.dim_state:]] + [v[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        grams = hermitian_part(np.stack([blk.conj().T @ blk for blk in blocks]))
        norms = np.max(np.abs(np.linalg.eigvalsh(grams)), axis=1, initial=0.0)
        return grams, norms, float(np.min(np.linalg.eigvalsh(grams.sum(axis=0)), initial=np.inf))


def _checked_reflection(factor, u: np.ndarray, selfadjoint: bool) -> np.ndarray:
    """The factor V as a complex array, refused unless U = I - 2 V V* and V* V = I."""
    v = np.asarray(factor, dtype=complex)
    if v.ndim != 2 or v.shape[0] != u.shape[0]:
        raise ValidationError("reflection factor needs one row per row of U")
    if not np.all(np.isfinite(v)):
        raise ValidationError("reflection factor contains NaN or Inf entries")
    if not selfadjoint:
        raise ValidationError("only a selfadjoint colligation has a reflection factor")
    tol = DEFAULT_POLICY.residual_tol
    if np.linalg.norm(u - np.eye(len(u)) + 2.0 * (v @ v.conj().T)) > tol:
        raise ValidationError("U is not I - 2 V V* for the given reflection factor")
    if np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) > tol:
        raise ValidationError("reflection factor does not have orthonormal columns")
    return v


def transfer_eval(c: AglerColligation, w, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """S(w) = D + C P(w) (I - A P(w))^{-1} B; batched over disk points.

    With a reflection factor and every point in the open polydisk the
    value comes from r x r solves.  Split the rows of V as
    (V_x; V_u) = (V_1; ...; V_N; V_u).  S(w) u = y where (x; y) =
    U (P x; u), and U = I - 2 V V* turns this into x = P x - 2 V_x t and
    y = u - 2 V_u t with t = V_x* P x + V_u* u.  Since 1 - w_k != 0,
    (I - P) x = -2 V_x t makes block k of P x equal to
    -2 w_k / (1 - w_k) V_k t, hence (I + 2 sum_k w_k / (1 - w_k) V_k* V_k) t
    = V_u* u; with V* V = I the left side is M(w) t for

        M(w) = V_u* V_u + sum_k z_k V_k* V_k,   z_k = (1 + w_k) / (1 - w_k),

    so S(w) = I - 2 V_u M(w)^{-1} V_u* (the Woodbury identity).  The same
    step gives I - A P(w) = (I - P) (I + 2 (I - P)^{-1} V_x V_x* P) and, by
    Sylvester's determinant identity,

        det(I - A P(w)) = prod_k (1 - w_k)^{d_k} det M(w),

    so inside the polydisk the two systems are singular together.  The
    guard on M(w) is certified: Re z_k = (1 - |w_k|^2) / |1 - w_k|^2 > 0,
    so with mu = min(1, min_k Re z_k) every unit x has
    |x* M x| >= Re x* M x >= mu x* V* V x, whence sigma_min M >=
    mu lambda_min(V* V), while ||M|| <= ||V_u||^2 + sum_k |z_k| ||V_k||^2.

    Otherwise (no factor, or a point on or outside the torus) the state
    system is solved.  Strictly inside the polydisk I - A P(w) is
    invertible for unitary U; a singular system therefore signals
    corrupted data and is refused.  That guard first tries the
    certificate of ``transfer_condition_bound`` and falls back to the
    computed condition number where it does not clear, so the decision
    is the same.
    """
    out = _transfer_values(c, as_points(w, c.num_vars), pol)
    return out[0] if np.asarray(w).ndim == 1 else out


def _transfer_values(c: AglerColligation, pts: np.ndarray, pol: TolerancePolicy,
                     state: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """S on the points (B, n, n) by the route ``transfer_eval`` documents.

    ``state`` is an already guarded dense solve ``_state_solve(c, pts, pol)``;
    it is used only where the dense route is taken.
    """
    d = c.blocks()[3]
    if c.dim_state == 0:
        return np.broadcast_to(d, (len(pts),) + d.shape).copy()
    if c.reflection is not None and np.all(np.abs(pts) < 1.0):
        return _reflection_transfer(c, pts, pol)
    if state is None:
        state = _state_solve(c, pts, pol)
    return _transfer_from_state(c, *state)


def _reflection_transfer(c: AglerColligation, pts: np.ndarray, pol: TolerancePolicy) -> np.ndarray:
    """S(w) = I - 2 V_u M(w)^{-1} V_u* at points inside the open polydisk, behind the guard."""
    grams, norms, lam = c._reflection_constants
    vu = c.reflection[c.dim_state:]
    z = (1.0 + pts) / (1.0 - pts)
    m = grams[0] + np.tensordot(z, grams[1:], axes=(1, 0))
    mu = np.minimum(1.0, np.min(z.real, axis=1))
    _refuse_ill_conditioned(m, pol, "M(w)", bound=(norms[0] + np.abs(z) @ norms[1:]) / (mu * lam))
    sol = np.linalg.solve(m, np.broadcast_to(vu.conj().T, (len(pts),) + vu.T.shape))
    return np.eye(c.n) - 2.0 * (vu @ sol)


def _state_solve(c: AglerColligation, pts: np.ndarray, pol: TolerancePolicy,
                 adjoint: bool = False, bound=None) -> tuple[np.ndarray, np.ndarray]:
    """P(w) as state weights (B, x) and (I - A P(w))^{-1} B (B, x, n), behind the guard.

    With ``adjoint`` the system is I - A* P(w).  ``transfer_condition_bound``
    certifies both, since ||A*|| = ||A||; ``bound`` passes it in when it is
    already computed.
    """
    a, b, _, _ = c.blocks()
    if adjoint:
        a = a.conj().T
    x = c.dim_state
    pw = c.state_weights(pts)
    sys = np.broadcast_to(np.eye(x, dtype=complex), (len(pts), x, x)) - a[None] * pw[:, None, :]
    _refuse_ill_conditioned(sys, pol, "I - A* P(w)" if adjoint else "I - A P(w)",
                            bound=transfer_condition_bound(c, pts) if bound is None else bound)
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
    any unitarity or selfadjointness defect.  S(w) is the value
    ``transfer_eval`` gives; the factors come from state solves on U, so
    for a colligation with a reflection factor the identities also check
    V against the blocks of U.
    """
    if not c.selfadjoint:
        raise ValidationError("identity residuals are defined for selfadjoint colligations")
    pts = as_points(grid, c.num_vars)
    # G_k(w, o) = B* (I - P(conj o) A)^{-1} P_k (I - A P(w))^{-1} B is block k of
    # left(o)* right(w): B* (I - P(conj o) A)^{-1} = [(I - A* P(o))^{-1} B]*, since
    # the adjoint of the diagonal P(conj o) is P(o).  Without a reflection factor
    # the right solve also gives S(w).
    bound = transfer_condition_bound(c, pts)
    pw, right = _state_solve(c, pts, pol, bound=bound)
    left = _state_solve(c, pts, pol, adjoint=True, bound=bound)[1]
    values = _transfer_values(c, pts, pol, state=(pw, right))
    return transfer_identity_residuals(pw, left, right, values)


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
    forming the 2gn x 2gn Grams.  The stacked generator matrices
    D = [D_d R_r] and R = [R_r D_d] (n columns per grid point, D_d of the
    d-vectors, R_r of the r-vectors) differ by a block swap, so with the
    orthogonal T = [[I, I], [I, -I]] / sqrt(2)

        [D ; R]* = T diag(P*, M*) T,   P = D_d + R_r,  M = D_d - R_r,

    where P and M stack (col_k((w_k + 1) theta_k(w)); I + S(w)) and
    (col_k((w_k - 1) theta_k(w)); I - S(w)).  One batched thin QR of the
    two half-size adjoints, P* = Q_P R_P and M* = Q_M R_M, gives
    [D ; R]* = Q [R1 | R2] with Q = T diag(Q_P, Q_M) orthonormal columns,
    R1 = [R_P ; R_M] / sqrt(2) and R2 = [R_P ; -R_M] / sqrt(2).  Exactly in
    arithmetic ||D* D|| = ||R1||^2, and both gate matrices reduce to one:
    R1 R1* - R2 R2* and R1 R2* - R2 R1* are [[0, +-R_P R_M*], [R_M R_P*, 0]],
    so ||D* D - R* R|| = ||D* R - R* D|| = ||R_P R_M*||, an (m+n)-square
    norm.  These are identities, not bounds, so both gates below keep
    their meaning.

    The same factor carries the range of D = R1* Q*.  With the SVD
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
    if g == 0:
        raise ShapeError("colligation synthesis needs at least one grid point")
    svals = np.asarray(schur_samples, dtype=complex)
    if svals.shape[0] != g:
        raise ShapeError("one Schur-side sample per grid point required")
    n = svals.shape[1]
    tables = [np.asarray(t, dtype=complex) for t in theta_tables]
    if not all(np.isfinite(a).all() for a in (svals, *tables)):
        raise ValidationError("colligation samples contain NaN or Inf entries")
    dims = tuple(t.shape[1] for t in tables)
    m = sum(dims)

    # P and M, n columns per grid point: (g, m+n, n) each.
    h = np.concatenate(tables, axis=1) if m else np.zeros((g, 0, n), dtype=complex)
    weights = np.repeat(pts, dims, axis=1)[:, :, None]  # (g, m, 1)
    eye = np.eye(n)
    pm = np.stack([np.concatenate([(weights + 1.0) * h, eye + svals], axis=1),
                   np.concatenate([(weights - 1.0) * h, eye - svals], axis=1)])
    rp, rm = np.linalg.qr(pm.conj().transpose(0, 1, 3, 2).reshape(2, g * n, m + n), mode="r")
    r1 = np.concatenate([rp, rm]) / np.sqrt(2.0)
    r2 = np.concatenate([rp, -rm]) / np.sqrt(2.0)
    svecs, sing, vh = np.linalg.svd(r1.conj().T, full_matrices=False)
    top = sing.max(initial=0.0)
    gram_res = operator_norm(rp @ rm.conj().T) / (1.0 + top ** 2)
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

    # w0 - I = -2 E_- E_-* with E_- the eigenvectors of negative eigenvalues,
    # so U = I - 2 V V* with V = q E_-: the factor of the transfer route.
    u_full = np.eye(m + n, dtype=complex) + q @ (w0 - np.eye(rank, dtype=complex)) @ q.conj().T
    coll = AglerColligation(dims, n, u_full, selfadjoint=True, reflection=q @ evecs[:, evals < 0])
    unit, sa = coll.validate(pol)

    tv = transfer_eval(coll, pts, pol)
    interp = float(np.max(np.linalg.norm(tv - svals, axis=(1, 2)) /
                          (1.0 + np.linalg.norm(svals, axis=(1, 2)))))
    if gram_res <= pol.residual_tol and interp > pol.residual_tol:
        raise NumericalRefusalError(
            f"synthesized colligation fails to interpolate (residual {interp:.3e})")
    return ColligationSynthesis(coll, interp, gram_res, rank, tv, unit, sa)
