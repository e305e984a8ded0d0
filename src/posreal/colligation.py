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

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    as_points,
    like_points,
    hermitian_part,
    hermitian_split_residuals,
    eigh_or_refuse,
    eigvalsh_or_refuse,
    operator_norm,
    point_blocks,
    relative_residual,
)
from .pencil import PencilBound, _refuse_ill_conditioned

__all__ = [
    "AglerColligation",
    "transfer_eval",
    "reflection_transfer",
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
    value comes from ``reflection_transfer``, whose guard on M(w) is
    certified.

    Otherwise (no factor, or a point on or outside the torus) the state
    system is solved.  Strictly inside the polydisk I - A P(w) is
    invertible for unitary U; a singular system therefore signals
    corrupted data and is refused.  That guard first tries the
    certificate of ``transfer_condition_bound`` and falls back to the
    computed condition number where it does not clear, so the decision
    is the same.
    """
    return like_points(w, _transfer_values(c, as_points(w, c.num_vars), pol))


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
        return reflection_transfer(c.reflection, c.dims, pts, pol)[1]
    if state is None:
        state = _state_solve(c, pts, pol)
    return _transfer_from_state(c, *state)


def reflection_transfer(v: np.ndarray, dims, pts: np.ndarray,
                        pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """T = M(w)^{-1} V_u* (B, r, n) and S(w) = I - 2 V_u T (B, n, n) on a batch of disk points.

    ``v`` = (V_1; ...; V_N; V_u) has dims[k] rows in V_k, and
    M(w) = V_u* V_u + sum_k z_k V_k* V_k, z_k = (1 + w_k) / (1 - w_k), is
    formed and solved here only (``transfer_eval`` derives S from it).  Its
    guard is certified by ``pencil.PencilBound`` of the Grams (V_u* V_u,
    V_1* V_1, ...) at weights (1, z_1, ...), which lie in the open right
    halfplane inside the open polydisk (+inf where mu lambda_min(V* V) <= 0).

    M(w) is formed, guarded and solved one ``core.point_blocks`` block at
    a time into the two outputs, with the certificate computed once, so
    no (B, r, r) stack is held.  Every value keeps the bits of one
    whole-batch solve, and a refusal reads as in ``pencil.schur_solve``.
    """
    bounds = np.cumsum((0,) + tuple(dims))
    vu = v[bounds[-1]:]
    blocks = [vu] + [v[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    grams = hermitian_part(np.stack([blk.conj().T @ blk for blk in blocks]))
    z = (1.0 + pts) / (1.0 - pts)
    weights = np.concatenate([np.ones((len(z), 1)), z], axis=1)
    bound = PencilBound.of(grams).bound(weights)
    n, r = vu.shape
    t = np.empty((len(pts), r, n), dtype=complex)
    svals = np.empty((len(pts), n, n), dtype=complex)
    flat = grams[1:].reshape(len(dims), r * r)
    for blk in point_blocks(len(pts), r * r):
        m = np.dot(z[blk], flat).reshape(blk.stop - blk.start, r, r)  # sum_k z_k V_k* V_k
        m += grams[0]
        _refuse_ill_conditioned(m, pol, "M(w)", bound=bound[blk])
        t[blk] = np.linalg.solve(m, np.broadcast_to(vu.conj().T, (len(m), r, n)))
        np.subtract(np.eye(n), 2.0 * (vu @ t[blk]), out=svals[blk])
    return t, svals


def _state_solve(c: AglerColligation, pts: np.ndarray,
                 pol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """P(w) as state weights (B, x) and (I - A P(w))^{-1} B (B, x, n), behind the guard.

    I - A P(w) is formed, guarded and solved one ``core.point_blocks``
    block at a time, with the certificate computed once, so no (B, x, x)
    stack is held; every bit and refusal is that of a whole-batch solve,
    as in ``pencil.schur_solve``.
    """
    a, b, _, _ = c.blocks()
    x = c.dim_state
    pw = c.state_weights(pts)
    bound = transfer_condition_bound(c, pts)
    sol = np.empty((len(pts), x, b.shape[1]), dtype=complex)
    for blk in point_blocks(len(pts), x * x):
        w = pw[blk]
        sys = np.broadcast_to(np.eye(x, dtype=complex), (len(w), x, x)) - a[None] * w[:, None, :]
        _refuse_ill_conditioned(sys, pol, "I - A P(w)", bound=bound[blk])
        sol[blk] = np.linalg.solve(sys, np.broadcast_to(b, (len(sys),) + b.shape))
    return pw, sol


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


def _family_rows(grid, tables, values, op) -> np.ndarray:
    """P(w)^T (``op`` np.add) or M(w)^T (np.subtract) on the grid, (g, n, m+n), filled block by block.

    P = (col_k((w_k + 1) h_k); I + S) and M = (col_k((w_k - 1) h_k); I - S)
    for the points ``grid`` (g, N), the tables h_k (g, m_k, n) of
    ``tables`` and S on the grid ``values`` (g, n, n).  Conjugated in
    place, the rows hold the adjoint P* or M*.
    """
    g, n = values.shape[:2]
    m = sum(t.shape[1] for t in tables)
    rows = np.empty((g, n, m + n), dtype=complex)
    lo = 0
    for k, t in enumerate(tables):
        hi = lo + t.shape[1]
        np.multiply(op(grid[:, k], 1.0)[:, None, None], t.transpose(0, 2, 1), out=rows[:, :, lo:hi])
        lo = hi
    op(np.eye(n), values.transpose(0, 2, 1), out=rows[:, :, m:])
    return rows


def transfer_identity_residuals(grid, tables, values, scale=None) -> tuple[float, float]:
    """Residuals of the disk-side transfer identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) h_k(o)* h_k(w)

    ``grid``, ``tables`` and ``values`` are those of ``_family_rows``,
    which builds P and M one at a time; ``scale`` is passed to
    ``hermitian_split_residuals``.  The pair is the Hermitian split of
    E(o, w) = M(o)* P(w) / 2: the sum E(o, w) + E(w, o)* is
    -sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w) + I - S(o)* S(w), and the
    difference is -sum_k (w_k - conj(o_k)) h_k(o)* h_k(w) + S(w) - S(o)*.
    """
    p_rows, m_rows = (_family_rows(grid, tables, values, op) for op in (np.add, np.subtract))
    p_rows *= 0.5  # exact, in place: the rows of P / 2
    np.conjugate(m_rows, out=m_rows)  # M*
    return hermitian_split_residuals(m_rows, p_rows, scale)


def agler_identity_residual(c: AglerColligation, grid,
                            pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Residuals of the two transfer-function identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) h_k(o)* h_k(w)

    with h(w) = (I - A P(w))^{-1} B from one state solve, h_k its block k.
    For unitary U the plus identity holds: (h(w); S(w)) = U (P(w) h(w); I).
    The minus identity holds when U is also selfadjoint, so the residual
    grows with any unitarity or selfadjointness defect.  S(w) is the value
    ``transfer_eval`` gives; the factors come from the state solve on U,
    so for a colligation with a reflection factor the identities also
    check V against the blocks of U.
    """
    if not c.selfadjoint:
        raise ValidationError("identity residuals are defined for selfadjoint colligations")
    pts = as_points(grid, c.num_vars)
    # without a reflection factor the state solve also gives S(w)
    pw, h = _state_solve(c, pts, pol)
    bounds = np.cumsum((0,) + c.dims)
    blocks = [h[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return transfer_identity_residuals(pts, blocks, _transfer_values(c, pts, pol, state=(pw, h)))


def spectrum_condition(c: AglerColligation, pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, float]:
    """Distance from 1 to the spectrum of S(0) = D, and whether it clears the margin.

    For selfadjoint contractive D this is 1 - max eigenvalue.
    """
    d = c.blocks()[3]
    if c.selfadjoint:
        eigs = eigvalsh_or_refuse(hermitian_part(d)).astype(complex)
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


def _adjoint_r(pts, tables, svals, op) -> np.ndarray:
    """R_P (``op`` np.add) or R_M (np.subtract) of ``build_colligation``.

    The R factor of the thin QR of P* or M*, n rows per grid point.  Each
    adjoint is built alone and freed on return, since numpy's qr copies
    its whole input.
    """
    adj = _family_rows(pts, tables, svals, op)
    np.conjugate(adj, out=adj)
    return np.linalg.qr(adj.reshape(-1, adj.shape[2]), mode="r")


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
    (col_k((w_k - 1) theta_k(w)); I - S(w)), the families whose Hermitian
    split ``transfer_identity_residuals`` takes.  A thin QR of each of the
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

    Memory: P* and M* are built and QR-factored one at a time, each freed
    after its QR, and the small factors (R_P, R_M, R1, R2 and the SVD)
    are freed before the interpolation check.  That check evaluates
    S on the grid through the blocked M(w) solve of ``reflection_transfer``,
    so beyond its (g, r, n) and (g, n, n) outputs it holds one block of M(w).
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

    rp, rm = (_adjoint_r(pts, tables, svals, op) for op in (np.add, np.subtract))
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
    # nothing reads the factors again: free them before the g-point transfer check
    del rp, rm, r1, r2, svecs, vh, q

    tv = transfer_eval(coll, pts, pol)
    interp = relative_residual(tv, svals)
    if gram_res <= pol.residual_tol and interp > pol.residual_tol:
        raise NumericalRefusalError(
            f"synthesized colligation fails to interpolate (residual {interp:.3e})")
    return ColligationSynthesis(coll, interp, gram_res, rank, tv, unit, sa)
