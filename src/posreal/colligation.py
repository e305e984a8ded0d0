"""Selfadjoint unitary colligations and their transfer functions.

A colligation here is a unitary block operator U = [[A, B], [C, D]] on
X (+) U with a state splitting X = X_1 (+) ... (+) X_N; its transfer
function is S(w) = D + C P(w) (I - A P(w))^{-1} B with
P(w) = sum_k w_k P_k.  Transfer functions of *selfadjoint* unitary
colligations with 1 outside the spectrum of S(0) are exactly the double
Cayley transforms of realized functions.  Both directions from a
factor are one forward map, the reflection of the span of V = [-v; E*]:
``colligation_from_pencil`` takes v from the pencil's own ``psd_sqrt``
factors, and synthesis from grid data, the finite lurking isometry
(Agler, Oper. Theory Adv. Appl. 48, 1990) read off the kernel rebuild,
takes the rebuild's factor v from the kernel identity's R
(``colligation_from_kernel_samples``); ``build_colligation`` converts
disk-side samples (theta tables and S) to that input.  The state
response h = (I - A P(w))^{-1} B (``state_response``) gives the tables
of the transfer identities, the Agler decomposition of S.

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
    eigvalsh_or_refuse,
    factor_rows,
    neumann_condition_bound,
    operator_norm,
    point_blocks,
    relative_residual,
)
from .kernels import KernelEvaluator, KernelSampleSet, rebuild_factor
from .pencil import PencilBound, RealizedFunction, _refuse_ill_conditioned

__all__ = [
    "AglerColligation",
    "transfer_eval",
    "reflection_transfer",
    "state_response",
    "transfer_condition_bound",
    "agler_identity_residual",
    "transfer_identity_residuals",
    "spectrum_condition",
    "ColligationSynthesis",
    "colligation_from_kernel_samples",
    "colligation_from_pencil",
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
    pts = as_points(w, c.num_vars)
    d = c.blocks()[3]
    if c.dim_state == 0:
        values = np.broadcast_to(d, (len(pts),) + d.shape).copy()
    elif c.reflection is not None and np.all(np.abs(pts) < 1.0):
        values = reflection_transfer(c.reflection, c.dims, pts, pol)
    else:
        values = state_response(c, pts, pol)[1]
    return like_points(w, values)


def reflection_transfer(v: np.ndarray, dims, pts: np.ndarray,
                        pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """S(w) = I - 2 V_u M(w)^{-1} V_u* (B, n, n) on a batch of disk points.

    ``v`` = (V_1; ...; V_N; V_u) has dims[k] rows in V_k, and
    M(w) = V_u* V_u + sum_k z_k V_k* V_k, z_k = (1 + w_k) / (1 - w_k), is
    formed and solved here only (``transfer_eval`` derives S from it).  Its
    guard is certified by ``pencil.PencilBound`` of the Grams (V_u* V_u,
    V_1* V_1, ...) at weights (1, z_1, ...), which lie in the open right
    halfplane inside the open polydisk (+inf where mu lambda_min(V* V) <= 0).

    M(w) is formed, guarded and solved one ``core.point_blocks`` block at
    a time into S, with the certificate computed once, so neither a
    (B, r, r) stack nor a (B, r, n) stack of T = M(w)^{-1} V_u* is held.
    Every value keeps the bits of one whole-batch solve, and a refusal
    reads as in ``pencil.schur_solve``.
    """
    bounds = np.cumsum((0,) + tuple(dims))
    vu = v[bounds[-1]:]
    blocks = [vu] + [v[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    grams = hermitian_part(np.stack([blk.conj().T @ blk for blk in blocks]))
    z = (1.0 + pts) / (1.0 - pts)
    weights = np.concatenate([np.ones((len(z), 1)), z], axis=1)
    bound = PencilBound.of(grams).bound(weights)
    n, r = vu.shape
    svals = np.empty((len(pts), n, n), dtype=complex)
    flat = grams[1:].reshape(len(dims), r * r)
    for blk in point_blocks(len(pts), r * r):
        m = np.dot(z[blk], flat).reshape(blk.stop - blk.start, r, r)  # sum_k z_k V_k* V_k
        m += grams[0]
        _refuse_ill_conditioned(m, pol, "M(w)", bound=bound[blk])
        t = np.linalg.solve(m, np.broadcast_to(vu.conj().T, (len(m), r, n)))
        np.subtract(np.eye(n), 2.0 * (vu @ t), out=svals[blk])
    return svals


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


def state_response(c: AglerColligation, grid,
                   pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[list[np.ndarray], np.ndarray]:
    """Blocks h_k (g, d_k, n) of h(w) = (I - A P(w))^{-1} B and S(w) = D + C P(w) h(w) (g, n, n).

    Both come from one guarded state solve (``_state_solve``); this is
    the dense route of ``transfer_eval`` and the h tables of the transfer
    identities.  For the colligation of a pencil
    (``colligation_from_pencil``) h_k is theta_k.
    """
    pts = as_points(grid, c.num_vars)
    pw, h = _state_solve(c, pts, pol)
    _, _, cc, d = c.blocks()
    bounds = np.cumsum((0,) + c.dims)
    return [h[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], d[None] + cc[None] @ (pw[:, :, None] * h)


def transfer_condition_bound(c: AglerColligation, w) -> np.ndarray:
    """Certified upper bound on cond(I - A P(w)) at each point; +inf where none is proven.

    rho = ||A|| max_k |w_k| >= ||A P(w)||, so ``core.neumann_condition_bound``
    gives cond <= (1 + rho) / (1 - rho) when rho < 1.  ||A|| is computed,
    not assumed to be at most 1.
    """
    pts = as_points(w, c.num_vars)
    rho = operator_norm(c.blocks()[0]) * np.max(np.abs(pts), axis=1, initial=0.0)
    return neumann_condition_bound(rho)


def transfer_identity_residuals(grid, tables, values, scale=None) -> tuple[float, float]:
    """Residuals of the disk-side transfer identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) h_k(o)* h_k(w)

    For the points ``grid`` (g, N), the tables h_k (g, m_k, n) of
    ``tables`` and S on the grid ``values`` (g, n, n), P and M stack
    (col_k((w_k + 1) h_k); I + S) and (col_k((w_k - 1) h_k); I - S);
    ``core.factor_rows`` lays out P^T and M^T.  ``scale`` is
    passed to ``hermitian_split_residuals``.  The pair is the Hermitian
    split of E(o, w) = M(o)* P(w) / 2: the sum E(o, w) + E(w, o)* is
    -sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w) + I - S(o)* S(w), and the
    difference is -sum_k (w_k - conj(o_k)) h_k(o)* h_k(w) + S(w) - S(o)*.
    """
    eye, s_t = np.eye(values.shape[-1]), values.transpose(0, 2, 1)
    p_rows = factor_rows(tables, grid + 1.0, eye + s_t)
    m_rows = factor_rows(tables, grid - 1.0, eye - s_t)
    p_rows *= 0.5  # exact, in place: the rows of P / 2
    np.conjugate(m_rows, out=m_rows)  # M*
    return hermitian_split_residuals(m_rows, p_rows, scale)


def agler_identity_residual(c: AglerColligation, grid,
                            pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float]:
    """Residuals of the two transfer-function identities over grid x grid.

    plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) h_k(o)* h_k(w)
    minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) h_k(o)* h_k(w)

    with h(w) = (I - A P(w))^{-1} B, h_k its block k, and S(w) from the
    same state solve (``state_response``).  For unitary U the plus
    identity holds: (h(w); S(w)) = U (P(w) h(w); I).  The minus identity
    holds when U is also selfadjoint, so the residual grows with any
    unitarity or selfadjointness defect.  Both read the blocks of U, not
    a reflection factor, so for a colligation with one they also check
    V against U.  For ``colligation_from_pencil(f)`` this is the
    Agler-Schur decomposition of the double Cayley transform of f, with
    the kernels Theta_k(w, o) = theta_k(o)* theta_k(w).
    """
    if not c.selfadjoint:
        raise ValidationError("identity residuals are defined for selfadjoint colligations")
    pts = as_points(grid, c.num_vars)
    return transfer_identity_residuals(pts, *state_response(c, pts, pol))


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
    ``gram_residual`` is the kernel identity's residual that gated the
    synthesis, read from the samples' ``identity_gate``; ``rank`` is the
    multiplicity r of the eigenvalue -1 of U, the column count of its
    reflection factor; the unitarity and selfadjointness residuals are
    those of U that ``validate`` measured.
    """

    colligation: AglerColligation
    interpolation_residual: float
    gram_residual: float
    rank: int
    values: np.ndarray
    unitarity_residual: float
    selfadjointness_residual: float


def colligation_from_kernel_samples(grid, ks: KernelSampleSet, schur_values,
                                    pol: TolerancePolicy = DEFAULT_POLICY) -> ColligationSynthesis:
    """The selfadjoint unitary colligation of the kernel rebuild, checked against S on a disk grid.

    ``ks`` holds f and the phi tables on zs = z(grid), the Cayley image of
    the disk grid (g, N), which must contain w = 0 (z(0) is the base point
    e); ``schur_values`` is S = (F - I)(F + I)^{-1} on the grid (g, n, n),
    the target of the interpolation check.

    ``kernels.rebuild_factor`` reads the rebuild's factor v = [phi(e), Q_H]
    (m x (n + p'), row block k of m_k rows) from the R of
    ``ks.identity_gate``, formed once per set whoever reads it first, and
    refuses samples off the kernel identity.  The rebuilt pencil has the
    coefficients A_k = v_k* v_k.  Its colligation is the forward map of
    V = [-v; E*], E* = [I_n 0]: with the SVD V = W Sigma Z*, cut at
    psd_slack Sigma_1, U = I - 2 W W* with reflection factor W, r = rank
    columns, and state dimensions (m_1, ..., m_N), the widths of the phi
    tables at any grid size.

    Proof.  On data that satisfy the identity, phi(e) is orthogonal to
    Q_H, so V* V = diag(phi(e)* phi(e) + I, I) >= I: every singular value
    is at least 1, nothing is cut, and W = V Z Sigma^{-1}.  The r x r
    pencil of ``transfer_eval`` is then
    M'(w) = W_u* W_u + sum_k z_k W_k* W_k = Sigma^{-1} Z* M(w) Z Sigma^{-1}
    with M(w) = E E* + sum_k z_k v_k* v_k = A(z) + E E* of the rebuilt
    pencil, so S'(w) = I - 2 W_u M'(w)^{-1} W_u* = I - 2 E* M(w)^{-1} E.
    For psi = [I; -d(z)^{-1} c(z)] of the rebuilt pencil, A(z) psi = E f(z)
    and E* psi = I give M(w) psi = E (F + I), so M(w)^{-1} E =
    psi (F + I)^{-1} and S' = I - 2 (F + I)^{-1} = (F - I)(F + I)^{-1}, the
    double Cayley transform of the rebuilt pencil.  That pencil
    interpolates f on zs, so S' interpolates S on the grid, and the check
    refuses otherwise; off the grid S' is the double Cayley transform of
    f once the grid saturates the difference span.  The sign of v makes
    the state response h_k(w) = -2 / (1 - w_k) W_k M'(w)^{-1} W_u* equal
    2 / (1 - w_k) v_k psi (F + I)^{-1}, which is theta_k(w) on the grid
    (there v psi = phi, since Q_H* diag(z) phi(z) = 0 by the identity and
    Q_H spans the differences), so U swaps
    (col_k(w_k theta_k(w) u); u) and (col_k(theta_k(w) u); S(w) u): it is
    the lurking isometry of the transfer identities, the U that the swap
    of those two families defines on their span.

    Memory: beside the samples and R it holds V and its SVD, (m + n)
    square at most, then the transfer check's S from the blocked M(w)
    solve of ``reflection_transfer``, with one block of M(w) and T.
    """
    coll = _forward_map(rebuild_factor(ks, pol), tuple(t.shape[1] for t in ks.factors), ks.dim_u, pol)
    unit, sa = coll.validate(pol)
    tv = transfer_eval(coll, as_points(grid, ks.num_vars), pol)
    interp = relative_residual(tv, schur_values)
    if not interp <= pol.residual_tol:
        raise NumericalRefusalError(
            f"synthesized colligation fails to interpolate (residual {interp:.3e})")
    return ColligationSynthesis(coll, interp, ks.identity_gate[0], coll.reflection.shape[1], tv, unit, sa)


def _forward_map(v: np.ndarray, dims: tuple, n: int, pol: TolerancePolicy) -> AglerColligation:
    """The selfadjoint unitary colligation U = I - 2 W W* of the SVD V = [-v; E*] = W Sigma Z*.

    ``v`` is m x r with row block k of dims[k] rows, E* = [I_n 0]; the
    singular values are cut at psd_slack Sigma_1, and W keeps the rank
    columns above the cut as the reflection factor.
    """
    w, sing, _ = np.linalg.svd(np.vstack([-v, np.eye(n, v.shape[1])]), full_matrices=False)
    rank = int(np.sum(sing > pol.psd_slack * sing.max(initial=0.0)))
    if rank == 0 and len(w):
        raise NumericalRefusalError("rank collapse: the factor spans nothing")
    w = w[:, :rank]
    return AglerColligation(dims, n, np.eye(len(w)) - 2.0 * (w @ w.conj().T), selfadjoint=True, reflection=w)


def colligation_from_pencil(f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY) -> AglerColligation:
    """The selfadjoint unitary colligation whose transfer function is the double Cayley transform of f.

    The forward map of the pencil's own factor: with the ``psd_sqrt``
    factors L_k (L_k* L_k = A_k, rank A_k rows) and E = [I_n; 0], the SVD
    V = [-L_1; ...; -L_N; E*] = W Sigma Z* gives U = I - 2 W W*, reflection
    factor W and state dimensions (rank A_1, ..., rank A_N).  An
    uncompressed realization is refused, as by ``kernels.KernelEvaluator``.

    Proof.  V* V = A(e) + E E* is positive definite for a compressed
    pencil, so nothing is cut and W = V Z Sigma^{-1}.  The r x r pencil of
    ``transfer_eval`` is M'(w) = Sigma^{-1} Z* M(w) Z Sigma^{-1} with
    M(w) = A(z) + E E*, z = z(w), so S'(w) = I - 2 E* M(w)^{-1} E.  For
    psi = [I; -d(z)^{-1} c(z)], A(z) psi = E f(z) and E* psi = I give
    M(w) psi = E (F + I), hence M(w)^{-1} E = psi (F + I)^{-1} and
    S' = I - 2 (F + I)^{-1} = (F - I)(F + I)^{-1}.  The state response
    h_k(w) = -2 / (1 - w_k) W_k M'(w)^{-1} W_u* (see ``transfer_eval``)
    is 2 / (1 - w_k) L_k psi (F + I)^{-1} = sqrt(2) xi_k(w) (F + I)^{-1},
    the theta table, by the sign of L (``cayley.DiskKernelEvaluator``).
    """
    factors = KernelEvaluator(f, pol).factors
    return _forward_map(np.concatenate(factors), tuple(len(lk) for lk in factors), f.dim_u, pol)


def build_colligation(grid, theta_tables, schur_samples,
                      pol: TolerancePolicy = DEFAULT_POLICY) -> ColligationSynthesis:
    """Synthesize a selfadjoint unitary colligation from disk-side samples: theta tables and S.

    Inputs are a polydisk grid (g, N) that contains w = 0, per-variable
    factor tables theta_tables[k] of shape (g, m_k, n) with
    Theta_k(w, o) = theta_k(o)* theta_k(w), and the Schur-side values
    schur_samples (g, n, n).  This converts them to halfplane kernel
    samples and calls ``colligation_from_kernel_samples``.

    The conversion.  With z = z(w), the Cayley change of variables maps
    F = (I + S)(I - S)^{-1} = 2 (I - S)^{-1} - I and
    phi_k(z) = (1 - w_k) theta_k(w) (I - S)^{-1} = (1 - w_k) / 2 theta_k(w) (F + I),
    the inverse of theta_k = 2 / (1 - w_k) phi_k (F + I)^{-1} (see
    ``colligation_from_pencil``).  The transfer identities
    I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) Theta_k(w, o) and
    S(w) - S(o)* = sum_k (w_k - conj(o_k)) Theta_k(w, o) then hold exactly
    when f(z) = sum_k z_k phi_k(zeta)* phi_k(z) does on zs, since
    multiplying the first by (F(o) + I)* / 2 on the left and (F(w) + I) / 2 on the
    right gives the Herglotz pair F(w) + F(o)* = sum_k (1 - conj(o_k) w_k) xi_k(o)* xi_k(w) with
    xi_k = sqrt(2) / (1 - w_k) phi_k.  So data off the transfer identities are
    refused by the kernel identity gate.  The division by I - S is one
    guarded right division (``cayley.inv_value_cayley``), so data with 1 in
    the spectrum of some S(w), outside the class premise, are refused.  A
    grid without w = 0 has no base point and is refused
    (``ValidationError``), as are points near the unit circle.
    """
    from .cayley import disk_to_halfplane, inv_value_cayley  # cayley imports this module

    pts = as_points(grid, len(theta_tables))
    if len(pts) == 0:
        raise ShapeError("colligation synthesis needs at least one grid point")
    svals = np.asarray(schur_samples, dtype=complex)
    if svals.shape[0] != len(pts):
        raise ShapeError("one Schur-side sample per grid point required")
    if not all(np.isfinite(a).all() for a in (svals, *theta_tables)):
        raise ValidationError("colligation samples contain NaN or Inf entries")
    fvals = inv_value_cayley(svals, pol)
    plus = fvals + np.eye(svals.shape[1])  # F + I = 2 (I - S)^{-1}
    phis = [(0.5 * (1.0 - pts[:, k]))[:, None, None] * (t @ plus) for k, t in enumerate(theta_tables)]
    return colligation_from_kernel_samples(pts, KernelSampleSet(disk_to_halfplane(pts), phis, fvals),
                                           svals, pol)
