"""Dense complex matrix substrate shared by every other module.

Hermitian symmetrization, PSD certification, PSD square roots, operator
norms, and the tolerance policy.  All matrices are plain ``numpy`` arrays
of ``complex128``; nothing here is aware of pencils or kernels.

``psd_spectrum`` is the one PSD certificate: every Hermitian test, PSD
decision and rank cut of a matrix M, in every module, reads its
eigenvalues against the one scale 1 + ||M||.  Other scales keep their
own checks: ``calculus.accretive_positivity_check`` (f(R) + f(R)*, so the
routine would loosen it), the Frobenius-scaled positivity rows and
``geometry.four_quadrant_check``, and the singular-value rank floors of
``kernels.rebuild_factor`` and ``colligation.colligation_from_kernel_samples``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "PosrealError",
    "ShapeError",
    "ValidationError",
    "NumericalRefusalError",
    "as_matrix",
    "as_points",
    "like_points",
    "hermitian_part",
    "operator_norm",
    "argument_arc",
    "point_blocks",
    "neumann_condition_bound",
    "factor_rows",
    "family_r",
    "column_bound",
    "cross_gram_residual",
    "hermitian_split_residuals",
    "relative_residual",
    "scale_of",
    "PsdSpectrum",
    "psd_spectrum",
    "is_psd",
    "psd_sqrt",
    "eigh_or_refuse",
    "eigvalsh_or_refuse",
]


class PosrealError(Exception):
    """Base class for library errors."""


class ShapeError(PosrealError):
    """Operands have incompatible or invalid shapes."""


class ValidationError(PosrealError):
    """Input data violates a structural requirement (PSD, Hermitian, ...)."""


class NumericalRefusalError(PosrealError):
    """A computation was refused rather than silently regularized.

    Raised on near-singular solves (boundary / outside-domain
    evaluations), rank collapse, and eigensolver breakdown.
    """


@dataclass(frozen=True)
class TolerancePolicy:
    """Global numerical tolerances.

    All tolerances are applied relative to matrix norm where a norm
    exists (via ``scale_of``), absolute for scalars.  ``residual_tol``
    (the CLI's ``--tol``) is the one a run can set; the other three are
    fixed, and the certificates are proven against them.

    Attributes
    ----------
    psd_slack:
        Eigenvalue floor for PSD certification and rank decisions.
    residual_tol:
        Acceptable residual for identities that hold exactly in
        arithmetic on valid inputs.
    commutator_tol:
        Ceiling on pairwise commutator norms of certified tuples.
    margin:
        Strictness margin for contractivity / accretivity claims.
    """

    psd_slack: ClassVar[float] = 1e-10
    residual_tol: float = 1e-9
    commutator_tol: ClassVar[float] = 1e-10
    margin: ClassVar[float] = 1e-6

    def __post_init__(self):
        # NaN compares false both ways; every gate would then silently fail
        if not self.residual_tol >= 0:
            raise ValidationError("tolerance residual_tol must be nonnegative")


DEFAULT_POLICY = TolerancePolicy()

# Points per block of ``point_blocks`` by default (the two-point residuals'
# TSQR), and the fewest a grid solve takes; see ``point_blocks``.
_ROW_BLOCK = 32


def as_matrix(m, square: bool = False, stack: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d complex array, or with ``stack`` to a (B, r, c) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != (3 if stack else 2):
        what = "a (B, r, c) stack of matrices" if stack else "a 2-d matrix"
        raise ShapeError(f"expected {what}, got ndim={a.ndim}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValidationError("matrix contains NaN or Inf entries")
    if square and a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_points(z, num_vars: int) -> np.ndarray:
    """Coerce one point or a batch of points to shape (B, N); NaN or Inf is refused."""
    pts = np.asarray(z, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != num_vars:
        raise ShapeError(f"expected points with {num_vars} coordinates, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must have finite coordinates")
    return pts


def like_points(z, out):
    """``out[0]`` when ``z`` is one point (1-d), else ``out``: the single-point convention."""
    return out[0] if np.ndim(z) == 1 else out


def operator_norm(m) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def argument_arc(pts) -> tuple[np.ndarray, np.ndarray]:
    """Shortest circular arc holding the coordinate arguments of each point.

    ``pts`` is a (B, N) batch.  Returns ``(start, gap)`` per point, with
    ``gap`` the largest circular gap between the sorted arguments: the
    arguments lie in [start, start + 2 pi - gap] modulo 2 pi.  A point
    lies in some rotated open polyhalfplane iff no coordinate vanishes
    and gap > pi.
    """
    beta = np.sort(np.mod(np.angle(np.asarray(pts, dtype=complex)), 2.0 * np.pi), axis=-1)
    gaps = np.diff(beta, axis=-1, append=beta[..., :1] + 2.0 * np.pi)
    imax = np.argmax(gaps, axis=-1)[..., None]
    gap = np.take_along_axis(gaps, imax, axis=-1)[..., 0]
    start = np.take_along_axis(beta, (imax + 1) % beta.shape[-1], axis=-1)[..., 0]
    return start, gap


def point_blocks(count: int, entries: int = _ROW_BLOCK ** 2) -> list[slice]:
    """Consecutive slices of max(_ROW_BLOCK, _ROW_BLOCK^3 // entries) points covering range(count).

    ``entries`` is what a loop holds per point; the grid solves pass the
    entries of one point's matrix.  So working memory is one block's at
    any grid size, and small matrices are not solved in many small calls
    that each pay a set-up.  A last block of one point joins the block
    before it: a product with one row takes BLAS's vector path, whose
    last bits can differ from the matrix path that the same row takes in
    a larger product, so every point of a grid of two or more gets the
    bits of one whole-grid product.
    """
    size = max(_ROW_BLOCK, _ROW_BLOCK ** 3 // max(entries, 1))
    starts = list(range(0, count, size))
    if count > 1 and count % size == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


def _rows(points: slice, n: int) -> slice:
    """The rows of a block of points in a (g n, M) row view."""
    return slice(points.start * n, points.stop * n)


def _row_view(rows) -> tuple[np.ndarray, tuple]:
    """The (g n, M) view of a (g, n, M) family, and that shape; complex C-ordered input is not copied."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 3:
        raise ShapeError(f"expected a (g, n, M) family, got shape {rows.shape}")
    g, n, m = rows.shape
    return rows.reshape(g * n, m), rows.shape


def _row_views(x_adj, y_rows, scale):
    """The (g n, M) views of two (g, n, M) families of one shape, n, M and the (g,) scale."""
    (xh, shape), (yr, y_shape) = _row_view(x_adj), _row_view(y_rows)
    if shape != y_shape:
        raise ShapeError(f"expected two (g, n, M) families of one shape, got {shape}, {y_shape}")
    scale = np.ones(shape[0]) if scale is None else np.asarray(scale, dtype=float)
    return xh, yr, shape[1], shape[2], scale


def _tsqr_r(blocks: list[slice], n: int, width: int, fill) -> np.ndarray:
    """R of the thin QR of a (g n, width) stack, taken one point block of rows at a time (TSQR).

    ``fill(out, b)`` writes the n rows a point of block b into ``out``.
    Each step replaces R by the R of qr([R; rows of b]), in one reused
    buffer: if the stack so far is Q R and [R; rows] = Q' R' with Q'
    orthonormal, then [stack; rows] = diag(Q, I) Q' R'.
    """
    most = max((b.stop - b.start for b in blocks), default=0)
    stage = np.empty((width + n * most, width), dtype=complex)
    k = 0
    for b in blocks:
        top = k + n * (b.stop - b.start)
        fill(stage[k:top], b)
        k = min(top, width)
        stage[:k] = np.linalg.qr(stage[:top], mode="r")
    return stage[:k].copy()


def neumann_condition_bound(s) -> np.ndarray:
    """Certified cond(I - X) <= (1 + s) / (1 - s) for bounds s >= ||X|| below 1; +inf elsewhere.

    ``s`` holds one proven upper bound on the operator norm of X per
    matrix.  Where s < 1 the Neumann series of (I - X)^{-1} converges:
    ||(I - X)^{-1}|| <= sum_j s^j = 1 / (1 - s), so sigma_min(I - X) >=
    1 - s, while ||I - X|| <= 1 + s; the ratio bounds the condition
    number.  Where s >= 1, and where s is NaN (every comparison is
    false), nothing is proven and the entry is +inf.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # at s = 1 or +inf, discarded
        return np.where(s < 1.0, (1.0 + s) / (1.0 - s), np.inf)


def factor_rows(tables, weights, tail, out=None) -> np.ndarray:
    """The (g, n, m + n) rows [w_1 h_1^T, ..., w_N h_N^T, tail] of a two-point family.

    ``tables`` holds the N factor tables h_k (g, m_k, n), m = sum_k m_k;
    ``weights`` (g, N) scales block k at each point by w_k, or is None
    for plain copies; ``tail`` (g, n, n), a broadcast view included,
    fills the last n columns; the rows are written into ``out`` when it
    is given.  This is the one writer of the row layout
    that ``family_r``, ``column_bound`` and the two-point residuals read:
    reshaped to (g n, m + n), point c holds rows c n to c n + n - 1.
    Callers finish a family in place (conjugate it, scale it, negate
    its tail), so it is held once.
    """
    m = sum(t.shape[1] for t in tables)
    rows = np.empty(tail.shape[:2] + (m + tail.shape[2],), dtype=complex) if out is None else out
    lo = 0
    for k, t in enumerate(tables):
        block = rows[:, :, lo:lo + t.shape[1]]
        lo += t.shape[1]
        if weights is None:
            block[...] = t.transpose(0, 2, 1)
        else:
            np.multiply(weights[:, k, None, None], t.transpose(0, 2, 1), out=block)
    rows[:, :, m:] = tail
    return rows


def _point_norms(prod: np.ndarray, count: int) -> np.ndarray:
    """Frobenius norms of the ``count`` equal row groups of a C-contiguous complex matrix."""
    v = prod.view(float).reshape(count, -1)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def family_r(x_adj) -> np.ndarray:
    """R of the thin QR X = Q R of the (g n, M) stack X of a (g, n, M) family x(c)*.

    R has min(g n, M) rows and comes from ``_tsqr_r``, one point block of
    rows at a time, so beyond the family, read in place, it holds one
    block and R.  TSQR is backward stable (Demmel, Grigori, Hoemmen &
    Langou, SIAM J. Sci. Comput. 34, 2012): R is exact for some X + dX
    with ||dX||_F <= c eps ||X||_F.  So anything read from R, such as
    R T for X T = Q (R T), carries roundoff of order eps ||X||_F ||T||,
    not of the size of X T itself.  Overflow gives NaN or Inf, silently.
    """
    xh, (g, n, _) = _row_view(x_adj)
    with np.errstate(over="ignore", invalid="ignore"):
        return _tsqr_r(point_blocks(g), n, xh.shape[1], lambda out, b: np.copyto(out, xh[_rows(b, n)]))


def column_bound(r, y_rows, scale=None) -> float:
    """Largest ||R y(b)||_F / scale(b) over the points b of a (g, n, M) family y(b)^T.

    With R = ``family_r`` of the x(c)*, this is the largest column norm
    ||E(:, b)||_F / scale(b) of the cross-Gram E(c, b) = x(c)* y(b):
    E(:, b) = X y(b) = Q R y(b) and Q has orthonormal columns.  The
    products are formed a point block at a time, from (R y(b))^T =
    y(b)^T R^T; ``scale`` (g,) defaults to 1.  A NaN is kept (unlike
    max()), so the caller refuses; overflow is silent.  No points give 0.0.
    """
    yr, (g, n, _) = _row_view(y_rows)
    r_t = r.T
    scale = np.ones(g) if scale is None else np.asarray(scale, dtype=float)
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in point_blocks(g):
            norms = _point_norms(yr[_rows(b, n)] @ r_t, b.stop - b.start)
            worst = np.maximum(worst, np.max(norms / scale[b]))
    return float(worst)


def cross_gram_residual(x_adj, y_rows, scale=None) -> float:
    """Largest column norm ||E(:, b)||_F / scale(b) of the cross-Gram E(c, b) = x(c)* y(b).

    The families come in the (g, n, M) row layout that the products read
    (``factor_rows`` writes it): ``x_adj[c]`` is the adjoint x(c)* and
    ``y_rows[b]`` the transpose y(b)^T of the M x n matrices x(c) and
    y(b), so that reshaped to (g n, M) both are views and x(c)* y(b) =
    x_adj[c] @ y_rows[b].T.  ``scale`` (g,) defaults to 1.  A two-point
    identity "weighted kernels sum to a target" holds exactly when such a
    cross-Gram vanishes, with the factor tables, the weights and the
    target stacked into x and y.

    The value bounds every pair: ||E(c, b)||_F <= ||E(:, b)||_F for all c.
    With X = QR the thin QR of the (g n, M) stack of the x(c)*, E(:, b) =
    Q R y(b) and Q has orthonormal columns, so ||E(:, b)||_F =
    ||R y(b)||_F: O(g n M^2) work, not the g^2 n^2 M of all pairs.  It is
    ``column_bound`` over ``family_r``, so memory beyond the families,
    read in place, is one block and R.

    Roundoff.  R is exact for X + dX, ||dX||_F <= c eps ||X||_F (see
    ``family_r``), so the value is ||E(:, b)||_F up to c eps ||X||_F
    ||y(b)||_F, and ||X||_F grows like sqrt(g).  On identities that hold
    it reads 8 (g = 100) to 73 (g = 3000) times the largest pair on random
    (3, 4, 16) and (3, 4, 32) pencils, 3.6e-13 at g = 3000: a residual for
    ``residual_tol``, not a certificate.  Overflow gives a NaN or Inf,
    silently; a NaN is kept, so the caller refuses.  No points give 0.0.
    """
    _row_views(x_adj, y_rows, scale)  # refuses families of two shapes before any work
    return column_bound(family_r(x_adj), y_rows, scale)


def hermitian_split_residuals(x_adj, y_rows, scale=None) -> tuple[float, float]:
    """Column bounds of E(c, b) + E(b, c)* and E(c, b) - E(b, c)*, each over scale(b).

    E(c, b) = x(c)* y(b) is the cross-Gram of ``cross_gram_residual``
    (same layout, norm and scale); the two residuals bound its Hermitian
    and skew-Hermitian parts over all pairs (b, c).  A sum/difference
    pair of two-point identities is such a split of one kernel identity:
    with x = [phi; I] and y = [z.phi; -f], E(c, b) + E(b, c)* is
    sum_k (z_k + conj(zeta_k)) Phi_k(z, zeta) - f(z) - f(zeta)* and the
    difference carries the weights z_k - conj(zeta_k).  On the disk, the
    weights (1 - w_k) in x and (1 + w_k) / 2 in y give the pair
    (1 + w)(1 - conj(o)) / 2 + conj of the swap = 1 - conj(o) w and
    difference w - conj(o), the Herglotz sum/difference weights.

    Since E(b, c)* = y(c)* x(b), E(c, b) +- E(b, c)* = a(c) [y(b); +-x(b)]
    with a(c) = [x(c)*, y(c)*].  With R = [R1, R2] of the thin QR of the
    (g n, 2M) stack of the a(c), split after M columns, the proof of
    ``cross_gram_residual`` gives ||E(c, b) +- E(b, c)*||_F <= ||R1 y(b)
    +- R2 x(b)||_F for all c: one TSQR serves both, holding one block and
    R (2M x 2M).  Roundoff, NaN and Inf are as there (5 to 59 times the
    largest pair at g = 100 to 3000).
    """
    xh, yr, n, m, scale = _row_views(x_adj, y_rows, scale)
    blocks = point_blocks(len(scale))
    worst = np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        r_t = _tsqr_r(blocks, n, 2 * m, lambda out, b: np.concatenate(  # the rows a(c) of block b
            (xh[_rows(b, n)], yr[_rows(b, n)].conj()), axis=1, out=out)).T  # R1^T over R2^T
        for b in blocks:
            rows = _rows(b, n)
            p1 = yr[rows] @ r_t[:m]  # (R1 y(b))^T
            p2 = xh[rows].conj() @ r_t[m:]  # (R2 x(b))^T, x(b) = conj(x_adj[b])^T
            for i, part in enumerate((p1 + p2, np.subtract(p1, p2, out=p1))):  # sum, then p1 reused
                norms = _point_norms(part, b.stop - b.start)
                worst[i] = np.maximum(worst[i], np.max(norms / scale[b]))  # keeps a NaN
    return float(worst[0]), float(worst[1])


def relative_residual(values, target) -> float:
    """Largest ||values(b) - target(b)||_F / (1 + ||target(b)||_F) over two (B, n, n) stacks."""
    num = np.linalg.norm(values - target, axis=(1, 2))
    return float(np.max(num / (1.0 + np.linalg.norm(target, axis=(1, 2)))))


def scale_of(m) -> float:
    """Relative-tolerance scale ``1 + ||m||`` (absolute floor for tiny norms)."""
    return 1.0 + operator_norm(m)


def hermitian_part(m) -> np.ndarray:
    """(M + M*) / 2 of a square matrix, or of each matrix of a (B, n, n) stack."""
    a = as_matrix(m, square=True, stack=np.ndim(m) == 3)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def eigh_or_refuse(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition of a matrix or a stack; LAPACK breakdown becomes a refusal."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalRefusalError(f"eigendecomposition failed: {exc}") from exc


def eigvalsh_or_refuse(m) -> np.ndarray:
    """Ascending Hermitian eigenvalues of a matrix or a stack; LAPACK breakdown becomes a refusal."""
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalRefusalError(f"eigenvalue computation failed: {exc}") from exc


@dataclass(frozen=True)
class PsdSpectrum:
    """Eigen-decomposition of the Hermitian part of a square matrix M, and the scale 1 + ||M||.

    Every test reads that one scale: M is Hermitian when ||M - M*|| <=
    residual_tol * scale (one more norm, taken only when asked for), PSD
    (``ok``) when its least eigenvalue clears -``floor``, and ``kept``
    marks the eigenvalues above ``floor`` = psd_slack * scale.
    """

    matrix: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    scale: float
    pol: TolerancePolicy

    @property
    def floor(self) -> float:
        return self.pol.psd_slack * self.scale

    @property
    def min_eig(self) -> float:
        return float(self.eigvals[0]) if self.eigvals.size else 0.0

    @property
    def hermitian(self) -> bool:
        return operator_norm(self.matrix - self.matrix.conj().T) <= self.pol.residual_tol * self.scale

    @property
    def ok(self) -> bool:
        return self.min_eig >= -self.floor

    @property
    def kept(self) -> np.ndarray:
        return self.eigvals > self.floor

    def __bool__(self) -> bool:
        return self.ok


def psd_spectrum(m, pol: TolerancePolicy = DEFAULT_POLICY) -> PsdSpectrum:
    """The one PSD certificate of a square matrix: one ``eigh`` and one norm.

    An eigendecomposition rather than Cholesky, so that rank-deficient
    PSD matrices are first-class citizens.
    """
    a = as_matrix(m, square=True)
    w, v = eigh_or_refuse(hermitian_part(a))
    return PsdSpectrum(a, w, v, scale_of(a), pol)


def is_psd(m, pol: TolerancePolicy = DEFAULT_POLICY) -> PsdSpectrum:
    """``psd_spectrum`` of a matrix that must be Hermitian; ``ok`` certifies it PSD."""
    spec = psd_spectrum(m, pol)
    if not spec.hermitian:
        raise ValidationError("is_psd requires a Hermitian matrix")
    return spec


def psd_sqrt(m, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Rectangular factor S of a PSD matrix with ``S* S = M``.

    S has one row per eigenvalue above the PSD floor of ``psd_spectrum``,
    so its row count is the numerical rank of M.  Eigenvalues inside
    ``[-floor, floor]`` are clamped to zero; anything below is an error.
    """
    spec = psd_spectrum(m, pol)
    if not spec.hermitian:
        raise ValidationError("psd_sqrt requires a Hermitian matrix")
    if not spec.ok:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {spec.min_eig:.3e}")
    keep = spec.kept
    return np.sqrt(spec.eigvals[keep])[:, None] * spec.eigvecs[:, keep].conj().T
