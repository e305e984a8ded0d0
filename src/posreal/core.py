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
``kernels.pencil_from_kernel_samples`` and ``colligation.build_colligation``.
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

# Grid points per block of ``point_blocks``: per side of the square tiles
# of the Gram formed in ``cross_gram_residual`` and
# ``hermitian_split_residuals``, which hold (_ROW_BLOCK n)^2 entries
# whatever the grid size, and per solve of the grid solves.
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


def point_blocks(count: int) -> list[slice]:
    """Consecutive slices of _ROW_BLOCK points that cover range(count).

    Every grid loop (the Gram tiles here, the d(z), M(w) and I - A P(w)
    solves) walks its points in these blocks, so its working memory is
    that of one block whatever the grid size.  A last block of one point
    joins the block before it: a product with one row takes BLAS's
    vector path, whose last bits can differ from the matrix path that
    the same row takes in a larger product, so every point of a grid of
    two or more gets the bits of one whole-grid product.
    """
    starts = list(range(0, count, _ROW_BLOCK))
    if count > 1 and count % _ROW_BLOCK == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [count])]


def _rows(points: slice, n: int) -> slice:
    """The rows of a block of points in a (g n, M) row view."""
    return slice(points.start * n, points.stop * n)


def _tile_buffers(count: int, blocks: list[slice], n: int) -> np.ndarray:
    """``count`` flat buffers, each large enough for the tile of two of the blocks."""
    side = n * max((s.stop - s.start for s in blocks), default=0)
    return np.empty((count, side * side), dtype=complex)


def _tile(buf: np.ndarray, c: slice, b: slice, n: int) -> np.ndarray:
    """The C-contiguous (|c| n, |b| n) tile at the front of a flat buffer."""
    rows, cols = (c.stop - c.start) * n, (b.stop - b.start) * n
    return buf[:rows * cols].reshape(rows, cols)


def _row_views(x_adj, y_rows, scale):
    """The (g n, M) views of two (g, n, M) families of one shape, n and the (g,) scale.

    Complex C-ordered input, as the library passes, is not copied.
    """
    x_adj = np.asarray(x_adj, dtype=complex)
    y_rows = np.asarray(y_rows, dtype=complex)
    if x_adj.ndim != 3 or x_adj.shape != y_rows.shape:
        raise ShapeError("expected two (g, n, M) families of one shape, "
                         f"got {x_adj.shape}, {y_rows.shape}")
    g, n, m = x_adj.shape
    scale = np.ones(g) if scale is None else np.asarray(scale, dtype=float)
    return x_adj.reshape(g * n, m), y_rows.reshape(g * n, m), n, scale


def _block_norms(gram, n: int) -> np.ndarray:
    """Frobenius norms of the n x n blocks of a C-contiguous complex matrix."""
    v = gram.view(float).reshape(gram.shape[0] // n, n, -1, 2 * n)
    return np.sqrt(np.einsum("aibj,aibj->ab", v, v))


def cross_gram_residual(x_adj, y_rows, scale=None) -> float:
    """Largest ||x(c)* y(b)|| / scale(b) over all pairs of grid points (b, c).

    The families come in the (g, n, M) row layout that the products read:
    ``x_adj[c]`` is the adjoint x(c)* and ``y_rows[b]`` the transpose
    y(b)^T of the M x n matrices x(c) and y(b), so that reshaped to
    (g n, M) both are views and x(c)* y(b) = x_adj[c] @ y_rows[b].T.  The
    norm is the Frobenius norm and ``scale`` (g,) defaults to 1.  A
    two-point identity "weighted kernels sum to a target" holds exactly
    when such a cross-Gram vanishes, with the factor tables, the weights
    and the target stacked into x and y.  The Gram is formed in tiles of
    two ``point_blocks`` (c, b), one matrix product each, written into one
    reused buffer, so memory beyond the families, which are read in
    place, is one tile, O(_ROW_BLOCK^2 n^2), at any grid size.  Entries
    that overflow give a NaN or Inf residual, silently: a NaN is kept, so
    the caller refuses.
    """
    xh, yr, n, scale = _row_views(x_adj, y_rows, scale)
    blocks = point_blocks(len(scale))
    buf = _tile_buffers(1, blocks, n)[0]
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            cols_b = yr[_rows(b, n)].T
            for c in blocks:
                tile = np.matmul(xh[_rows(c, n)], cols_b, out=_tile(buf, c, b, n))  # E(c, b)
                res = _block_norms(tile, n) / scale[b]
                worst = np.maximum(worst, np.max(res))  # unlike max(), keeps a NaN
    return float(worst)


def hermitian_split_residuals(x_adj, y_rows, scale=None) -> tuple[float, float]:
    """Largest ||E(c, b) + E(b, c)*|| / scale(b) and ||E(c, b) - E(b, c)*|| / scale(b).

    E(c, b) = x(c)* y(b) is the cross-Gram of ``cross_gram_residual``
    (same layout, norm and scale); the two residuals are its Hermitian
    and skew-Hermitian parts over all pairs (b, c).  A sum/difference
    pair of two-point identities is such a split of one kernel identity:
    with x = [phi; I] and y = [z.phi; -f], E(c, b) + E(b, c)* is
    sum_k (z_k + conj(zeta_k)) Phi_k(z, zeta) - f(z) - f(zeta)* and the
    difference carries the weights z_k - conj(zeta_k).  On the disk, the
    weights (1 - w_k) in x and (1 + w_k) / 2 in y give the pair
    (1 + w)(1 - conj(o)) / 2 + conj of the swap = 1 - conj(o) w and
    difference w - conj(o), the Herglotz sum/difference weights.

    The pair (b, c) mirrors (c, b): its blocks are the adjoints, of the
    same norm, divided by scale(c).  So E is formed in tiles of two
    ``point_blocks``, and only the tiles C <= B, each once:
    one product gives E[C, B] = x_adj[C] y_rows[B]^T, and the conjugate
    of y_rows[C] x_adj[B]^T is E[B, C]*, since y(c)* x(b) = conj(y(c)^T
    conj(x(b))).  The block norms of their sum and difference serve both
    (C, B) and (B, C).  That is a quarter of the work of two cross-Grams
    of inner dimension 2M.  The two products and their sum or difference
    are written into three reused tile buffers, so memory beyond the
    families, which are read in place, is three tiles, O(_ROW_BLOCK^2 n^2).
    """
    xh, yr, n, scale = _row_views(x_adj, y_rows, scale)
    blocks = point_blocks(len(scale))
    bufs = _tile_buffers(3, blocks, n)
    worst = np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            rows_b = _rows(b, n)
            for c in point_blocks(b.stop):  # the blocks up to and including b
                rows_c = _rows(c, n)
                tile = np.matmul(xh[rows_c], yr[rows_b].T, out=_tile(bufs[0], c, b, n))  # E(c, b)
                mirror = np.matmul(yr[rows_c], xh[rows_b].T, out=_tile(bufs[1], c, b, n))
                np.conjugate(mirror, out=mirror)  # E(b, c)*
                part = _tile(bufs[2], c, b, n)
                for i, op in enumerate((np.add, np.subtract)):
                    norms = _block_norms(op(tile, mirror, out=part), n)
                    worst[i] = np.maximum.reduce([  # keeps a NaN
                        worst[i], np.max(norms / scale[b]), np.max(norms / scale[c, None])])
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
