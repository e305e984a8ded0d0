"""Dense complex matrix substrate shared by every other module.

Hermitian symmetrization, PSD certification, PSD square roots, operator
norms, and the tolerance policy.  All matrices are plain ``numpy`` arrays
of ``complex128``; nothing here is aware of pencils or kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "hermitian_part",
    "skew_part",
    "operator_norm",
    "argument_arc",
    "cross_gram_residual",
    "scale_of",
    "is_hermitian",
    "PsdReport",
    "is_psd",
    "psd_sqrt",
    "eigh_or_refuse",
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
    exists (via ``scale_of``), absolute for scalars.

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

    psd_slack: float = 1e-10
    residual_tol: float = 1e-9
    commutator_tol: float = 1e-10
    margin: float = 1e-6

    def __post_init__(self):
        for name in ("psd_slack", "residual_tol", "commutator_tol", "margin"):
            if getattr(self, name) < 0:
                raise ValidationError(f"tolerance {name} must be nonnegative")


DEFAULT_POLICY = TolerancePolicy()

# Grid points b per block of the Gram formed in ``cross_gram_residual``.
_ROW_BLOCK = 32


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size and not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValidationError("matrix contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_points(z, num_vars: int) -> np.ndarray:
    """Coerce one point or a batch of points to shape (B, N)."""
    pts = np.asarray(z, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != num_vars:
        raise ShapeError(f"expected points with {num_vars} coordinates, got shape {pts.shape}")
    return pts


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


def cross_gram_residual(x, y, scale=None) -> float:
    """Largest ||x(c)* y(b)|| / scale(b) over all pairs of grid points (b, c).

    ``x`` and ``y`` stack one M x n matrix per grid point, shape (g, M, n);
    the norm is the Frobenius norm and ``scale`` (g,) defaults to 1.  A
    two-point identity "weighted kernels sum to a target" holds exactly
    when such a cross-Gram vanishes, with the factor tables, the weights
    and the target stacked into x and y.  The Gram is formed _ROW_BLOCK
    points b at a time, one matrix product each, so memory is
    O(_ROW_BLOCK g n^2), not O(g^2 n^2).
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.ndim != 3 or x.shape != y.shape:
        raise ShapeError(f"expected two (g, M, n) families of one shape, got {x.shape}, {y.shape}")
    g, m, n = x.shape
    scale = np.ones(g) if scale is None else np.asarray(scale, dtype=float)
    xh = x.transpose(0, 2, 1).reshape(g * n, m).conj()  # rows (c, i)
    yt = y.transpose(1, 0, 2).reshape(m, g * n)  # columns (b, j)
    worst = 0.0
    for b in range(0, g, _ROW_BLOCK):
        gram = (xh @ yt[:, b * n:(b + _ROW_BLOCK) * n]).reshape(g, n, -1, n)
        res = np.linalg.norm(gram, axis=(1, 3)) / scale[b:b + _ROW_BLOCK]
        worst = np.maximum(worst, np.max(res))  # unlike max(), keeps a NaN
    return float(worst)


def scale_of(m) -> float:
    """Relative-tolerance scale ``1 + ||m||`` (absolute floor for tiny norms)."""
    return 1.0 + operator_norm(m)


def hermitian_part(m) -> np.ndarray:
    """(M + M*) / 2 of a square matrix."""
    a = as_matrix(m, square=True)
    return (a + a.conj().T) / 2.0


def skew_part(m) -> np.ndarray:
    """(M - M*) / 2 of a square matrix."""
    a = as_matrix(m, square=True)
    return (a - a.conj().T) / 2.0


def is_hermitian(m, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    a = as_matrix(m, square=True)
    if a.size == 0:
        return True
    return operator_norm(a - a.conj().T) <= pol.residual_tol * scale_of(a)


def eigh_or_refuse(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition; converts LAPACK breakdown to a refusal."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalRefusalError(f"eigendecomposition failed: {exc}") from exc


@dataclass(frozen=True)
class PsdReport:
    """Outcome of a PSD certification, with the witnessing minimal eigenvalue."""

    ok: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.ok


def is_psd(m, pol: TolerancePolicy = DEFAULT_POLICY) -> PsdReport:
    """Certify positive semidefiniteness of a Hermitian matrix.

    Uses an eigendecomposition rather than Cholesky so that
    rank-deficient PSD matrices are first-class citizens.  ``ok`` is
    true iff the minimal eigenvalue clears ``-psd_slack`` relative to
    the matrix norm.
    """
    a = as_matrix(m, square=True)
    if a.size == 0:
        return PsdReport(True, 0.0)
    if not is_hermitian(a, pol):
        raise ValidationError("is_psd requires a Hermitian matrix")
    w = eigh_or_refuse(hermitian_part(a))[0]
    lo = float(w[0])
    return PsdReport(lo >= -pol.psd_slack * scale_of(a), lo)


def psd_sqrt(m, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Rectangular factor S of a PSD matrix with ``S* S = M``.

    S has one row per eigenvalue above the PSD slack, so its row count
    is the numerical rank of M.  Eigenvalues inside
    ``[-psd_slack, psd_slack]`` (relative) are clamped to zero;
    anything below the floor is an error.
    """
    a = as_matrix(m, square=True)
    if a.size == 0:
        return np.zeros((0, a.shape[0]), dtype=complex)
    if not is_hermitian(a, pol):
        raise ValidationError("psd_sqrt requires a Hermitian matrix")
    w, v = eigh_or_refuse(hermitian_part(a))
    floor = pol.psd_slack * scale_of(a)
    if w[0] < -floor:
        raise ValidationError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > floor
    s = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    return s
