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
    "hermitian_part",
    "skew_part",
    "operator_norm",
    "argument_arc",
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
