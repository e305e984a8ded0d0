"""Domain geometry, sign conditions, de-homogenization, and realness structure.

The evaluation domain is the union of rotated open polyhalfplanes: a
point belongs to it iff some half-plane direction exp(i theta) sees all
coordinates strictly in its right half-plane.  Membership reduces to a
circular-gap test (``core.argument_arc``), and the de-homogenized
domain is the slice z_N = 1 of the same test.  The module also hosts
the four-polyhalfplane sign conditions equivalent to homogeneity plus
positivity, the de-homogenization bijection, and anti-unitary
involutions for the operator analogue of realness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    argument_arc,
    as_matrix,
    as_points,
    like_points,
    hermitian_part,
    eigvalsh_or_refuse,
    operator_norm,
    scale_of,
)
from .pencil import as_evaluator

__all__ = [
    "in_omega",
    "in_omega_oracle",
    "in_omega_plus",
    "four_quadrant_check",
    "DehomogenizedView",
    "dehomogenize",
    "homogenize",
    "AntiUnitaryInvolution",
    "iota_real_residual",
    "iota_symmetric_residual",
    "is_iota_real_operator",
    "is_iota_real_function",
    "check_real_pencil",
    "check_real_colligation",
    "taylor_realness_residual",
]


def in_omega(z):
    """Membership in the open union of rotated polyhalfplanes.

    ``z`` is one point (N,) or a batch (B, N).  True iff no coordinate
    vanishes and the largest circular gap between the coordinate
    arguments (``core.argument_arc``) strictly exceeds pi: then the open
    half-arcs centered at the arguments intersect.  Boundary points (gap
    equal to pi, or a zero coordinate) are outside, as are points with
    no coordinates and points with a NaN coordinate.
    """
    pts = np.atleast_2d(np.asarray(z, dtype=complex))
    if pts.shape[1] == 0:
        return like_points(z, np.zeros(len(pts), dtype=bool))
    return like_points(z, np.all(pts != 0, axis=1) & (argument_arc(pts)[1] > np.pi))


def in_omega_plus(z):
    """Membership in the de-homogenized domain {z' : (z', 1) in Omega}.

    ``in_omega`` of (z', 1) for one point z' or each row of a batch.  A
    direction exp(i theta) sees the appended coordinate 1 in its open
    right half-plane iff cos theta > 0, so this is the arc test on z'
    with the covering direction restricted to theta in (-pi/2, pi/2).
    The empty point (zero variables) is inside: constants are
    admissible.  A zero coordinate is outside.
    """
    pts = np.atleast_2d(np.asarray(z, dtype=complex))
    return like_points(z, in_omega(np.pad(pts, ((0, 0), (0, 1)), constant_values=1.0)))


@lru_cache(maxsize=8)
def _direction_ring(resolution: int, half: bool) -> np.ndarray:
    """Read-only exp(-i theta), theta = 2 pi j / resolution or (``half``) the right half-circle's cells."""
    j = np.arange(resolution)
    thetas = np.pi * (j + 0.5) / resolution - np.pi / 2.0 if half else 2.0 * np.pi * j / resolution
    ring = np.exp(-1j * thetas)
    ring.flags.writeable = False
    return ring


def _oracle_scan(z, resolution: int, half: bool, empty: bool) -> bool:
    """Some grid direction sees every coordinate in its open right half-plane; ``empty`` if none."""
    if resolution < 10_000:
        raise ValidationError("oracle resolution must be at least 10^4")
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0:
        return empty
    if np.any(z == 0):
        return False
    return bool(np.any(np.all((_direction_ring(resolution, half)[:, None] * z).real > 0, axis=1)))


def in_omega_oracle(z, resolution: int = 100_000) -> bool:
    """Brute-force membership: scan directions on a uniform circle grid.

    Agrees with ``in_omega`` for points whose angular margin from the
    boundary exceeds the grid step.
    """
    return _oracle_scan(z, resolution, half=False, empty=False)


def in_omega_oracle_batch(pts, resolution: int = 100_000) -> np.ndarray:
    """Exact value of the grid oracle for many points at once.

    Computes, for each point, whether some grid direction index j
    satisfies 2 pi j / resolution in the intersection of the coordinate
    half-arcs.  The intersection is folded one coordinate at a time in
    index units (each half-arc spans resolution/2 indices, so a single
    aligned shift suffices); the result equals ``in_omega_oracle``
    bit for bit away from exact grid ties.
    """
    if resolution < 10_000:
        raise ValidationError("oracle resolution must be at least 10^4")
    pts = np.atleast_2d(np.asarray(pts, dtype=complex))
    if pts.shape[1] == 0:
        return np.zeros(len(pts), dtype=bool)  # as ``in_omega_oracle([])``
    nonzero = np.all(pts != 0, axis=1)
    centers = np.angle(pts) * resolution / (2.0 * np.pi)  # (B, N) index units
    half = resolution / 4.0
    lo = centers[:, 0] - half
    hi = centers[:, 0] + half
    for k in range(1, pts.shape[1]):
        mid = (lo + hi) / 2.0
        shift = np.round((mid - centers[:, k]) / resolution) * resolution
        ck = centers[:, k] + shift
        lo = np.maximum(lo, ck - half)
        hi = np.minimum(hi, ck + half)
    exists = np.floor(lo) + 1 < hi
    return nonzero & (hi > lo) & exists


def in_omega_plus_oracle(z, resolution: int = 100_000) -> bool:
    """Brute-force ``in_omega_plus``: scan directions on a grid of the open right half-circle."""
    return _oracle_scan(z, resolution, half=True, empty=True)


def four_quadrant_check(evaluator, num_vars: int, rng, samples: int = 50,
                        pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Sign conditions on the four distinguished polyhalfplanes.

    Re f >= 0 on the right polyhalfplane, <= 0 on its negative, and
    -i-rotated/(+i)-rotated polyhalfplanes carry the corresponding
    conditions on i (f* - f).  Together these are equivalent to
    homogeneity plus positivity for holomorphic evaluators.
    """
    base = rng.standard_normal((samples, num_vars)) ** 2 + 0.05
    base = base + 1j * rng.standard_normal((samples, num_vars))

    for rot, sign, part in (
        (1.0, 1.0, "herm"), (-1.0, -1.0, "herm"),
        (1j, 1.0, "skew"), (-1j, -1.0, "skew"),
    ):
        pts = rot * base
        vals = np.asarray(evaluator(pts), dtype=complex)
        if part == "herm":
            test = vals + vals.conj().transpose(0, 2, 1)
        else:
            test = 1j * (vals.conj().transpose(0, 2, 1) - vals)
        slack = pol.psd_slack * (1.0 + np.linalg.norm(vals, axis=(1, 2)))
        if np.any(eigvalsh_or_refuse(hermitian_part(sign * test))[:, 0] < -slack):
            return False
    return True


@dataclass(frozen=True)
class DehomogenizedView:
    """g(z') = f(z', 1), defined on the de-homogenized domain."""

    source: object  # RealizedFunction or callable over stacked points
    num_vars: int   # variables of the underlying homogeneous function

    def __call__(self, zp, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
        pts = as_points(zp, self.num_vars - 1)
        full = np.concatenate([pts, np.ones((len(pts), 1), dtype=complex)], axis=1)
        return like_points(zp, as_evaluator(self.source, pol)(full))


def dehomogenize(f) -> DehomogenizedView:
    n = getattr(f, "num_vars", None)
    if n is None:
        raise ValidationError("de-homogenization needs a source with num_vars")
    if n < 2:
        raise ValidationError("de-homogenization needs at least two variables")
    return DehomogenizedView(f, n)


def homogenize(g, num_vars: int):
    """Evaluator z -> z_N g(z_1/z_N, ..., z_{N-1}/z_N) from a de-homogenized g.

    Requires z_N != 0 and the quotient point inside the de-homogenized
    domain.
    """

    def evaluate(z, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
        pts = as_points(z, num_vars)
        last = pts[:, -1]
        if np.any(last == 0):
            raise ValidationError("homogenization requires a nonzero last coordinate")
        quot = pts[:, :-1] / last[:, None]
        if not np.all(in_omega_plus(quot)):
            raise ValidationError("quotient point outside the de-homogenized domain")
        return like_points(z, last[:, None, None] * as_evaluator(g, pol)(quot))

    return evaluate


# ---------------------------------------------------------------------------
# Anti-unitary involutions


@dataclass(frozen=True)
class AntiUnitaryInvolution:
    """iota(u) = J conj(u) for a unitary J with J conj(J) = I.

    The unitary part is the finite-dimensional canonical form of an
    anti-linear, inner-product-reversing, self-inverse map.
    """

    J: np.ndarray

    def __post_init__(self):
        j = as_matrix(self.J, square=True)
        object.__setattr__(self, "J", j)

    def validate(self, pol: TolerancePolicy = DEFAULT_POLICY) -> None:
        eye = np.eye(self.J.shape[0])
        if operator_norm(self.J.conj().T @ self.J - eye) > pol.residual_tol:
            raise ValidationError("J must be unitary")
        if operator_norm(self.J @ self.J.conj() - eye) > pol.residual_tol:
            raise ValidationError("J conj(J) must be the identity (iota^2 = I)")

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    @classmethod
    def conjugation(cls, dim: int) -> "AntiUnitaryInvolution":
        """Entrywise complex conjugation (J = I)."""
        return cls(np.eye(dim, dtype=complex))

    def conjugate_operator(self, a) -> np.ndarray:
        """The matrix of iota A iota."""
        a = as_matrix(a, square=True)
        return self.J @ a.conj() @ self.J.conj()

    def direct_sum(self, other: "AntiUnitaryInvolution") -> "AntiUnitaryInvolution":
        d1, d2 = self.dim, other.dim
        j = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        j[:d1, :d1] = self.J
        j[d1:, d1:] = other.J
        return AntiUnitaryInvolution(j)


def iota_real_residual(a, iota: AntiUnitaryInvolution) -> float:
    """||J conj(A) - A J|| (zero iff iota A = A iota)."""
    a = as_matrix(a, square=True)
    if a.shape[0] != iota.dim:
        raise ShapeError("operator and involution dimensions differ")
    return operator_norm(iota.J @ a.conj() - a @ iota.J)


def iota_symmetric_residual(a, iota: AntiUnitaryInvolution) -> float:
    """||J conj(A) - A* J|| (zero iff iota A = A* iota)."""
    a = as_matrix(a, square=True)
    if a.shape[0] != iota.dim:
        raise ShapeError("operator and involution dimensions differ")
    return operator_norm(iota.J @ a.conj() - a.conj().T @ iota.J)


def is_iota_real_operator(a, iota: AntiUnitaryInvolution,
                          pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    return iota_real_residual(a, iota) <= pol.residual_tol * scale_of(a)


def is_iota_real_function(evaluator, iota: AntiUnitaryInvolution, samples,
                          pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Check iota f(conj z) iota = f(z) on a conjugate-closed sample set."""
    pts = np.asarray(samples, dtype=complex)
    vals = np.asarray(evaluator(pts), dtype=complex)
    if vals.shape[-1] != iota.dim:
        raise ShapeError("function and involution dimensions differ")
    vals_conj = np.asarray(evaluator(pts.conj()), dtype=complex)
    for v, vc in zip(vals, vals_conj):
        res = operator_norm(iota.conjugate_operator(vc) - v)
        if res > pol.residual_tol * scale_of(v):
            return False
    return True


def check_real_pencil(f, iota_u: AntiUnitaryInvolution, iota_h: AntiUnitaryInvolution,
                      pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Every pencil coefficient is (iota_U (+) iota_H)-real.

    This implies the realized function itself is iota_U-real.
    """
    if iota_u.dim != f.dim_u or iota_h.dim != f.dim_h:
        raise ShapeError("involution dimensions do not match the pencil partition")
    big = iota_u.direct_sum(iota_h)
    return all(is_iota_real_operator(a, big, pol) for a in f.pencil.coeffs)


def check_real_colligation(c, iota_x: AntiUnitaryInvolution, iota_u: AntiUnitaryInvolution,
                           pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """iota_X commutes with the state projectors and U is (iota_X (+) iota_U)-real.

    Implies the transfer function is iota_U-real.
    """
    if iota_x.dim != c.dim_state or iota_u.dim != c.n:
        raise ShapeError("involution dimensions do not match the colligation")
    offsets = np.concatenate([[0], np.cumsum(c.dims)])
    for k in range(c.num_vars):
        pk = np.zeros((c.dim_state, c.dim_state), dtype=complex)
        sel = slice(offsets[k], offsets[k + 1])
        pk[sel, sel] = np.eye(offsets[k + 1] - offsets[k])
        if operator_norm(iota_x.J @ pk - pk @ iota_x.J) > pol.residual_tol:
            raise ShapeError("iota_X does not respect the state splitting")
    big = iota_x.direct_sum(iota_u)
    return is_iota_real_operator(c.U, big, pol)


def taylor_realness_residual(f, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Worst deviation of order-<=2 Taylor coefficients at e from real symmetry.

    Central finite differences at the base point e = (1, ..., 1); the
    order is limited to two to keep the conditioning acceptable.  For a
    conjugation-real function the coefficients must be real symmetric.
    """
    n = f.num_vars
    step = 1e-3  # central-difference step
    evaluate = as_evaluator(f, pol)

    def val(shifts) -> np.ndarray:
        z = np.ones(n, dtype=complex)
        for k, s in shifts:
            z[k] += s
        return evaluate(z[None])[0]

    coeffs = [val([])]
    for k in range(n):
        d1 = (val([(k, step)]) - val([(k, -step)])) / (2.0 * step)
        d2 = (val([(k, step)]) - 2.0 * coeffs[0] + val([(k, -step)])) / step ** 2
        coeffs.append(d1)
        coeffs.append(d2 / 2.0)
        for j in range(k + 1, n):
            dm = (val([(k, step), (j, step)]) - val([(k, step), (j, -step)])
                  - val([(k, -step), (j, step)]) + val([(k, -step), (j, -step)])) / (4.0 * step ** 2)
            coeffs.append(dm)
    worst = 0.0
    for cmat in coeffs:
        scale = 1.0 + operator_norm(cmat)
        worst = max(worst,
                    float(np.max(np.abs(cmat.imag))) / scale,
                    operator_norm(cmat - cmat.T) / scale)
    return worst
