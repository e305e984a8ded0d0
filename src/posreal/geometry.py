"""Domain geometry, sign conditions, de-homogenization, and realness structure.

The evaluation domain is the union of rotated open polyhalfplanes: a
point belongs to it iff some half-plane direction exp(i theta) sees all
coordinates strictly in its right half-plane.  Membership reduces to a
circular-gap test on the coordinate arguments.  The module also hosts
the four-polyhalfplane sign conditions equivalent to homogeneity plus
positivity, the de-homogenization bijection, and anti-unitary
involutions for the operator analogue of realness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    argument_arc,
    as_matrix,
    as_points,
    hermitian_part,
    eigh_or_refuse,
    operator_norm,
    scale_of,
)

__all__ = [
    "in_right_polyhalfplane",
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
    "is_iota_symmetric",
    "is_iota_real_function",
    "check_real_pencil",
    "check_real_colligation",
    "taylor_realness_residual",
]


def in_right_polyhalfplane(z) -> bool:
    z = np.asarray(z, dtype=complex)
    return bool(np.all(z.real > 0))


def _coverage_arc(z: np.ndarray) -> tuple[float, float] | None:
    """Open arc of directions theta covering all arguments of z within pi/2.

    Returns (lo, hi) with hi - lo < pi describing {theta : all args lie
    in (theta - pi/2, theta + pi/2)}, or None when empty.  The arc is
    computed from the largest circular gap between sorted arguments.
    """
    start, gap = (float(v[0]) for v in argument_arc(z[None, :]))
    if gap <= np.pi:
        return None
    spread = 2.0 * np.pi - gap                   # points occupy [start, start+spread]
    return start + spread - np.pi / 2.0, start + np.pi / 2.0


def in_omega(z) -> bool:
    """Membership in the open union of rotated polyhalfplanes.

    True iff no coordinate vanishes and the open half-arcs centered at
    the coordinate arguments intersect, i.e. the largest circular gap
    between arguments strictly exceeds pi.  Boundary points (gap equal
    to pi, or a zero coordinate) are outside: the domain is open.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0 or np.any(z == 0):
        return False
    return _coverage_arc(z) is not None


def in_omega_oracle(z, resolution: int = 100_000) -> bool:
    """Brute-force membership: scan directions on a uniform circle grid.

    Agrees with ``in_omega`` for points whose angular margin from the
    boundary exceeds the grid step.
    """
    if resolution < 10_000:
        raise ValidationError("oracle resolution must be at least 10^4")
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0 or np.any(z == 0):
        return False
    thetas = 2.0 * np.pi * np.arange(resolution) / resolution
    rot = np.exp(-1j * thetas)[:, None] * z[None, :]
    return bool(np.any(np.all(rot.real > 0, axis=1)))


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
    pts = np.asarray(pts, dtype=complex)
    if pts.ndim == 1:
        pts = pts[None, :]
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


def in_omega_plus(z) -> bool:
    """Membership in the de-homogenized domain: directions restricted to Re > 0.

    Same arc test as ``in_omega`` but the covering direction must lie in
    the open right half-circle.  The empty point (zero variables) is
    inside: constants are admissible.
    """
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0:
        return True
    if np.any(z == 0):
        return False
    arc = _coverage_arc(z)
    if arc is None:
        return False
    lo, hi = arc
    # Intersect the open arc (lo, hi) with (-pi/2, pi/2) on the circle:
    # two open arcs, each no longer than pi, meet iff the circular
    # distance of their centers is less than half the sum of lengths.
    c1, l1 = (lo + hi) / 2.0, hi - lo
    dist = abs((c1 + np.pi) % (2.0 * np.pi) - np.pi)  # circular distance to 0
    return bool(dist < (l1 + np.pi) / 2.0)


def in_omega_plus_oracle(z, resolution: int = 100_000) -> bool:
    if resolution < 10_000:
        raise ValidationError("oracle resolution must be at least 10^4")
    z = np.asarray(z, dtype=complex).ravel()
    if z.size == 0:
        return True
    if np.any(z == 0):
        return False
    thetas = np.pi * (np.arange(resolution) + 0.5) / resolution - np.pi / 2.0
    rot = np.exp(-1j * thetas)[:, None] * z[None, :]
    return bool(np.any(np.all(rot.real > 0, axis=1)))


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

    def min_eig(vals):
        return np.array([eigh_or_refuse(hermitian_part(v))[0][0] for v in vals])

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
        if np.any(min_eig(sign * test) < -slack):
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
        vals = _eval_source(self.source, full, pol)
        return vals[0] if np.asarray(zp).ndim == 1 else vals


def _eval_source(source, pts, pol):
    if hasattr(source, "pencil"):
        return source(pts, pol)
    out = np.asarray(source(pts), dtype=complex)
    return out


def dehomogenize(f, num_vars: int | None = None) -> DehomogenizedView:
    n = getattr(f, "num_vars", num_vars)
    if n is None:
        raise ValidationError("num_vars required for callable sources")
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
        for q in quot:
            if not in_omega_plus(q):
                raise ValidationError("quotient point outside the de-homogenized domain")
        vals = np.asarray(g(quot) if not hasattr(g, "pencil") else g(quot, pol), dtype=complex)
        out = last[:, None, None] * vals
        return out[0] if np.asarray(z).ndim == 1 else out

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

    def apply(self, u) -> np.ndarray:
        return self.J @ np.conj(np.asarray(u, dtype=complex))

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


def is_iota_symmetric(a, iota: AntiUnitaryInvolution,
                      pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    return iota_symmetric_residual(a, iota) <= pol.residual_tol * scale_of(a)


def is_iota_real_function(evaluator, iota: AntiUnitaryInvolution, samples,
                          pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Check iota f(conj z) iota = f(z) on a conjugate-closed sample set."""
    pts = np.asarray(samples, dtype=complex)
    vals = np.asarray(evaluator(pts), dtype=complex)
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


def taylor_realness_residual(f, step: float = 1e-3,
                             pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Worst deviation of order-<=2 Taylor coefficients at e from real symmetry.

    Central finite differences at the base point e = (1, ..., 1); the
    order is limited to two to keep the conditioning acceptable.  For a
    conjugation-real function the coefficients must be real symmetric.
    """
    n = f.num_vars

    def val(shifts) -> np.ndarray:
        z = np.ones(n, dtype=complex)
        for k, s in shifts:
            z[k] += s
        return f(z, pol) if hasattr(f, "pencil") else np.asarray(f(z[None]), dtype=complex)[0]

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
