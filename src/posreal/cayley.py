"""Cayley-type maps between the polyhalfplane and the polydisk.

Four related maps live here: the per-coordinate variable Cayley map
between the open right half-plane and the unit disk, the value map
F -> (F - I)(F + I)^{-1} on operator values, their composition (the
double Cayley transform of a realized function), and the induced
transforms of the kernel factors.  The operator Cayley maps of the
calculus module are the value maps applied to a stacked tuple.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_points,
)
from .colligation import transfer_identity_residuals
from .kernels import KernelEvaluator, KernelSampleSet, plus_minus_residuals
from .pencil import RealizedFunction, _refuse_ill_conditioned

__all__ = [
    "BOUNDARY_GUARD",
    "disk_to_halfplane",
    "halfplane_to_disk",
    "value_cayley",
    "inv_value_cayley",
    "DiskFunctionView",
    "inv_double_cayley",
    "DiskKernelEvaluator",
]

# Points closer than this to the unit circle (or the imaginary axis on the
# halfplane side) are rejected; the maps blow up there and residual checks
# would stop being meaningful.
BOUNDARY_GUARD = 1e-8


def disk_to_halfplane(w) -> np.ndarray:
    """z_k = (1 + w_k) / (1 - w_k) coordinatewise, from D^N to the polyhalfplane."""
    w = np.asarray(w, dtype=complex)
    if np.any(np.abs(w) >= 1.0 - BOUNDARY_GUARD):
        raise ValidationError("disk point too close to the unit circle")
    return (1.0 + w) / (1.0 - w)


def halfplane_to_disk(z) -> np.ndarray:
    """w_k = (z_k - 1) / (z_k + 1) coordinatewise, inverse of ``disk_to_halfplane``."""
    z = np.asarray(z, dtype=complex)
    if np.any(z.real <= BOUNDARY_GUARD):
        raise ValidationError("halfplane point too close to the imaginary axis")
    return (z - 1.0) / (z + 1.0)


def value_cayley(values, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """S = (F - I)(F + I)^{-1} on stacked values F (B, n, n).

    Refuses when -1 sits in the spectrum of some F (F + I singular).
    """
    f_vals = np.asarray(values, dtype=complex)
    eye = np.eye(f_vals.shape[-1], dtype=complex)
    plus = f_vals + eye
    _refuse_ill_conditioned(plus, pol, "F(w) + I")
    return np.linalg.solve(plus.transpose(0, 2, 1), (f_vals - eye).transpose(0, 2, 1)).transpose(0, 2, 1)


def inv_value_cayley(values, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """F = (I + S)(I - S)^{-1} on stacked values S (B, n, n); inverse of ``value_cayley``.

    Refuses when 1 sits in the spectrum of some S (I - S singular).
    """
    sv = np.asarray(values, dtype=complex)
    eye = np.eye(sv.shape[-1], dtype=complex)
    minus = eye - sv
    _refuse_ill_conditioned(minus, pol, "I - S(w)")
    return np.linalg.solve(minus.transpose(0, 2, 1), (eye + sv).transpose(0, 2, 1)).transpose(0, 2, 1)


class DiskFunctionView:
    """Polydisk view F(w) = f(z(w)) of a halfplane evaluator, plus its value Cayley.

    ``source`` is either a RealizedFunction or any callable mapping a
    batch of halfplane points (B, N) to values (B, n, n).
    """

    def __init__(self, source, num_vars: int | None = None,
                 pol: TolerancePolicy = DEFAULT_POLICY):
        if isinstance(source, RealizedFunction):
            self.num_vars = source.num_vars
            self._eval = lambda pts: source(pts, pol)
        else:
            if num_vars is None:
                raise ValidationError("num_vars is required for callable sources")
            self.num_vars = num_vars
            self._eval = source
        self.pol = pol

    def eval_F(self, w) -> np.ndarray:
        """Herglotz-side value F(w); batched over disk points."""
        pts = as_points(w, self.num_vars)
        z = disk_to_halfplane(pts)
        out = np.asarray(self._eval(z), dtype=complex)
        if out.ndim == 2:
            out = out[None]
        if out.ndim != 3 or out.shape[0] != len(pts) or out.shape[1] != out.shape[2]:
            raise ShapeError(f"evaluator returned shape {out.shape} for {len(pts)} points, "
                             "expected one square matrix per point")
        return out[0] if np.asarray(w).ndim == 1 else out

    def eval_double_cayley(self, w) -> np.ndarray:
        """Schur-side value (F(w) - I)(F(w) + I)^{-1}; contractive on the class."""
        out = value_cayley(self.eval_F(as_points(w, self.num_vars)), self.pol)
        return out[0] if np.asarray(w).ndim == 1 else out

    def __call__(self, w) -> np.ndarray:
        return self.eval_double_cayley(w)


def inv_double_cayley(schur_eval, w, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Recover F(w) = (I + S(w))(I - S(w))^{-1} from a Schur-side evaluator.

    ``schur_eval`` maps a batch of disk points to stacked values.
    Refuses when 1 sits in the spectrum of S(w) (I - S singular).
    """
    pts = np.asarray(w, dtype=complex)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    sv = np.asarray(schur_eval(pts), dtype=complex)
    out = inv_value_cayley(sv[None] if sv.ndim == 2 else sv, pol)
    return out[0] if single else out


class DiskKernelEvaluator:
    """Disk-side kernel transforms of a pencil's kernel factors.

    xi_k(w)    = sqrt(2)/(1 - w_k) * phi_k(z(w))
    Xi_k(w,o)  = xi_k(o)* xi_k(w)            (Herglotz-side kernels)
    theta_k(w) = sqrt(2) * xi_k(w) (F(w) + I)^{-1}
    Theta_k    = theta_k(o)* theta_k(w)      (Schur-side kernels)

    Everything is an evaluator view over the pencil; no power-series
    coefficients are stored on this path.  Each table and identity
    residual reads F(w) and every phi_k(z(w)) from one ``KernelSampleSet``
    at the halfplane images z(w): one d(z) solve.
    """

    def __init__(self, f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY):
        self.f = f
        self.pol = pol
        self.kernels = KernelEvaluator(f, pol)
        self.view = DiskFunctionView(f, pol=pol)

    @property
    def num_vars(self) -> int:
        return self.f.num_vars

    def _xi_tables(self, pts: np.ndarray, samples: KernelSampleSet) -> list[np.ndarray]:
        """xi_k at a batch of disk points for every k, from the samples at z(w)."""
        return [(np.sqrt(2.0) / (1.0 - pts[:, k]))[:, None, None] * t
                for k, t in enumerate(samples.factors)]

    def _theta_tables(self, pts: np.ndarray, samples: KernelSampleSet) -> list[np.ndarray]:
        """theta_k for every k from the samples at z(w): one guard, one solve."""
        xs = self._xi_tables(pts, samples)
        fv = samples.f_samples
        eye = np.eye(fv.shape[-1], dtype=complex)
        plus = fv + eye
        _refuse_ill_conditioned(plus, self.pol, "F(w) + I")
        rhs = np.concatenate(xs, axis=1)  # (B, sum m_k, n)
        sol = np.linalg.solve(plus.transpose(0, 2, 1), rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        return np.split(np.sqrt(2.0) * sol, np.cumsum([x.shape[1] for x in xs])[:-1], axis=1)

    def xi(self, k: int, w) -> np.ndarray:
        pts = as_points(w, self.num_vars)
        out = self._xi_tables(pts, self.kernels.phi_table(disk_to_halfplane(pts)))[k]
        return out[0] if np.asarray(w).ndim == 1 else out

    def xi_kernel(self, k: int, w, omega) -> np.ndarray:
        xw = np.atleast_3d(self.xi(k, w))
        xo = np.atleast_3d(self.xi(k, omega))
        return np.squeeze(xo.conj().swapaxes(-1, -2) @ xw)

    def theta(self, k: int, w) -> np.ndarray:
        pts = as_points(w, self.num_vars)
        out = self._theta_tables(pts, self.kernels.phi_table(disk_to_halfplane(pts)))[k]
        return out[0] if np.asarray(w).ndim == 1 else out

    def theta_table(self, grid, samples: KernelSampleSet | None = None) -> list[np.ndarray]:
        """theta_k on the grid for every k, one (g, m_k, n) array each.

        ``samples`` is the ``KernelSampleSet`` that ``kernels.phi_table``
        takes at the halfplane images z(w) = ``disk_to_halfplane(grid)``;
        its ``f_samples`` are F(w), so d(z) is not solved again.  A set
        taken at other points is refused.
        """
        pts = as_points(grid, self.num_vars)
        if samples is None:
            samples = self.kernels.phi_table(disk_to_halfplane(pts))
        elif not np.array_equal(samples.grid, disk_to_halfplane(pts)):
            raise ValidationError("kernel samples were not taken at the halfplane images of the grid")
        return self._theta_tables(pts, samples)

    def theta_kernel(self, k: int, w, omega) -> np.ndarray:
        tw = np.atleast_3d(self.theta(k, w))
        to = np.atleast_3d(self.theta(k, omega))
        return np.squeeze(to.conj().swapaxes(-1, -2) @ tw)

    def herglotz_identity_residuals(self, grid) -> tuple[float, float]:
        """Residuals of the disk-side sum/difference identities for F.

        plus:  F(w) + F(o)* = sum_k (1 - conj(o_k) w_k) Xi_k(w, o)
        minus: F(w) - F(o)* = sum_k (w_k - conj(o_k)) Xi_k(w, o)

        This is the halfplane pair of ``kernels.plus_minus_residuals`` at
        z = z(w), zeta = z(o): (1 - w_k) xi_k(w) = sqrt(2) phi_k(z) and
        (1 + w_k) xi_k(w) / 2 = z_k phi_k(z) / sqrt(2) give the same
        cross-Gram, and 1 + ||F(w)|| = 1 + ||f(z)|| the same scale.
        """
        pts = as_points(grid, self.num_vars)
        return plus_minus_residuals(self.f, disk_to_halfplane(pts), self.pol)

    def schur_identity_residuals(self, grid) -> tuple[float, float]:
        """Residuals of the disk-side identities for the double Cayley transform.

        plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) Theta_k(w, o)
        minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) Theta_k(w, o)
        """
        pts = as_points(grid, self.num_vars)
        samples = self.kernels.phi_table(disk_to_halfplane(pts))
        thetas = np.concatenate(self._theta_tables(pts, samples), axis=1)
        sv = value_cayley(samples.f_samples, self.pol)
        weights = np.repeat(pts, self.kernels.factor_ranks, axis=1)
        return transfer_identity_residuals(weights, thetas, sv,
                                           1.0 + np.linalg.norm(sv, axis=(1, 2)))
