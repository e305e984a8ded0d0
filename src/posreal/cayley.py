"""Cayley-type maps between the polyhalfplane and the polydisk.

Four related maps live here: the per-coordinate variable Cayley map
between the open right half-plane and the unit disk, the value map
F -> (F - I)(F + I)^{-1} on operator values, their composition (the
double Cayley transform of a realized function), and the induced
transforms of the kernel factors.  The operator Cayley map on matrix
tuples is exposed at matrix level; tuple wrappers live in the calculus
module.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    as_points,
    hermitian_split_residuals,
)
from .colligation import transfer_identity_residuals
from .kernels import KernelEvaluator
from .pencil import RealizedFunction, _refuse_ill_conditioned

__all__ = [
    "BOUNDARY_GUARD",
    "disk_to_halfplane",
    "halfplane_to_disk",
    "cayley_matrix",
    "inv_cayley_matrix",
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


def cayley_matrix(t) -> np.ndarray:
    """(I + T)(I - T)^{-1} for a single matrix."""
    t = as_matrix(t, square=True)
    eye = np.eye(t.shape[0], dtype=complex)
    return np.linalg.solve((eye - t).T, (eye + t).T).T


def inv_cayley_matrix(r) -> np.ndarray:
    """(R - I)(R + I)^{-1}, inverse of ``cayley_matrix``."""
    r = as_matrix(r, square=True)
    eye = np.eye(r.shape[0], dtype=complex)
    return np.linalg.solve((r + eye).T, (r - eye).T).T


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
    coefficients are stored on this path.
    """

    def __init__(self, f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY):
        self.f = f
        self.pol = pol
        self.kernels = KernelEvaluator(f, pol)
        self.view = DiskFunctionView(f, pol=pol)

    @property
    def num_vars(self) -> int:
        return self.f.num_vars

    def _xi_tables(self, pts: np.ndarray, ks, solve=None) -> list[np.ndarray]:
        """xi_k at a batch of disk points for each k in ks, from one psi evaluation.

        ``solve`` is passed to ``psi`` at the halfplane images z(w).
        """
        ps = self.kernels.psi(disk_to_halfplane(pts), solve)
        return [(np.sqrt(2.0) / (1.0 - pts[:, k]))[:, None, None] * (self.kernels.factors[k] @ ps)
                for k in ks]

    def _theta_tables(self, pts: np.ndarray, ks, fv=None, solve=None) -> list[np.ndarray]:
        """theta_k for each k in ks: one psi, one F(w) unless given, one guard, one solve."""
        xs = self._xi_tables(pts, ks, solve)
        if fv is None:
            fv = self.view.eval_F(pts)
        elif np.shape(fv) != (len(pts), self.f.dim_u, self.f.dim_u):
            raise ShapeError(f"expected F values of shape {(len(pts),) + (self.f.dim_u,) * 2}, "
                             f"got {np.shape(fv)}")
        eye = np.eye(fv.shape[-1], dtype=complex)
        plus = fv + eye
        _refuse_ill_conditioned(plus, self.pol, "F(w) + I")
        rhs = np.concatenate(xs, axis=1)  # (B, sum m_k, n)
        sol = np.linalg.solve(plus.transpose(0, 2, 1), rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        return np.split(np.sqrt(2.0) * sol, np.cumsum([x.shape[1] for x in xs])[:-1], axis=1)

    def xi(self, k: int, w) -> np.ndarray:
        out = self._xi_tables(as_points(w, self.num_vars), [k])[0]
        return out[0] if np.asarray(w).ndim == 1 else out

    def xi_kernel(self, k: int, w, omega) -> np.ndarray:
        xw = np.atleast_3d(self.xi(k, w))
        xo = np.atleast_3d(self.xi(k, omega))
        return np.squeeze(xo.conj().swapaxes(-1, -2) @ xw)

    def theta(self, k: int, w) -> np.ndarray:
        out = self._theta_tables(as_points(w, self.num_vars), [k])[0]
        return out[0] if np.asarray(w).ndim == 1 else out

    def theta_table(self, grid, f_values=None, solve=None) -> list[np.ndarray]:
        """theta_k on the grid for every k, one (g, m_k, n) array each.

        ``f_values`` is F on the same grid when the caller already has it;
        F is then not evaluated again.  ``solve`` is d(z)^{-1} c(z) at the
        halfplane images z(w) of the grid (``pencil.schur_solve`` gives it
        with F(w) = f(z(w))); d(z) is then not solved again.
        """
        return self._theta_tables(as_points(grid, self.num_vars), range(self.num_vars),
                                  f_values, solve)

    def theta_kernel(self, k: int, w, omega) -> np.ndarray:
        tw = np.atleast_3d(self.theta(k, w))
        to = np.atleast_3d(self.theta(k, omega))
        return np.squeeze(to.conj().swapaxes(-1, -2) @ tw)

    def herglotz_identity_residuals(self, grid) -> tuple[float, float]:
        """Residuals of the disk-side sum/difference identities for F.

        plus:  F(w) + F(o)* = sum_k (1 - conj(o_k) w_k) Xi_k(w, o)
        minus: F(w) - F(o)* = sum_k (w_k - conj(o_k)) Xi_k(w, o)
        """
        pts = as_points(grid, self.num_vars)
        xis = np.concatenate(self._xi_tables(pts, range(self.num_vars)), axis=1)
        ws = np.repeat(pts, self.kernels.factor_ranks, axis=1)[:, :, None]
        fv = self.view.eval_F(pts)
        eye = np.broadcast_to(np.eye(fv.shape[-1], dtype=complex), fv.shape)
        # the Hermitian and skew parts of this family carry the weights
        # 1 - conj(o) w and w - conj(o) (see hermitian_split_residuals)
        return hermitian_split_residuals(np.concatenate([(1.0 - ws) * xis, eye], axis=1),
                                         np.concatenate([(1.0 + ws) / 2.0 * xis, -fv], axis=1),
                                         1.0 + np.linalg.norm(fv, axis=(1, 2)))

    def schur_identity_residuals(self, grid) -> tuple[float, float]:
        """Residuals of the disk-side identities for the double Cayley transform.

        plus:  I - S(o)* S(w) = sum_k (1 - conj(o_k) w_k) Theta_k(w, o)
        minus: S(w) - S(o)*   = sum_k (w_k - conj(o_k)) Theta_k(w, o)
        """
        pts = as_points(grid, self.num_vars)
        fv = self.view.eval_F(pts)
        thetas = np.concatenate(self.theta_table(pts, fv), axis=1)
        sv = value_cayley(fv, self.pol)
        weights = np.repeat(pts, self.kernels.factor_ranks, axis=1)
        return transfer_identity_residuals(weights, thetas, thetas, sv,
                                           1.0 + np.linalg.norm(sv, axis=(1, 2)))
