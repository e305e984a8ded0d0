"""Cayley-type maps between the polyhalfplane and the polydisk.

Four related maps live here: the per-coordinate variable Cayley map
between the open right half-plane and the unit disk, the value map
F -> (F - I)(F + I)^{-1} on operator values, their composition (the
double Cayley transform of a realized function), and the induced
transforms of the kernel factors.  The operator Cayley maps of the
calculus module are the value maps applied to a stacked tuple.
Every division by F + I (or I - S) is one guarded right division, whose
guard first tries a proven condition bound (``f_plus_i_condition_bound``,
``i_minus_s_condition_bound``).  The theta tables of a pencil divide by
nothing: they are the state response of its colligation
(``colligation.colligation_from_pencil``), whose transfer function is S.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_points,
    like_points,
    neumann_condition_bound,
)
from .colligation import colligation_from_pencil, state_response
from .kernels import KernelEvaluator
from .pencil import RealizedFunction, _refuse_ill_conditioned, as_evaluator

__all__ = [
    "BOUNDARY_GUARD",
    "disk_to_halfplane",
    "value_cayley",
    "inv_value_cayley",
    "f_plus_i_condition_bound",
    "i_minus_s_condition_bound",
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


def f_plus_i_condition_bound(values) -> np.ndarray:
    """Certified upper bound on cond(F + I) for stacked values F (B, n, n); +inf where none is proven.

    Gershgorin's theorem on the Hermitian part H = (F + F*)/2 gives
    lambda_min(H) >= lambda_G = min_i (H_ii - sum_{j != i} |H_ij|).  For
    every unit vector x, |x* (F + I) x| >= Re x* (F + I) x >= 1 + lambda_G,
    so sigma_min(F + I) >= 1 + lambda_G, while ||F + I|| <= ||F + I||_F.
    Hence cond(F + I) <= ||F + I||_F / (1 + lambda_G) when lambda_G > -1.
    """
    fv = np.asarray(values, dtype=complex)
    out = np.full(fv.shape[0], np.inf)
    # huge or non-finite values overflow to inf or nan here: nothing is proven
    with np.errstate(over="ignore", invalid="ignore"):
        herm = 0.5 * (fv + fv.conj().transpose(0, 2, 1))
        diag = np.diagonal(herm, axis1=1, axis2=2).real
        radius = np.abs(herm).sum(axis=2) - np.abs(diag)
        low = 1.0 + np.min(diag - radius, axis=1, initial=np.inf)
        num = np.linalg.norm(fv + np.eye(fv.shape[-1]), axis=(1, 2))
        ok = low > 0
        out[ok] = num[ok] / low[ok]
    return out


def i_minus_s_condition_bound(values) -> np.ndarray:
    """Certified upper bound on cond(I - S) for stacked values S (B, n, n); +inf where none is proven.

    s = min(||S||_F, sqrt(||S||_1 ||S||_inf)) >= ||S||, so
    ``core.neumann_condition_bound`` gives cond(I - S) <= (1 + s)/(1 - s)
    when s < 1.
    """
    sv = np.asarray(values, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as in f_plus_i_condition_bound
        mags = np.abs(sv)  # ||S||_1 and ||S||_inf are the largest column and row sums of |S|
        norm_1, norm_inf = (np.max(mags.sum(axis=a), axis=1, initial=0.0) for a in (1, 2))
        s = np.minimum(np.linalg.norm(sv, axis=(1, 2)), np.sqrt(norm_1 * norm_inf))
    return neumann_condition_bound(s)


def _right_divide(x: np.ndarray, y: np.ndarray, pol: TolerancePolicy, what: str,
                  bound: np.ndarray) -> np.ndarray:
    """X Y^{-1} on stacks (B, r, n) and (B, n, n): one guard on Y (named ``what``,
    certified by ``bound`` where it clears), one LU solve."""
    _refuse_ill_conditioned(y, pol, what, bound=bound)
    return np.linalg.solve(y.transpose(0, 2, 1), x.transpose(0, 2, 1)).transpose(0, 2, 1)


def value_cayley(values, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """S = (F - I)(F + I)^{-1} on stacked values F (B, n, n).

    Refuses when -1 sits in the spectrum of some F (F + I singular); the
    guard first tries ``f_plus_i_condition_bound``.
    """
    f_vals = np.asarray(values, dtype=complex)
    eye = np.eye(f_vals.shape[-1], dtype=complex)
    return _right_divide(f_vals - eye, f_vals + eye, pol, "F(w) + I",
                         f_plus_i_condition_bound(f_vals))


def inv_value_cayley(values, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """F = (I + S)(I - S)^{-1} on stacked values S (B, n, n); inverse of ``value_cayley``.

    Refuses when 1 sits in the spectrum of some S (I - S singular); the
    guard first tries ``i_minus_s_condition_bound``.
    """
    sv = np.asarray(values, dtype=complex)
    eye = np.eye(sv.shape[-1], dtype=complex)
    return _right_divide(eye + sv, eye - sv, pol, "I - S(w)", i_minus_s_condition_bound(sv))


class DiskFunctionView:
    """Polydisk view F(w) = f(z(w)) of a halfplane evaluator, plus its value Cayley.

    ``source`` is either a RealizedFunction or any callable mapping a
    batch of halfplane points (B, N) to values (B, n, n).
    """

    def __init__(self, source, num_vars: int | None = None,
                 pol: TolerancePolicy = DEFAULT_POLICY):
        self.num_vars = getattr(source, "num_vars", None) if num_vars is None else num_vars
        if self.num_vars is None:
            raise ValidationError("num_vars is required for callable sources")
        self._eval = as_evaluator(source, pol)
        self.pol = pol

    def eval_F(self, w) -> np.ndarray:
        """Herglotz-side value F(w); batched over disk points."""
        pts = as_points(w, self.num_vars)
        z = disk_to_halfplane(pts)
        out = self._eval(z)
        if out.ndim == 2:
            out = out[None]
        if out.ndim != 3 or out.shape[0] != len(pts) or out.shape[1] != out.shape[2]:
            raise ShapeError(f"evaluator returned shape {out.shape} for {len(pts)} points, "
                             "expected one square matrix per point")
        return like_points(w, out)

    def eval_double_cayley(self, w) -> np.ndarray:
        """Schur-side value (F(w) - I)(F(w) + I)^{-1}; contractive on the class."""
        return like_points(w, value_cayley(self.eval_F(as_points(w, self.num_vars)), self.pol))

    def __call__(self, w) -> np.ndarray:
        return self.eval_double_cayley(w)


def inv_double_cayley(schur_eval, w, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Recover F(w) = (I + S(w))(I - S(w))^{-1} from a Schur-side evaluator.

    ``schur_eval`` maps a batch of disk points to stacked values.
    Refuses when 1 sits in the spectrum of S(w) (I - S singular).
    """
    sv = np.asarray(schur_eval(np.atleast_2d(np.asarray(w, dtype=complex))), dtype=complex)
    return like_points(w, inv_value_cayley(sv[None] if sv.ndim == 2 else sv, pol))


class DiskKernelEvaluator:
    """Disk-side kernel transforms of a pencil's kernel factors.

    xi_k(w)    = sqrt(2)/(1 - w_k) * phi_k(z(w))
    Xi_k(w,o)  = xi_k(o)* xi_k(w)            (Herglotz-side kernels)
    theta_k(w) = sqrt(2) * xi_k(w) (F(w) + I)^{-1}
    Theta_k    = theta_k(o)* theta_k(w)      (Schur-side kernels)

    Everything is an evaluator view over the pencil; no power-series
    coefficients are stored on this path.  ``theta_table`` is the state
    response of the pencil's colligation
    (``colligation.colligation_from_pencil``), whose transfer identities
    are the Schur-side identities (``colligation.agler_identity_residual``).
    ``xi`` reads phi_k(z(w)) from one ``KernelSampleSet`` at z(w), one
    d(z) solve; divided by F + I it is the cross-check of the theta tables.
    """

    def __init__(self, f: RealizedFunction, pol: TolerancePolicy = DEFAULT_POLICY):
        self.f = f
        self.pol = pol
        self.kernels = KernelEvaluator(f, pol)

    @property
    def num_vars(self) -> int:
        return self.f.num_vars

    def xi(self, k: int, w) -> np.ndarray:
        """xi_k(w), an m_k x n matrix from phi_k(z(w)); batched over disk points."""
        pts = as_points(w, self.num_vars)
        table = self.kernels.phi_table(disk_to_halfplane(pts)).factors[k]
        return like_points(w, (np.sqrt(2.0) / (1.0 - pts[:, k]))[:, None, None] * table)

    def theta_table(self, grid) -> list[np.ndarray]:
        """theta_k on the grid for every k, one (g, m_k, n) array each, from one state solve."""
        pts = as_points(grid, self.num_vars)
        disk_to_halfplane(pts)  # refuses points near the unit circle
        return state_response(colligation_from_pencil(self.f, self.pol), pts, self.pol)[0]
