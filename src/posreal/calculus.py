"""Functional calculus on commuting matrix tuples.

Holomorphic polydisk functions act on commuting strict contractions
through their Taylor series, F(T) = sum_t F_t (x) T^t on the tensor
space; realized halfplane functions act on commuting strictly accretive
tuples either through that series after the operator Cayley map, or in
closed form by substituting the tuple into the pencil blocks.  The two
routes must agree, which is enforced as a cross-check.  This module
also hosts the positivity certificate Re f(R) >= 0, the von Neumann
norm test on the Schur side, and the randomized hunt harness for
candidate counterexamples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cayley import cayley_matrix, inv_cayley_matrix
from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    hermitian_part,
    eigh_or_refuse,
    operator_norm,
    scale_of,
)
from .pencil import RealizedFunction, _refuse_ill_conditioned

__all__ = [
    "CommutingTuple",
    "make_tuple",
    "operator_cayley",
    "inverse_operator_cayley",
    "TaylorCoefficients",
    "taylor_from_function",
    "taylor_from_colligation",
    "herglotz_taylor_from_schur",
    "calc_series",
    "calc_realized",
    "accretive_positivity_check",
    "von_neumann_check",
    "pointwise_diagonal_oracle",
    "HuntConfig",
    "hunt",
]


@dataclass(frozen=True)
class CommutingTuple:
    """Commuting matrices with a certified classification.

    kind is "contraction" when every member has norm <= 1 - margin
    (bound = the largest norm), "accretive" when every R_k + R_k* is
    bounded below by a positive multiple of the identity (bound = that
    multiple), and "none" otherwise.
    """

    mats: tuple
    commutator_norm: float
    kind: str
    bound: float

    @property
    def num_vars(self) -> int:
        return len(self.mats)

    @property
    def dim(self) -> int:
        return self.mats[0].shape[0]


def _max_commutator(mats) -> float:
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            den = 1.0 + operator_norm(mats[i]) * operator_norm(mats[j])
            worst = max(worst, operator_norm(comm) / den)
    return worst


def make_tuple(mats, pol: TolerancePolicy = DEFAULT_POLICY, require: str | None = None) -> CommutingTuple:
    """Certify commutativity and classify a tuple of square matrices.

    ``require`` in {"contraction", "accretive"} raises when the
    classification does not come out as requested.
    """
    ms = tuple(as_matrix(m, square=True) for m in mats)
    if not ms:
        raise ShapeError("empty tuple")
    dim = ms[0].shape[0]
    if any(m.shape[0] != dim for m in ms):
        raise ShapeError("tuple members must share one dimension")
    comm = _max_commutator(ms)
    if comm > pol.commutator_tol:
        raise ValidationError(f"commutator norm {comm:.3e} exceeds tolerance")
    norms = [operator_norm(m) for m in ms]
    rho = max(norms)
    accr = min(float(eigh_or_refuse(hermitian_part(m) * 2.0)[0][0]) for m in ms)
    if rho <= 1.0 - pol.margin:
        kind, bound = "contraction", rho
    elif accr >= pol.margin:
        kind, bound = "accretive", accr
    else:
        kind, bound = "none", 0.0
    if require is not None and kind != require:
        if require == "contraction" and rho <= 1.0 - pol.margin:
            kind, bound = "contraction", rho
        elif require == "accretive" and accr >= pol.margin:
            kind, bound = "accretive", accr
        else:
            raise ValidationError(f"tuple is not a strict {require} tuple "
                                  f"(max norm {rho:.6f}, accretivity bound {accr:.3e})")
    return CommutingTuple(ms, comm, kind, bound)


def operator_cayley(t: CommutingTuple, pol: TolerancePolicy = DEFAULT_POLICY) -> CommutingTuple:
    """R_k = (I + T_k)(I - T_k)^{-1}: strict contractions to strictly accretive."""
    if t.kind != "contraction":
        raise ValidationError("operator Cayley transform needs a strict contraction tuple")
    return make_tuple([cayley_matrix(m) for m in t.mats], pol, require="accretive")


def inverse_operator_cayley(r: CommutingTuple, pol: TolerancePolicy = DEFAULT_POLICY) -> CommutingTuple:
    """T_k = (R_k - I)(R_k + I)^{-1}: strictly accretive to strict contractions."""
    if r.kind != "accretive":
        raise ValidationError("inverse operator Cayley transform needs a strictly accretive tuple")
    return make_tuple([inv_cayley_matrix(m) for m in r.mats], pol, require="contraction")


# ---------------------------------------------------------------------------
# Taylor coefficients of polydisk functions


def _multi_indices(num_vars: int, degree: int):
    for total in range(degree + 1):
        for head in itertools.combinations(range(total + num_vars - 1), num_vars - 1):
            idx = []
            prev = -1
            for h in head:
                idx.append(h - prev - 1)
                prev = h
            idx.append(total + num_vars - 1 - prev - 1)
            yield tuple(idx)


@dataclass
class TaylorCoefficients:
    """Taylor table of a holomorphic polydisk function up to a degree.

    ``sup_radius``/``sup_bound`` feed the Cauchy tail estimate: the sup
    of the function norm on the polytorus of that radius (sampled on a
    coarse grid, padded by a safety factor).
    """

    num_vars: int
    dim: int
    degree: int
    coeffs: dict = field(default_factory=dict)
    sup_radius: float = 0.0
    sup_bound: float = math.inf

    def coeff(self, t: tuple) -> np.ndarray:
        return self.coeffs.get(t, np.zeros((self.dim, self.dim), dtype=complex))

    def tail_bound(self, rho: float) -> float:
        """Bound on sum_{|t| > degree} ||F_t|| rho^{|t|} by Cauchy estimates.

        Uses ||F_t|| <= sup_bound / sup_radius^{|t|}; the series in the
        total degree j has binom(j + N - 1, N - 1) terms.
        """
        if rho < 0:
            raise ValidationError("rho must be nonnegative")
        if rho == 0:
            return 0.0
        if not (0 < self.sup_radius <= 1) or not math.isfinite(self.sup_bound):
            return math.inf
        q = rho / self.sup_radius
        if q >= 1.0:
            return math.inf
        n = self.num_vars
        total = 0.0
        j = self.degree + 1
        term = math.comb(j + n - 1, n - 1) * q ** j
        while True:
            total += term
            ratio = q * math.comb(j + n, n - 1) / math.comb(j + n - 1, n - 1)
            j += 1
            term *= ratio / 1.0
            if term < 1e-18 * (1.0 + total):
                # geometric majorant for the remainder
                upper = q * (j + n) / (j + 1)
                if upper < 1.0:
                    total += term / (1.0 - upper)
                break
            if j > self.degree + 10000:
                return math.inf
        return self.sup_bound * total


def taylor_from_function(evaluator, num_vars: int, dim: int, degree: int,
                         radius: float = 0.6, sup_radius: float = 0.9,
                         grid_size: int | None = None,
                         sup_safety: float = 2.0) -> TaylorCoefficients:
    """Taylor coefficients by discrete Cauchy integrals on a polytorus.

    Samples the evaluator on a uniform polytorus of the given radius and
    reads coefficients off a multidimensional FFT; aliasing decays like
    (radius / holomorphy radius)^grid_size.  The sup bound for the tail
    estimate is sampled on the larger ``sup_radius`` torus.
    """
    if grid_size is None:
        grid_size = 1
        while grid_size < max(2 * (degree + 1), 32):
            grid_size *= 2
    if grid_size <= degree:
        raise ValidationError("grid_size must exceed the requested degree")
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    ring = radius * np.exp(1j * angles)
    axes = np.meshgrid(*([ring] * num_vars), indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1)
    vals = np.asarray(evaluator(pts), dtype=complex)
    vals = vals.reshape((grid_size,) * num_vars + (dim, dim))
    hat = np.fft.fftn(vals, axes=tuple(range(num_vars))) / grid_size ** num_vars

    coeffs = {}
    for t in _multi_indices(num_vars, degree):
        c = hat[t] / radius ** sum(t)
        if np.linalg.norm(c) > 0:
            coeffs[t] = c

    sup_angles = 2.0 * np.pi * np.arange(max(8, grid_size // 4)) / max(8, grid_size // 4)
    sup_ring = sup_radius * np.exp(1j * sup_angles)
    sup_axes = np.meshgrid(*([sup_ring] * num_vars), indexing="ij")
    sup_pts = np.stack([a.ravel() for a in sup_axes], axis=1)
    sup_vals = np.asarray(evaluator(sup_pts), dtype=complex)
    sup = float(np.max(np.linalg.norm(sup_vals, ord=2, axis=(1, 2)))) if sup_vals.size else 0.0
    return TaylorCoefficients(num_vars, dim, degree, coeffs,
                              sup_radius=sup_radius, sup_bound=sup_safety * sup)


def taylor_from_colligation(c, degree: int) -> TaylorCoefficients:
    """Exact Taylor recursion for the transfer function of a colligation.

    With x(w) = (I - A P(w))^{-1} B = sum_t X_t w^t one has X_0 = B and
    X_t = sum_k A P_k X_{t - e_k}; the transfer coefficients are
    S_0 = D and S_t = sum_k C P_k X_{t - e_k}.  The sup bound 1 on any
    radius is valid because transfer functions of unitary colligations
    are contractive.
    """
    a, b, cc, d = c.blocks()
    num_vars, n = c.num_vars, c.n
    offsets = np.concatenate([[0], np.cumsum(c.dims)])

    def project(k, mat):
        out = np.zeros_like(mat)
        out[offsets[k]:offsets[k + 1]] = mat[offsets[k]:offsets[k + 1]]
        return out

    states = {tuple([0] * num_vars): b}
    coeffs = {tuple([0] * num_vars): d.copy()}
    for t in _multi_indices(num_vars, degree):
        if sum(t) == 0:
            continue
        xt = np.zeros_like(b)
        st = np.zeros((n, n), dtype=complex)
        for k in range(num_vars):
            if t[k] == 0:
                continue
            prev = list(t)
            prev[k] -= 1
            pk_x = project(k, states[tuple(prev)])
            xt += a @ pk_x
            st += cc @ pk_x
        states[t] = xt
        if np.linalg.norm(st) > 0:
            coeffs[t] = st
    return TaylorCoefficients(num_vars, n, degree, coeffs, sup_radius=1.0, sup_bound=1.0)


def herglotz_taylor_from_schur(schur: TaylorCoefficients,
                               sup_bound: float | None = None,
                               sup_radius: float | None = None) -> TaylorCoefficients:
    """Coefficients of F = (I + S)(I - S)^{-1} from the coefficients of S.

    Exact series algebra: with G = (I - S)^{-1}, the Cauchy product
    gives (I - S_0) G_t = [t = 0] I + sum_{0 < s <= t} S_s G_{t-s}, and
    (I - S) G = I gives F = (I + S) G = 2 G - I, so F_t = 2 G_t - [t = 0] I.
    """
    n = schur.dim
    eye = np.eye(n, dtype=complex)
    s0 = schur.coeff(tuple([0] * schur.num_vars))
    base = eye - s0
    if np.linalg.cond(base) > 1e12:
        raise NumericalRefusalError("1 is (numerically) in the spectrum of S(0)")
    g: dict = {}
    f: dict = {}
    for t in _multi_indices(schur.num_vars, schur.degree):
        rhs = eye.copy() if sum(t) == 0 else np.zeros((n, n), dtype=complex)
        for s in _sub_indices(t):
            if sum(s) == 0:
                continue
            rest = tuple(a - b for a, b in zip(t, s))
            rhs = rhs + schur.coeff(s) @ g[rest]
        g[t] = np.linalg.solve(base, rhs)
        f[t] = 2.0 * g[t] - eye if sum(t) == 0 else 2.0 * g[t]
    out = TaylorCoefficients(schur.num_vars, n, schur.degree,
                             {t: m for t, m in f.items() if np.linalg.norm(m) > 0})
    if sup_bound is not None and sup_radius is not None:
        out.sup_bound, out.sup_radius = sup_bound, sup_radius
    return out


def _sub_indices(t):
    ranges = [range(v + 1) for v in t]
    return itertools.product(*ranges)


# ---------------------------------------------------------------------------
# Series and closed-form calculus


def calc_series(coeffs: TaylorCoefficients, t: CommutingTuple,
                pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """Partial sum of F(T) = sum_t F_t (x) T^t plus a certified tail bound.

    The tuple must be a strict contraction tuple; the tail combines the
    coefficient Cauchy estimate carried by ``coeffs`` with the largest
    member norm.
    """
    if t.kind != "contraction":
        raise ValidationError("series calculus needs a strict contraction tuple")
    m = t.dim
    n = coeffs.dim
    if coeffs.num_vars != t.num_vars:
        raise ShapeError("coefficient table and tuple disagree on the number of variables")
    powers = {tuple([0] * t.num_vars): np.eye(m, dtype=complex)}
    out = np.zeros((n * m, n * m), dtype=complex)
    for idx in _multi_indices(t.num_vars, coeffs.degree):
        if sum(idx) > 0:
            k = next(i for i, v in enumerate(idx) if v > 0)
            prev = list(idx)
            prev[k] -= 1
            powers[idx] = t.mats[k] @ powers[tuple(prev)]
        ft = coeffs.coeffs.get(idx)
        if ft is not None:
            out += np.kron(ft, powers[idx])
    tail = coeffs.tail_bound(t.bound)
    if not math.isfinite(tail):
        raise NumericalRefusalError("tail bound unavailable for the requested radius")
    return out, tail


def calc_realized(f: RealizedFunction, r: CommutingTuple,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Closed-form substitution of an accretive tuple into the pencil.

    f(R) = a(R) - b(R) d(R)^{-1} c(R) with a(R) = sum_k a_k (x) R_k and
    so on.  Agrees with the series route through the operator Cayley
    map within the certified truncation error.
    """
    if not f.compressed:
        raise ValidationError("realized calculus needs a compressed realization")
    if f.num_vars != r.num_vars:
        raise ShapeError("realization and tuple disagree on the number of variables")
    if r.kind != "accretive":
        raise ValidationError("realized calculus needs a strictly accretive tuple")
    n, p, m = f.dim_u, f.dim_h, r.dim
    a = np.zeros((n * m, n * m), dtype=complex)
    b = np.zeros((n * m, p * m), dtype=complex)
    c = np.zeros((p * m, n * m), dtype=complex)
    d = np.zeros((p * m, p * m), dtype=complex)
    for k in range(f.num_vars):
        ak, bk, ck, dk = f.pencil.coeff_blocks(k)
        rk = r.mats[k]
        a += np.kron(ak, rk)
        if p:
            b += np.kron(bk, rk)
            c += np.kron(ck, rk)
            d += np.kron(dk, rk)
    if p == 0:
        return a
    _refuse_ill_conditioned(d[None], pol, "d(R)")
    return a - b @ np.linalg.solve(d, c)


def accretive_positivity_check(f: RealizedFunction, r: CommutingTuple,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, float]:
    """Certificate that f(R) + f(R)* is PSD for an accretive tuple.

    This must hold for every valid pencil; a failure on certified
    inputs falsifies the realization, not the tuple.
    """
    val = calc_realized(f, r, pol)
    w = eigh_or_refuse(val + val.conj().T)[0]
    lo = float(w[0])
    return lo >= -pol.psd_slack * scale_of(val), lo


def pointwise_diagonal_oracle(f: RealizedFunction, v: np.ndarray, joint_eigs: np.ndarray,
                              pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Brute-force value of f on a simultaneously diagonalized tuple.

    For R_k = V diag(joint_eigs[:, k]) V^{-1}, the calculus acts
    fiberwise: conjugating by I (x) V, the j-th fiber is f evaluated at
    the j-th joint eigenvalue vector.
    """
    v = as_matrix(v, square=True)
    m = v.shape[0]
    vals = f(np.asarray(joint_eigs, dtype=complex), pol)  # (m, n, n)
    n = vals.shape[-1]
    core = np.zeros((n * m, n * m), dtype=complex)
    for j in range(m):
        ej = np.zeros((m, m), dtype=complex)
        ej[j, j] = 1.0
        core += np.kron(vals[j], ej)
    big_v = np.kron(np.eye(n, dtype=complex), v)
    return big_v @ core @ np.linalg.inv(big_v)


def von_neumann_check(coeffs: TaylorCoefficients, t: CommutingTuple,
                      pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[float, float, bool]:
    """Norm of a Schur-side function on a contraction tuple, with tail.

    Returns (norm, tail, violation); the flag is raised only when the
    norm exceeds 1 by more than the certified tail plus the PSD slack.
    """
    val, tail = calc_series(coeffs, t, pol)
    norm = operator_norm(val)
    return norm, tail, bool(norm > 1.0 + tail + pol.psd_slack)


# ---------------------------------------------------------------------------
# Randomized hunt harness


@dataclass(frozen=True)
class HuntConfig:
    """Configuration of the randomized counterexample hunt.

    Pencil-backed candidates are negative controls only; genuinely open
    territory must be supplied as black-box positive-real evaluators
    (callables mapping stacked halfplane points to stacked values).
    """

    num_vars: int = 3
    trials: int = 100
    dim: int = 4
    seed: int = 0
    degree: int = 40
    radius: float = 0.35

    def __post_init__(self):
        # the genuinely open territory starts at three variables; two are
        # allowed as a negative-control regime where the classes coincide
        if self.num_vars < 2:
            raise ValidationError("the hunt needs at least two variables")


def hunt(config: HuntConfig, candidates, pol: TolerancePolicy = DEFAULT_POLICY):
    """Yield one record per (candidate, random contraction tuple) trial.

    ``candidates`` is a sequence of (name, source) pairs where source is
    either a RealizedFunction or a black-box halfplane evaluator
    (callable, dim_u attribute optional; scalar assumed).  Records carry
    full reproduction data.
    """
    from .cayley import DiskFunctionView
    from .sampling import random_contraction_tuple

    rng = np.random.default_rng(config.seed)
    prepared = []
    for name, source in candidates:
        if isinstance(source, RealizedFunction):
            view = DiskFunctionView(source, pol=pol)
            dim = source.dim_u
        else:
            dim = getattr(source, "dim_u", 1)
            view = DiskFunctionView(source, num_vars=config.num_vars, pol=pol)
        coeffs = taylor_from_function(view.eval_double_cayley, config.num_vars, dim,
                                      config.degree)
        prepared.append((name, coeffs))

    from .serialize import matrix_to_json

    for trial in range(config.trials):
        t = random_contraction_tuple(rng, config.num_vars, config.dim,
                                     target_norm=config.radius, pol=pol)
        for name, coeffs in prepared:
            norm, tail, violation = von_neumann_check(coeffs, t, pol)
            yield {
                "trial": trial,
                "candidate": name,
                "tuple": [matrix_to_json(m) for m in t.mats],
                "norm": float(norm),
                "tail": float(tail),
                "violation": bool(violation),
            }
