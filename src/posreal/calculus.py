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

import math
from dataclasses import dataclass

import numpy as np

from .cayley import DiskFunctionView, i_minus_s_condition_bound, inv_value_cayley, value_cayley
from .core import (
    DEFAULT_POLICY,
    NumericalRefusalError,
    ShapeError,
    TolerancePolicy,
    ValidationError,
    as_matrix,
    hermitian_part,
    eigvalsh_or_refuse,
    operator_norm,
    scale_of,
)
from .pencil import RealizedFunction, d_tuple_condition_bound, guarded_solve
from .sampling import random_accretive_tuple, random_contraction_tuple, random_pencil
from .serialize import matrix_to_json

__all__ = [
    "CommutingTuple",
    "make_tuple",
    "operator_cayley",
    "inverse_operator_cayley",
    "TaylorCoefficients",
    "TAYLOR_MAX_POINTS",
    "TAYLOR_RADIUS",
    "TAYLOR_SUP_RADIUS",
    "TAYLOR_SUP_SAFETY",
    "taylor_from_function",
    "taylor_from_colligation",
    "herglotz_taylor_from_schur",
    "calc_series",
    "calc_realized",
    "accretive_positivity_check",
    "von_neumann_check",
    "pointwise_diagonal_oracle",
    "calculus_cross_checks",
    "HuntConfig",
    "pencil_controls",
    "hunt",
]


@dataclass(frozen=True)
class CommutingTuple:
    """Commuting matrices with a certified classification.

    kind is "contraction" when every member has norm <= 1 - margin
    (bound = the largest norm), "accretive" when every R_k + R_k* is
    bounded below by a positive multiple of the identity (bound = that
    multiple), and "none" otherwise.  A tuple is immutable and caches
    nothing: ``calc_series`` forms the powers of each member it sums.
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


def _max_commutator(mats: np.ndarray, norms: np.ndarray) -> float:
    """Largest ||[M_i, M_j]|| / (1 + ||M_i|| ||M_j||) over pairs i < j of a (K, n, n) stack.

    ``norms`` holds the operator norms ||M_k||.  All pairs go through one
    stacked product and one stacked norm.
    """
    i, j = np.triu_indices(len(mats), k=1)
    comm = mats[i] @ mats[j] - mats[j] @ mats[i]
    ratios = np.linalg.norm(comm, 2, axis=(1, 2)) / (1.0 + norms[i] * norms[j])
    return float(np.max(ratios, initial=0.0))


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
    stack = np.stack(ms)
    norms = np.linalg.norm(stack, 2, axis=(1, 2))
    comm = _max_commutator(stack, norms)
    if comm > pol.commutator_tol:
        raise ValidationError(f"commutator norm {comm:.3e} exceeds tolerance")
    rho = float(np.max(norms))
    accr = float(np.min(eigvalsh_or_refuse(hermitian_part(stack) * 2.0)[:, 0]))
    # a tuple that is both is a contraction, unless accretive is required
    if rho <= 1.0 - pol.margin and require != "accretive":
        kind, bound = "contraction", rho
    elif accr >= pol.margin:
        kind, bound = "accretive", accr
    else:
        kind, bound = "none", 0.0
    if require is not None and kind != require:
        raise ValidationError(f"tuple is not a strict {require} tuple "
                              f"(max norm {rho:.6f}, accretivity bound {accr:.3e})")
    return CommutingTuple(ms, comm, kind, bound)


def operator_cayley(t: CommutingTuple, pol: TolerancePolicy = DEFAULT_POLICY) -> CommutingTuple:
    """R_k = (I + T_k)(I - T_k)^{-1}: strict contractions to strictly accretive."""
    if t.kind != "contraction":
        raise ValidationError("operator Cayley transform needs a strict contraction tuple")
    return make_tuple(inv_value_cayley(np.stack(t.mats), pol), pol, require="accretive")


def inverse_operator_cayley(r: CommutingTuple, pol: TolerancePolicy = DEFAULT_POLICY) -> CommutingTuple:
    """T_k = (R_k - I)(R_k + I)^{-1}: strictly accretive to strict contractions."""
    if r.kind != "accretive":
        raise ValidationError("inverse operator Cayley transform needs a strictly accretive tuple")
    return make_tuple(value_cayley(np.stack(r.mats), pol), pol, require="contraction")


# ---------------------------------------------------------------------------
# Taylor coefficients of polydisk functions


def _total_degree(num_vars: int, degree: int) -> np.ndarray:
    """|t| = t_1 + ... + t_N at every multi-index t of the (degree + 1)^N cube."""
    return np.indices((degree + 1,) * num_vars).sum(axis=0)


def _simplex(num_vars: int, degree: int) -> tuple:
    """The multi-indices with |t| <= degree, in C order.

    In C order every t comes after each t - s with 0 <= s <= t, so one
    pass in this order sees each recursion's inputs before its output.
    """
    return tuple(map(tuple, np.argwhere(_total_degree(num_vars, degree) <= degree).tolist()))


@dataclass
class TaylorCoefficients:
    """Taylor table of a holomorphic polydisk function up to a degree.

    ``coeffs`` is one complex array of shape (degree + 1,)^num_vars +
    (dim, dim): F_t is ``coeffs[t]``, and every entry with |t| > degree
    is zero.  ``sup_radius``/``sup_bound`` feed the Cauchy tail
    estimate: the sup of the function norm on the polytorus of that
    radius (sampled on a coarse grid, padded by a safety factor).
    """

    num_vars: int
    dim: int
    degree: int
    coeffs: np.ndarray
    sup_radius: float = 0.0
    sup_bound: float = math.inf

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        shape = (self.degree + 1,) * self.num_vars + (self.dim, self.dim)
        if self.coeffs.shape != shape:
            raise ShapeError(f"Taylor table of shape {self.coeffs.shape}; "
                             f"{self.num_vars} variables, dimension {self.dim} "
                             f"and degree {self.degree} need {shape}")
        # calc_series sums the whole cube, and tail_bound assumes the
        # table stops at the degree
        if np.any(self.coeffs[_total_degree(self.num_vars, self.degree) > self.degree]):
            raise ValidationError(f"Taylor table has a nonzero entry above degree {self.degree}")

    def tail_bound(self, rho: float) -> float:
        """Bound on sum_{|t| > degree} ||F_t|| rho^{|t|} by Cauchy estimates.

        Uses ||F_t|| <= sup_bound / sup_radius^{|t|}: with q = rho / sup_radius
        < 1, sup_bound sum_{j > d} binom(j + N - 1, N - 1) q^j, which is
        (1 - q)^{-N} P[Bin(d + N, q) >= d + 1] = sum_{m < N} binom(d + N, m)
        q^{d + N - m} (1 - q)^{m - N}.  The N terms are formed in logs, so
        nothing overflows, and padded for their roundoff.
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
        n, d = self.num_vars, self.degree
        m = np.arange(n)
        parts = np.array([[math.log(math.comb(d + n, k)) for k in range(n)],
                          (d + n - m) * math.log(q), (m - n) * math.log1p(-q)])
        # each log is within 4 eps of its parts' magnitudes; exp, sum and products add a few eps
        pad = 8.0 * np.finfo(float).eps * (float(np.max(np.abs(parts).sum(axis=0))) + n)
        with np.errstate(over="ignore"):
            total = float(np.sum(np.exp(parts.sum(axis=0))))
        return self.sup_bound * total * (1.0 + pad)


# Largest polytorus, in points, that ``taylor_from_function`` samples:
# grid_size ** num_vars with grid_size the power of two >= 2(degree + 1)
# (at least 32).  It admits N = 2 up to degree 1023, N = 3 up to degree
# 63 (the CLI default is 40) and N = 4 up to degree 15; larger tables are
# refused before any sampling.
TAYLOR_MAX_POINTS = 2 ** 22

# ``taylor_from_function`` samples the coefficients on the TAYLOR_RADIUS torus
# and the tail's sup bound, padded by TAYLOR_SUP_SAFETY, on TAYLOR_SUP_RADIUS.
TAYLOR_RADIUS = 0.6
TAYLOR_SUP_RADIUS = 0.9
TAYLOR_SUP_SAFETY = 2.0


def _taylor_grid_size(num_vars: int, degree: int, grid_size: int | None = None) -> int:
    """Points per circle of the Taylor quadrature, within TAYLOR_MAX_POINTS."""
    if grid_size is None:
        grid_size = 1
        while grid_size < max(2 * (degree + 1), 32):
            grid_size *= 2
    if grid_size <= degree:
        raise ValidationError("grid_size must exceed the requested degree")
    if grid_size ** num_vars > TAYLOR_MAX_POINTS:
        raise ValidationError(
            f"a degree-{degree} Taylor table in {num_vars} variables samples "
            f"{grid_size}^{num_vars} points, above the cap of {TAYLOR_MAX_POINTS}")
    return grid_size


# Polytorus points per evaluator call in ``taylor_from_function``: the
# evaluator's working memory (e.g. one (n + p) x (n + p) pencil per point)
# then stays bounded however large the torus is.
_POINT_BLOCK = 8192


def _torus_values(evaluator, ring: np.ndarray, num_vars: int, dim: int) -> np.ndarray:
    """Values (len(ring)^N, dim, dim) on the polytorus ring^N in C order.

    Points are formed and evaluated _POINT_BLOCK at a time into one
    preallocated array, so the evaluator never sees more than one block.
    """
    shape = (len(ring),) * num_vars
    total = math.prod(shape)
    vals = np.empty((total, dim, dim), dtype=complex)
    for start in range(0, total, _POINT_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _POINT_BLOCK, total)), shape)
        pts = np.stack([ring[i] for i in idx], axis=1)
        block = np.asarray(evaluator(pts), dtype=complex)
        if block.shape != (len(pts), dim, dim):
            raise ShapeError(f"evaluator returned shape {block.shape}, expected {(len(pts), dim, dim)}")
        vals[start:start + len(pts)] = block
    return vals


def taylor_from_function(evaluator, num_vars: int, dim: int, degree: int,
                         grid_size: int | None = None) -> TaylorCoefficients:
    """Taylor coefficients by discrete Cauchy integrals on a polytorus.

    Samples the evaluator on a uniform polytorus of radius TAYLOR_RADIUS
    and reads coefficients off a multidimensional FFT; aliasing decays
    like (TAYLOR_RADIUS / holomorphy radius)^grid_size.  The sup bound for
    the tail estimate is TAYLOR_SUP_SAFETY times the largest norm sampled
    on the larger TAYLOR_SUP_RADIUS torus.  Both tori are evaluated in
    blocks of _POINT_BLOCK points.
    """
    grid_size = _taylor_grid_size(num_vars, degree, grid_size)
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    ring = TAYLOR_RADIUS * np.exp(1j * angles)
    vals = _torus_values(evaluator, ring, num_vars, dim).reshape((grid_size,) * num_vars + (dim, dim))
    hat = np.fft.fftn(vals, axes=tuple(range(num_vars))) / grid_size ** num_vars
    total = _total_degree(num_vars, degree)
    low = total <= degree
    coeffs = np.zeros(total.shape + (dim, dim), dtype=complex)
    coeffs[low] = (hat[(slice(degree + 1),) * num_vars][low]
                   / TAYLOR_RADIUS ** total[low][:, None, None])

    sup_angles = 2.0 * np.pi * np.arange(max(8, grid_size // 4)) / max(8, grid_size // 4)
    sup_ring = TAYLOR_SUP_RADIUS * np.exp(1j * sup_angles)
    sup_vals = _torus_values(evaluator, sup_ring, num_vars, dim)
    sup = float(np.max(np.linalg.norm(sup_vals, ord=2, axis=(1, 2)))) if sup_vals.size else 0.0
    return TaylorCoefficients(num_vars, dim, degree, coeffs,
                              sup_radius=TAYLOR_SUP_RADIUS, sup_bound=TAYLOR_SUP_SAFETY * sup)


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
    simplex = _simplex(num_vars, degree)
    cube = (degree + 1,) * num_vars
    states = np.zeros(cube + b.shape, dtype=complex)
    coeffs = np.zeros(cube + (n, n), dtype=complex)
    states[simplex[0]], coeffs[simplex[0]] = b, d
    for t in simplex[1:]:
        for k in range(num_vars):
            if t[k]:
                blk = slice(offsets[k], offsets[k + 1])
                prev = states[t[:k] + (t[k] - 1,) + t[k + 1:]][blk]
                states[t] += a[:, blk] @ prev
                coeffs[t] += cc[:, blk] @ prev
    return TaylorCoefficients(num_vars, n, degree, coeffs, sup_radius=1.0, sup_bound=1.0)


def herglotz_taylor_from_schur(schur: TaylorCoefficients,
                               sup_bound: float | None = None,
                               sup_radius: float | None = None,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> TaylorCoefficients:
    """Coefficients of F = (I + S)(I - S)^{-1} from the coefficients of S.

    Exact series algebra: with G = (I - S)^{-1}, the Cauchy product
    gives (I - S_0) G_t = [t = 0] I + sum_{0 < s <= t} S_s G_{t-s}, and
    (I - S) G = I gives F = (I + S) G = 2 G - I, so F_t = 2 G_t - [t = 0] I.
    I - S_0 is solved once, G_0 = (I - S_0)^{-1} by ``pencil.guarded_solve``,
    whose guard is certified by ``cayley.i_minus_s_condition_bound``; each
    later G_t = G_0 sum_{0 < s <= t} S_s G_{t-s} is one product.
    """
    n = schur.dim
    eye = np.eye(n, dtype=complex)
    sch = schur.coeffs
    simplex = _simplex(schur.num_vars, schur.degree)
    s0 = sch[simplex[0]]
    g = np.zeros_like(sch)
    g[simplex[0]] = guarded_solve((eye - s0)[None], eye[None], pol, "I - S(0)",
                                  i_minus_s_condition_bound(s0[None]))[0]
    g0 = g[simplex[0]]
    for t in simplex[1:]:
        # sum_{s <= t} S_s G_{t-s} over the box s <= t; the s = 0 term
        # is zero because G_t is not yet filled in
        box = tuple(slice(v + 1) for v in t)
        rev = tuple(slice(v, None, -1) for v in t)
        g[t] = g0 @ np.einsum("sij,sjk->ik", sch[box].reshape(-1, n, n), g[rev].reshape(-1, n, n))
    f = 2.0 * g
    f[simplex[0]] -= eye
    out = TaylorCoefficients(schur.num_vars, n, schur.degree, f)
    if sup_bound is not None and sup_radius is not None:
        out.sup_bound, out.sup_radius = sup_bound, sup_radius
    return out


# ---------------------------------------------------------------------------
# Series and closed-form calculus


def _power_stack(mat: np.ndarray, degree: int) -> np.ndarray:
    """[I, M, ..., M^degree] as a (degree + 1, m, m) stack, from degree products."""
    out = np.empty((degree + 1,) + mat.shape, dtype=complex)
    out[0] = np.eye(len(mat))
    for j in range(degree):
        out[j + 1] = mat @ out[j]
    return out


def calc_series(coeffs: TaylorCoefficients, t: CommutingTuple,
                pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[np.ndarray, float]:
    """Partial sum of F(T) = sum_t F_t (x) T^t plus a Cauchy tail estimate.

    The tuple must be a strict contraction tuple.  Its members commute, so
    T^t = T_1^{t_1} ... T_N^{t_N}, and the sum runs one member at a time
    against [I, T_k, ..., T_k^d]: the table is read in place and no table
    of every T^t is formed.  The tail, at the largest member norm, bounds
    the rest only if ``coeffs.sup_bound`` does: proven (1) for
    ``taylor_from_colligation``; otherwise sampled times TAYLOR_SUP_SAFETY,
    and the tail is an estimate.
    """
    if t.kind != "contraction":
        raise ValidationError("series calculus needs a strict contraction tuple")
    m = t.dim
    n = coeffs.dim
    d = coeffs.degree
    if coeffs.num_vars != t.num_vars:
        raise ShapeError("coefficient table and tuple disagree on the number of variables")
    # sum over t_1 as one product on a view of the table: out[t_2, ..., t_N, i, j, a, b]
    out = coeffs.coeffs.reshape(d + 1, -1).T @ _power_stack(t.mats[0], d).reshape(d + 1, -1)
    out = out.reshape((d + 1,) * (t.num_vars - 1) + (n, n, m, m))
    # then over each later t_k, with T_k^{t_k} multiplied on the right
    for tk in t.mats[1:]:
        out = np.tensordot(out, _power_stack(tk, d), axes=([0, -1], [0, 1]))
    # into the kron layout (i a, j b)
    out = out.transpose(0, 2, 1, 3).reshape(n * m, n * m)
    tail = coeffs.tail_bound(t.bound)
    if not math.isfinite(tail):
        raise NumericalRefusalError("tail bound unavailable for the requested radius")
    return out, tail


def calc_realized(f: RealizedFunction, r: CommutingTuple,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Closed-form substitution of an accretive tuple into the pencil.

    f(R) = a(R) - b(R) d(R)^{-1} c(R) with a(R) = sum_k a_k (x) R_k and
    so on.  Agrees with the series route through the operator Cayley
    map within the series' estimated truncation error (a bound where the
    table's sup is proven, see ``calc_series``).  The guard on d(R) first
    tries ``pencil.d_tuple_condition_bound``: Re d(R) dominates
    (beta/2)(sum_k d_k) (x) I for the tuple's accretivity bound beta.
    The guard refuses d(R) of an uncompressed degenerate H, and at p = 0
    d(R) is empty and f(R) = a(R).
    """
    if f.num_vars != r.num_vars:
        raise ShapeError("realization and tuple disagree on the number of variables")
    if r.kind != "accretive":
        raise ValidationError("realized calculus needs a strictly accretive tuple")
    nm = f.dim_u * r.dim
    # A(R) = sum_k A_k (x) R_k; kron(A_k, R_k) keeps the U (+) H block
    # partition, so a(R), b(R), c(R) and d(R) are its four corners
    big = np.zeros((f.pencil.dim * r.dim,) * 2, dtype=complex)
    for ak, rk in zip(f.pencil.coeffs, r.mats):
        big += np.kron(ak, rk)
    a, b, c, d = big[:nm, :nm], big[:nm, nm:], big[nm:, :nm], big[nm:, nm:]
    return a - b @ guarded_solve(d[None], c[None], pol, "d(R)", [d_tuple_condition_bound(f, r.mats, r.bound)])[0]


def accretive_positivity_check(f: RealizedFunction, r: CommutingTuple,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> tuple[bool, float]:
    """Certificate that f(R) + f(R)* is PSD for an accretive tuple.

    This must hold for every valid pencil; a failure on certified
    inputs falsifies the realization, not the tuple.
    """
    val = calc_realized(f, r, pol)
    lo = float(eigvalsh_or_refuse(val + val.conj().T)[0])
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
    norm exceeds 1 by more than the estimated tail plus the PSD slack
    (a bound only where the table's sup is proven, see ``calc_series``).
    """
    val, tail = calc_series(coeffs, t, pol)
    norm = operator_norm(val)
    return norm, tail, bool(norm > 1.0 + tail + pol.psd_slack)


def calculus_cross_checks(f: RealizedFunction, seed: int, tuples: int, dim: int, degree: int,
                          pol: TolerancePolicy = DEFAULT_POLICY):
    """Yield one record per random tuple: the cross-checks of ``posreal calculus``.

    F's Taylor table (``taylor_from_function`` of ``DiskFunctionView.eval_F``)
    is summed on a strict contraction T of norm 0.5 and compared with f(R)
    at R = operator_cayley(T); they agree within the tail plus
    residual_tol (1 + ||f(R)||).  Positivity is certified on an
    independent accretive tuple.
    """
    rng = np.random.default_rng(seed)
    fcoeffs = taylor_from_function(DiskFunctionView(f, pol=pol).eval_F, f.num_vars, f.dim_u,
                                   degree=degree)
    for i in range(tuples):
        t = random_contraction_tuple(rng, f.num_vars, dim, target_norm=0.5, pol=pol)
        r = random_accretive_tuple(rng, f.num_vars, dim, pol=pol)  # independent check tuple
        ok, lo = accretive_positivity_check(f, r, pol)
        series_val, tail = calc_series(fcoeffs, t, pol)
        realized_val = calc_realized(f, operator_cayley(t, pol), pol)
        gap = float(np.linalg.norm(series_val - realized_val, 2))
        budget = tail + pol.residual_tol * (1.0 + np.linalg.norm(realized_val, 2))
        yield {"tuple": i, "positivity_min_eig": lo, "positive": bool(ok),
               "series_vs_realized": gap, "tail": tail, "agree": bool(gap <= budget)}


# ---------------------------------------------------------------------------
# Randomized hunt harness


# Norm of the random contraction tuples that ``hunt`` draws.
HUNT_RADIUS = 0.35


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

    def __post_init__(self):
        # the genuinely open territory starts at three variables; two are
        # allowed as a negative-control regime where the classes coincide
        if self.num_vars < 2:
            raise ValidationError("the hunt needs at least two variables")
        _taylor_grid_size(self.num_vars, self.degree)


def pencil_controls(config: HuntConfig, count: int, pol: TolerancePolicy = DEFAULT_POLICY) -> list:
    """``count`` random (num_vars, 1, 3) pencils drawn from seed + 1: the hunt's negative controls."""
    rng = np.random.default_rng(config.seed + 1)
    return [(f"pencil-control-{i}", random_pencil(rng, config.num_vars, 1, 3, pol=pol))
            for i in range(count)]


def hunt(config: HuntConfig, candidates, pol: TolerancePolicy = DEFAULT_POLICY):
    """Yield one record per (candidate, random contraction tuple) trial.

    ``candidates`` is a sequence of (name, source) pairs where source is
    either a RealizedFunction or a black-box halfplane evaluator
    (callable, dim_u attribute optional; scalar assumed).  Records carry
    full reproduction data.
    """
    rng = np.random.default_rng(config.seed)
    prepared = []
    for name, source in candidates:
        view = DiskFunctionView(source, num_vars=config.num_vars, pol=pol)
        coeffs = taylor_from_function(view.eval_double_cayley, config.num_vars,
                                      getattr(source, "dim_u", 1), config.degree)
        prepared.append((name, coeffs))

    for trial in range(config.trials):
        t = random_contraction_tuple(rng, config.num_vars, config.dim,
                                     target_norm=HUNT_RADIUS, pol=pol)
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
