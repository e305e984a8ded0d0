"""Seeded point grids and random test objects.

Default grids are low-discrepancy polydisk points mapped to the
halfplane side through the variable Cayley map, closed under complex
conjugation, and include the base point.  Random pencils and commuting
tuples used by the verification battery and the test suite live here so
that CLI runs and tests share one deterministic source.
"""

from __future__ import annotations

import math

import numpy as np

from .cayley import disk_to_halfplane
from .core import DEFAULT_POLICY, PosrealError, TolerancePolicy
from .pencil import PsdPencil, RealizedFunction, compress_realization

__all__ = [
    "disk_grid",
    "halfplane_grid",
    "random_psd",
    "random_pencil",
    "random_contraction_tuple",
    "random_accretive_tuple",
    "random_diagonalizable_accretive_pair",
]


def _primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    primes: list[int] = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes if q * q <= k):
            primes.append(k)
        k += 1
    return primes


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """First n points (n, d) of the scrambled Halton sequence.

    Owen's randomized Halton sequence (arXiv:1706.02808): coordinate k
    is the radical inverse in the k-th prime b with each digit passed
    through its own random permutation of range(b), one permutation per
    digit position while b^-j > 2^-54.  The permutations are drawn from
    ``np.random.default_rng(seed)`` base by base and row by row, and the
    digits are summed from the lowest up, so the points are bit for bit
    those of ``scipy.stats.qmc.Halton(d, seed=seed).random(n)``.
    """
    rng = np.random.default_rng(seed)
    u = np.zeros((n, d))
    for k, b in enumerate(_primes(d)):
        perms = np.tile(np.arange(b), (math.ceil(54 / math.log2(b)) - 1, 1))
        for row in perms:
            rng.shuffle(row)
        q = np.arange(n)
        b2r = 1.0 / b
        col = u[:, k]
        for row in perms:
            col += row[q % b] * b2r
            q //= b
            b2r /= b
    return u


# Coordinate moduli of ``disk_grid`` points lie in [0.1, _MAX_RADIUS).
_MAX_RADIUS = 0.85


def disk_grid(num_vars: int, count: int = 25, seed: int = 0,
              conjugate_closed: bool = True, include_zero: bool = True) -> np.ndarray:
    """Low-discrepancy polydisk points, conjugate-closed, with the center.

    ``count`` is the target total; with conjugation closure roughly half
    the points are fresh draws and the rest their conjugates.
    """
    remaining = count - (1 if include_zero else 0)
    base = max(remaining, 0) // 2 if conjugate_closed else max(remaining, 0)
    u = _halton(2 * num_vars, base, seed)
    radii = 0.1 + (_MAX_RADIUS - 0.1) * u[:, :num_vars]
    angles = 2.0 * np.pi * u[:, num_vars:]
    pts = radii * np.exp(1j * angles)
    out = [pts]
    if conjugate_closed:
        out.append(pts.conj())
    if include_zero:
        out.append(np.zeros((1, num_vars), dtype=complex))
    grid = np.concatenate(out, axis=0)
    _, keep = np.unique(np.round(grid, 12), axis=0, return_index=True)
    return grid[np.sort(keep)]


def halfplane_grid(num_vars: int, count: int = 25, seed: int = 0,
                   include_base: bool = True) -> np.ndarray:
    """Image of ``disk_grid`` under the variable Cayley map (center -> e)."""
    w = disk_grid(num_vars, count, seed, include_zero=include_base)
    return disk_to_halfplane(w)


def random_psd(rng, dim: int, rank: int | None = None, real: bool = False) -> np.ndarray:
    r = rank if rank is not None else dim
    g = rng.standard_normal((r, dim))
    if not real:
        g = g + 1j * rng.standard_normal((r, dim))
    return g.conj().T @ g / max(r, 1)


def random_pencil(rng, num_vars: int, dim_u: int, dim_h: int,
                  real: bool = False, rank_deficient: bool = False,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> RealizedFunction:
    """Random validated compressed realization.

    ``rank_deficient`` draws coefficient ranks below full dimension so
    that degenerate blocks and compression paths stay exercised.
    """
    dim = dim_u + dim_h
    coeffs = []
    for _ in range(num_vars):
        rank = int(rng.integers(1, dim + 1)) if rank_deficient else dim
        coeffs.append(random_psd(rng, dim, rank=rank, real=real))
    pencil = PsdPencil.from_coeffs(coeffs, dim_u, pol)
    return compress_realization(RealizedFunction(pencil), pol)


def _random_commuting(rng, num_vars: int, dim: int) -> list[np.ndarray]:
    """Commuting family from polynomials of one random seed matrix."""
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    s /= max(np.linalg.norm(s, 2), 1e-12)
    mats = []
    eye = np.eye(dim, dtype=complex)
    for _ in range(num_vars):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats.append(c[0] * eye + c[1] * s + c[2] * s @ s)
    return mats


def random_contraction_tuple(rng, num_vars: int, dim: int, target_norm: float = 0.4,
                             pol: TolerancePolicy = DEFAULT_POLICY):
    """Commuting tuple rescaled so every member has norm exactly target_norm."""
    from .calculus import make_tuple

    mats = _random_commuting(rng, num_vars, dim)
    mats = [m * (target_norm / max(np.linalg.norm(m, 2), 1e-12)) for m in mats]
    return make_tuple(mats, pol, require="contraction")


def random_accretive_tuple(rng, num_vars: int, dim: int, pol: TolerancePolicy = DEFAULT_POLICY):
    """Strictly accretive commuting tuple: the operator Cayley image of a norm-0.5 contraction."""
    from .calculus import operator_cayley

    return operator_cayley(random_contraction_tuple(rng, num_vars, dim, 0.5, pol), pol)


def random_diagonalizable_accretive_pair(rng, dim: int, num_vars: int = 2,
                                         pol: TolerancePolicy = DEFAULT_POLICY):
    """(tuple, V, joint_eigs): simultaneously diagonalized accretive tuple.

    Joint eigenvalues are drawn in the right half-plane with a margin;
    V is kept mildly conditioned so the tuple certifies as strictly
    accretive despite non-normality.
    """
    from .calculus import make_tuple

    while True:
        v = np.eye(dim) + 0.2 * (rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim)))
        if np.linalg.cond(v) > 10:
            continue
        eigs = (0.5 + rng.random((dim, num_vars)) * 1.5
                + 1j * 0.7 * rng.standard_normal((dim, num_vars)))
        vinv = np.linalg.inv(v)
        mats = [v @ np.diag(eigs[:, k]) @ vinv for k in range(num_vars)]
        try:
            t = make_tuple(mats, pol, require="accretive")
        except PosrealError:  # a draw that does not certify as accretive
            continue
        return t, v, eigs
