"""The grid solves in point blocks against one whole-batch solve.

``pencil.schur_solve``, ``colligation.reflection_transfer`` and
``colligation._state_solve`` assemble, guard and solve their systems one
``core.point_blocks`` block at a time, each block sized by the entries of
one point's matrix.  Each reference below is the single-batch solve they
replaced, written out here: every value must keep its bits, and a
refusal its text, while the working memory stays that of one block.
The grid sizes of each shape come from the block size of its solve, so
that every case crosses block edges.
"""

import numpy as np
import pytest

import posreal.colligation as colligation
from posreal import core
from posreal.cayley import DiskKernelEvaluator
from posreal.colligation import AglerColligation, reflection_transfer
from posreal.core import DEFAULT_POLICY, NumericalRefusalError, hermitian_part, point_blocks
from posreal.pencil import _refuse_ill_conditioned, d_condition_bound, schur_solve
from posreal.sampling import random_pencil


def _block(entries):
    """Points per block of a loop that holds ``entries`` a point: the rule of ``point_blocks``."""
    return max(core._ROW_BLOCK, core._ROW_BLOCK ** 3 // max(entries, 1))


def _sizes(entries):
    """One point, one block, one block and the merged one-point rest, two blocks and a partial one."""
    b = _block(entries)
    return [1, b, b + 1, 2 * b + 3]


# the test ids name each size at the default block of _ROW_BLOCK points
SIZES = [pytest.param(i, id=str(g)) for i, g in enumerate(_sizes(core._ROW_BLOCK ** 2))]


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def _halfplane_points(rng, num_vars, g):
    return rng.random((g, num_vars)) * 3.0 + 0.1 + 1j * rng.standard_normal((g, num_vars))


def _disk_points(rng, num_vars, g):
    return 0.9 * rng.random((g, num_vars)) * np.exp(2j * np.pi * rng.random((g, num_vars)))


def _schur_whole(f, pts):
    """f(z) and d(z)^{-1} c(z) from one A(z) stack and one solve over all points."""
    n = f.dim_u
    az = np.tensordot(pts, f.pencil.stacked, axes=(1, 0))
    a, b, c, d = az[:, :n, :n], az[:, :n, n:], az[:, n:, :n], az[:, n:, n:]
    sol = np.linalg.solve(d, c)
    return a - b @ sol, sol


def _reflection_whole(v, dims, pts):
    """T = M(w)^{-1} V_u* and S = I - 2 V_u T from one M(w) stack over all points."""
    bounds = np.cumsum((0,) + tuple(dims))
    vu = v[bounds[-1]:]
    blocks = [vu] + [v[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    grams = hermitian_part(np.stack([blk.conj().T @ blk for blk in blocks]))
    m = np.tensordot((1.0 + pts) / (1.0 - pts), grams[1:], axes=(1, 0))
    m += grams[0]
    t = np.linalg.solve(m, np.broadcast_to(vu.conj().T, (len(pts),) + vu.T.shape))
    return t, np.eye(len(vu)) - 2.0 * (vu @ t)


def _state_whole(c, pts):
    """P(w) and (I - A P(w))^{-1} B from one (g, x, x) stack."""
    a, b, _, _ = c.blocks()
    pw = c.state_weights(pts)
    sys = np.eye(c.dim_state) - a[None] * pw[:, None, :]
    return pw, np.linalg.solve(sys, np.broadcast_to(b, (len(pts),) + b.shape))


@pytest.mark.parametrize("count", [0, 1, 2, 31, 32, 33, 34, 64, 65, 67, 600])
def test_point_blocks_cover_the_grid(count):
    blocks = point_blocks(count)
    assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(count))
    sizes = [s.stop - s.start for s in blocks]
    assert all(size <= core._ROW_BLOCK for size in sizes[:-1])
    assert count < 2 or min(sizes) >= 2  # a last block of one point joins the one before
    assert max(sizes, default=0) <= core._ROW_BLOCK + 1


@pytest.mark.parametrize("entries, block", [(0, 32768), (1, 32768), (16, 2048), (36, 910),
                                            (35 ** 2, 32), (36 ** 2, 32), (40 ** 2, 32)])
@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_blocks_are_sized_by_the_entries_a_point(entries, block, extra):
    # max(_ROW_BLOCK, _ROW_BLOCK^3 // entries) points: at most _ROW_BLOCK^3
    # entries a block, and never fewer than _ROW_BLOCK points
    assert _block(entries) == block
    count = 2 * block + extra
    blocks = point_blocks(count, entries)
    assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(count))
    want = [block, block + 1] if extra == 1 else [block, block] + [extra] * (extra > 1)
    assert [s.stop - s.start for s in blocks] == want
    assert point_blocks(count, core._ROW_BLOCK ** 2) == point_blocks(count)


@pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (3, 4, 32), (2, 2, 0)])
@pytest.mark.parametrize("which", SIZES)
def test_schur_solve_keeps_the_bits_of_one_solve(shape, which):
    g = _sizes((shape[1] + shape[2]) ** 2)[which]
    f = random_pencil(np.random.default_rng(sum(shape) + g), *shape)
    pts = _halfplane_points(np.random.default_rng(g), shape[0], g)
    vals, sol = schur_solve(f, pts)
    want_vals, want_sol = _schur_whole(f, pts)
    _same_bits(vals, want_vals)
    _same_bits(sol, want_sol)


@pytest.mark.parametrize("shape", [(2, 1, 2), (3, 2, 4), (3, 4, 32)])
@pytest.mark.parametrize("which", SIZES)
def test_reflection_transfer_keeps_the_bits_of_one_solve(shape, which):
    g = _sizes((shape[1] + shape[2]) ** 2)[which]
    dk = DiskKernelEvaluator(random_pencil(np.random.default_rng(sum(shape) + g), *shape))
    assert dk.factor.shape[1] == shape[1] + shape[2]  # r, the side of M(w)
    pts = _disk_points(np.random.default_rng(g), shape[0], g)
    got = reflection_transfer(dk.factor, dk.kernels.factor_ranks, pts)
    for part, want in zip(got, _reflection_whole(dk.factor, dk.kernels.factor_ranks, pts)):
        _same_bits(part, want)


@pytest.mark.parametrize("dims, n", [((1, 2), 1), ((3, 1, 2), 2), ((4, 4, 4), 4)])
@pytest.mark.parametrize("which", SIZES)
def test_state_solve_keeps_the_bits_of_one_solve(dims, n, which):
    g = _sizes(sum(dims) ** 2)[which]
    rng = np.random.default_rng(g + n)
    size = sum(dims) + n
    u = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    c = AglerColligation(dims, n, 0.9 * u / np.linalg.norm(u, 2))
    pts = _disk_points(rng, len(dims), g)
    for part, want in zip(colligation._state_solve(c, pts, DEFAULT_POLICY), _state_whole(c, pts)):
        _same_bits(part, want)


def _singular_shift(f):
    """The eigenvalues mu of d_1^{-1} (d_2 + d_3): d(z) is singular at z = (-mu, 1, 1)."""
    d = f.pencil.stacked[:, f.dim_u:, f.dim_u:]
    return np.linalg.eigvals(np.linalg.solve(d[0], d[1] + d[2]))


def _refusal(fn):
    with pytest.raises(NumericalRefusalError) as info:
        fn()
    return str(info.value)


class TestRefusals:
    """A refusal is raised with the same text as one whole-batch guard."""

    def _grid(self, f, g, bad):
        pts = _halfplane_points(np.random.default_rng(5), f.num_vars, g)
        mu = _singular_shift(f)[0]
        for i, delta in bad.items():
            pts[i] = (-mu + delta, 1.0, 1.0)
        return pts

    def _whole(self, f, pts):
        d = np.tensordot(pts, f.pencil.stacked, axes=(1, 0))[:, f.dim_u:, f.dim_u:]
        return _refusal(lambda: _refuse_ill_conditioned(d, DEFAULT_POLICY, "d(z)",
                                                        bound=d_condition_bound(f, pts)))

    BLOCK = _block(6 ** 2)  # of the (3, 2, 4) pencil's d(z) solve

    @pytest.mark.parametrize("where", [pytest.param(where, id=str(label)) for where, label in [
        (0, 0), (BLOCK + 5, core._ROW_BLOCK + 5), (2 * BLOCK + 1, 2 * core._ROW_BLOCK + 1)]])
    def test_refusal_in_one_block_prints_the_whole_batch_text(self, where):
        f = random_pencil(np.random.default_rng(9), 3, 2, 4)
        pts = self._grid(f, 2 * self.BLOCK + 3, {where: 1e-13, where + 1: 3e-13})
        text = _refusal(lambda: schur_solve(f, pts))
        assert "d(z) is numerically singular" in text
        assert text == self._whole(f, pts)

    def test_a_worse_refusal_in_a_later_block_is_not_the_one_printed(self):
        # the one case the text can differ: the first refusing block is reported
        f = random_pencil(np.random.default_rng(9), 3, 2, 4)
        pts = self._grid(f, 2 * self.BLOCK + 3, {3: 1e-11, 3 + self.BLOCK: 0.0})
        text = _refusal(lambda: schur_solve(f, pts))
        assert text == _refusal(lambda: schur_solve(f, pts[:self.BLOCK]))
        assert text != self._whole(f, pts)


def test_schur_solve_memory_is_one_block(traced_peak):
    # beyond its outputs, a fourfold grid adds at most one block's A(z) to the peak
    f = random_pencil(np.random.default_rng(16), 3, 4, 32)
    block = _block(f.pencil.dim ** 2) * f.pencil.dim ** 2 * 16
    extra = []
    for g in (150, 600):
        pts = _halfplane_points(np.random.default_rng(g), 3, g)
        (vals, sol), peak = traced_peak(lambda: schur_solve(f, pts))
        extra.append(peak - vals.nbytes - sol.nbytes)
    assert extra[1] - extra[0] <= block
