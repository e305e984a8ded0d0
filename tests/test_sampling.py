import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from posreal.cayley import disk_to_halfplane
from posreal.pencil import eval_schur
from posreal import calculus
from posreal.core import ValidationError
from posreal.sampling import (
    _halton,
    disk_grid,
    halfplane_grid,
    random_diagonalizable_accretive_pair,
    random_pencil,
)


def rounded_set(pts):
    return {tuple(np.round(p, 12)) for p in pts}


def test_disk_grid_conjugate_closed_with_center():
    grid = disk_grid(3, 25, seed=0)
    assert len(grid) == 25
    assert rounded_set(grid) == rounded_set(grid.conj())
    assert any(np.allclose(w, 0) for w in grid)
    assert np.all(np.abs(grid) < 1)


def test_halfplane_grid_is_cayley_image():
    w = disk_grid(2, 15, seed=4)
    z = halfplane_grid(2, 15, seed=4)
    assert np.allclose(z, disk_to_halfplane(w))
    assert np.all(z.real > 0)
    assert any(np.allclose(p, 1) for p in z)


def test_grids_deterministic():
    a = disk_grid(2, 20, seed=9)
    b = disk_grid(2, 20, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, disk_grid(2, 20, seed=10))


def test_batched_evaluation_matches_single_points(rng):
    f = random_pencil(rng, 2, 2, 3)
    pts = halfplane_grid(2, 6, seed=2)
    batch = eval_schur(f, pts)
    singles = np.stack([eval_schur(f, z) for z in pts])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("d", range(2, 17))
def test_halton_independent_cross_check_with_scipy(d):
    """Independent cross-check: the in-house sequence is scipy's, bit for bit."""
    qmc = pytest.importorskip("scipy.stats.qmc")
    for seed in (0, 1, 9, 2024, 2 ** 31 - 1):
        for n in (0, 1, 7, 500):
            ref = qmc.Halton(d=d, seed=seed).random(n)
            got = _halton(d, n, seed)
            assert got.shape == ref.shape == (n, d)
            assert got.tobytes() == ref.tobytes(), (d, seed, n)


def _hex_grid(grid):
    return [[(z.real.hex(), z.imag.hex()) for z in row] for row in grid]


# Grid values pinned as float.hex, so no numpy or scipy release can move them.
GOLDEN_DISK_2_5_SEED_3 = [
    [("0x1.29e0182baf53ap-3", "-0x1.f0f89fe72c3c1p-2"), ("0x1.d7941c2145c1ap-4", "-0x1.57e8875dedf65p-3")],
    [("0x1.64c0b4968b98bp-5", "0x1.fce0eab2e93b0p-4"), ("-0x1.0f81019e995a6p-3", "-0x1.bc354363d7ebap-2")],
    [("0x1.29e0182baf53ap-3", "0x1.f0f89fe72c3c1p-2"), ("0x1.d7941c2145c1ap-4", "0x1.57e8875dedf65p-3")],
    [("0x1.64c0b4968b98bp-5", "-0x1.fce0eab2e93b0p-4"), ("-0x1.0f81019e995a6p-3", "0x1.bc354363d7ebap-2")],
    [("0x0.0p+0", "0x0.0p+0"), ("0x0.0p+0", "0x0.0p+0")],
]
GOLDEN_HALFPLANE_3_3_SEED_2024 = [
    [("0x1.65d91e6788c34p-3", "0x1.5540c72193158p-2"), ("0x1.8e5db858242d5p-2", "-0x1.2217eb593c11ep+0"),
     ("0x1.7d697a5cc215ep-2", "-0x1.365ba476101abp-1")],
    [("0x1.65d91e6788c34p-3", "-0x1.5540c72193158p-2"), ("0x1.8e5db858242d5p-2", "0x1.2217eb593c11ep+0"),
     ("0x1.7d697a5cc215ep-2", "0x1.365ba476101abp-1")],
    [("0x1.0000000000000p+0", "0x0.0p+0"), ("0x1.0000000000000p+0", "0x0.0p+0"),
     ("0x1.0000000000000p+0", "0x0.0p+0")],
]
# Draw 400 of a 4-variable grid: eight primes, deep digits.
GOLDEN_DISK_4_401_SEED_7_ROW_399 = [
    ("0x1.0f7ccfd2dd63ep-1", "-0x1.2c247e236f67ep-1"), ("0x1.3a54b45d04f3bp-1", "0x1.0dbac12552158p-5"),
    ("-0x1.4f9753b6044afp-2", "0x1.82144e2cf4a1ap-2"), ("0x1.fd71661c97b51p-2", "-0x1.17e111c149c8cp-1"),
]


def test_grids_golden_values():
    assert _hex_grid(disk_grid(2, 5, seed=3)) == GOLDEN_DISK_2_5_SEED_3
    assert _hex_grid(halfplane_grid(3, 3, seed=2024)) == GOLDEN_HALFPLANE_3_3_SEED_2024
    grid = disk_grid(4, 401, seed=7, conjugate_closed=False)
    assert grid.shape == (401, 4)
    assert _hex_grid(grid[399:400]) == [GOLDEN_DISK_4_401_SEED_7_ROW_399]


def test_import_leaves_scipy_stats_and_linalg_unloaded():
    """Cold start: no scipy module loads with posreal, nor in synthesis or rebuild."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys\n"
            "import numpy as np\n"
            "from posreal import realize\n"
            "from posreal.cayley import DiskFunctionView, DiskKernelEvaluator\n"
            "from posreal.colligation import build_colligation\n"
            "from posreal.kernels import pencil_from_kernel_samples, sample_kernels\n"
            "from posreal.sampling import disk_grid, halfplane_grid\n"
            "f = realize([np.array([[1.0, 1.0], [1.0, 1.0]]), np.diag([0.0, 1.0])], 1)\n"
            "ws = disk_grid(2, 4, 0)\n"
            "dk = DiskKernelEvaluator(f)\n"
            "build_colligation(ws, dk.theta_table(ws), DiskFunctionView(f).eval_double_cayley(ws))\n"
            "pencil_from_kernel_samples(sample_kernels(f, halfplane_grid(2, 4, 0)))\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("error, raised", [(ValidationError, False), (TypeError, True)])
def test_accretive_pair_redraws_only_a_refused_draw(monkeypatch, error, raised):
    """A draw that does not certify is redrawn; a programming error propagates instead of looping."""
    make_tuple, calls = calculus.make_tuple, []

    def first_draw_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise error("first draw")
        return make_tuple(*args, **kwargs)

    monkeypatch.setattr(calculus, "make_tuple", first_draw_fails)
    rng = np.random.default_rng(4)
    if raised:
        with pytest.raises(error, match="first draw"):
            random_diagonalizable_accretive_pair(rng, 3)
    else:
        random_diagonalizable_accretive_pair(rng, 3)
        assert len(calls) >= 2
