import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from posreal import calculus, cli, kernels, serialize
from posreal.calculus import TAYLOR_SUP_RADIUS, calc_series
from posreal.cayley import DiskFunctionView, disk_to_halfplane, inv_double_cayley, value_cayley
from posreal.cli import main
from posreal.verify import run_verification
from posreal.colligation import (agler_identity_residual, colligation_from_kernel_samples, colligation_from_pencil,
                                 transfer_eval)
from posreal.core import DEFAULT_POLICY, eigh_or_refuse, hermitian_part
from posreal.pencil import PsdPencil, RealizedFunction, compress_realization
from posreal.sampling import disk_grid, halfplane_grid, random_pencil


@pytest.fixture
def parallel_file(tmp_path, parallel):
    path = tmp_path / "parallel.json"
    serialize.dump(serialize.pencil_to_json(parallel), str(path))
    return str(path)


@pytest.fixture
def corrupted_file(tmp_path, parallel):
    coeffs = [a.copy() for a in parallel.pencil.coeffs]
    coeffs[0][0, 1] += 2.0  # makes the first coefficient indefinite
    coeffs[0][1, 0] += 2.0
    pencil = PsdPencil.from_coeffs(coeffs, 1, validate=False)
    path = tmp_path / "corrupt.json"
    serialize.dump(serialize.pencil_to_json(pencil), str(path))
    return str(path)


class TestVerify:
    def test_parallel_passes(self, parallel_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--pencil", parallel_file, "--seed", "5",
                     "--grid", "12", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] is True
        assert all(row["value"] <= 1e-10 or row["tol"] >= 1e-10 or row["pass"]
                   for row in report["checks"])
        assert "verdict: pass" in capsys.readouterr().out

    def test_corrupted_pencil_fails(self, corrupted_file, capsys):
        code = main(["verify", "--pencil", corrupted_file, "--seed", "5", "--grid", "10"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_failed_synthesis_keeps_the_row_order(self):
        # a pencil whose synthesis fails reports the rows of a passing one, in the same order
        f = random_pencil(np.random.default_rng(1), 2, 2, 3)
        coeffs = [a.copy() for a in f.pencil.coeffs]
        coeffs[1] = -coeffs[1]
        bad = compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, 2, validate=False)))
        passed, failed = (run_verification(g, seed=1, grid_size=12).checks for g in (f, bad))
        assert [r.name for r in failed] == [r.name for r in passed]
        assert all(r.error for r in failed if "colligation" in r.name or "recovery" in r.name)
        assert not any(r.error for r in passed)

    def test_determinism(self, parallel_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--pencil", parallel_file, "--seed", "9", "--grid", "10", "--out", str(a)])
        main(["verify", "--pencil", parallel_file, "--seed", "9", "--grid", "10", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_p0_pencil_passes(self, tmp_path):
        data = {"N": 2, "n": 1, "p": 0,
                "coeffs": [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]}
        path = tmp_path / "diag.json"
        serialize.dump(data, str(path))
        assert main(["verify", "--pencil", str(path), "--grid", "10"]) == 0

    def test_iota_battery(self, parallel_file, tmp_path):
        iota = {"J_U": [[[1.0, 0.0]]], "J_H": [[[1.0, 0.0]]]}
        path = tmp_path / "iota.json"
        serialize.dump(iota, str(path))
        assert main(["verify", "--pencil", parallel_file, "--grid", "10",
                     "--iota", str(path)]) == 0

    @pytest.mark.parametrize("iota", [
        [[[1.0, 0.0]]], "J_U", 1.0, None,
        {"J_U": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    ], ids=["list", "string", "number", "null", "J_U-2x2-on-n-1"])
    def test_malformed_iota_is_input_error(self, parallel_file, tmp_path, capsys, iota):
        path = tmp_path / "iota.json"
        serialize.dump(iota, str(path))
        assert main(["verify", "--pencil", parallel_file, "--grid", "10",
                     "--iota", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_J_H_of_another_size_is_input_error(self, tmp_path, capsys):
        # p is counted after compression
        pencil, iota = tmp_path / "pencil.json", tmp_path / "iota.json"
        serialize.dump(serialize.pencil_to_json(random_pencil(np.random.default_rng(3), 3, 1, 3)),
                       str(pencil))
        serialize.dump({"J_U": [[[1.0, 0.0]]], "J_H": [[[1.0, 0.0]]]}, str(iota))
        assert main(["verify", "--pencil", str(pencil), "--grid", "5", "--iota", str(iota)]) == 2
        err = capsys.readouterr().err
        assert "J_H is 1 x 1, the pencil's p is 3" in err and "after compression" in err


# Every row of run_verification(random_pencil(default_rng(2026), 2, 2, 3),
# seed=3, grid_size=12) as (name, value.hex(), tol.hex(), pass), recorded
# before the battery reused the synthesis values (numpy 2.4, OpenBLAS
# 0.3.31, x86-64).  Reusing values must not move a single bit; a BLAS
# build that rounds differently would need the table recorded again.  The
# transfer-match and recovery rows were recorded again when synthesized
# colligations began to evaluate S through their reflection factor, the
# five colligation rows when the synthesis moved to the half-size QR of
# the sum and difference generator families (a new orthonormal basis of
# the same span: U moves in its last bits), and again when the theta
# tables and S(w) came from one M(w) solve instead of a division by F + I.
# The calculus-positivity row was recorded again when the eigenvalue-only
# checks moved from eigh to eigvalsh (a last-bit change), and the
# kernel-identity row when the two-point residuals became column bounds
# from a thin QR (a bound above the pair maximum, not a last-bit change).
# The five colligation rows were recorded again when U = I - 2 V V* came
# from the sign of the span's Hermitian swap K instead of the
# pseudo-inverse swap: U moves in its last bits, and the selfadjointness
# row reads 0 here because V V* is formed Hermitian up to the rounding of
# its two triangles.  The four rows below that moved were recorded again,
# under one BLAS thread, when the synthesis moved to the forward map of
# the kernel rebuild, read from the kernel identity's R (old -> new hex):
# unitarity 0x1.42319dad780a4p-48 -> 0x1.b76ff6c7ad986p-49, transfer-match
# 0x1.896e19e76a73ep-52 -> 0x1.333ee5ec12e4fp-50, spectrum-margin
# 0x1.ad2de616b97d8p-2 -> 0x1.ad2de616b97dcp-2, recovery
# 0x1.00340116495a5p-49 -> 0x1.fde6d8bd3c0bep-50.
GOLDEN_ROWS = [
    ("pencil-coefficients-psd", "0x0.0p+0", "0x1.b7cdfd9d7bdbbp-34", True),
    ("homogeneity", "0x1.2a6c38dfdde4ep-52", "0x1.12e0be826d695p-30", True),
    ("conjugate-symmetry", "0x1.c02e79bef6d8fp-53", "0x1.12e0be826d695p-30", True),
    ("positivity-min-re-eigenvalue", "0x1.5937371cd0606p-3", "-0x1.b7cdfd9d7bdbbp-34", True),
    ("kernel-identity", "0x1.3c5e60aca787bp-48", "0x1.12e0be826d695p-30", True),
    ("four-quadrant-conditions", "0x1.0000000000000p+0", "0x1.0000000000000p+0", True),
    ("calculus-positivity-min-eig", "0x1.10a6ed0d9b4a4p+1", "-0x1.b7cdfd9d7bdbbp-34", True),
    ("colligation-unitarity", "0x1.b76ff6c7ad986p-49", "0x1.12e0be826d695p-30", True),
    ("colligation-selfadjointness", "0x0.0p+0", "0x1.12e0be826d695p-30", True),
    ("colligation-transfer-match", "0x1.333ee5ec12e4fp-50", "0x1.12e0be826d695p-30", True),
    ("colligation-spectrum-margin", "0x1.ad2de616b97dcp-2", "0x1.0c6f7a0b5ed8dp-20", True),
    ("inverse-double-cayley-recovery", "0x1.fde6d8bd3c0bep-50", "0x1.12e0be826d695p-30", True),
]


# Every row of run_verification(random_pencil(default_rng(16), 3, 4, 32),
# seed=5, grid_size=20), the shape of the benchmark's large pencil, as
# (name, value.hex(), tol.hex(), pass); recorded while the d(R), F(w) + I
# and I - S(w) guards still ran the condition estimate on every matrix
# (numpy 2.4, OpenBLAS 0.3.31, x86-64).  A certificate may only skip the
# estimate, and A(R) assembled from whole coefficients adds the same terms
# in the same order, so no bit may move.  The five colligation rows were
# re-recorded when the theta tables and S(w) moved to one M(w) solve, and
# again under one BLAS thread: their last bits follow the thread count
# and, within one process, the calls that ran before, so the rows are
# computed in a fresh process with OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1.
# The two positivity rows were recorded again when the eigenvalue-only
# checks moved from eigh to eigvalsh (one and eight units in the last place),
# and the kernel-identity row when the two-point residuals became column
# bounds from a thin QR.  The five colligation rows were recorded again,
# under one BLAS thread, when U = I - 2 V V* came from the sign of the
# span's Hermitian swap K instead of the pseudo-inverse swap, and the three
# that moved again, under one BLAS thread, when the synthesis moved to the
# forward map of the kernel rebuild (old -> new hex): unitarity
# 0x1.b11cfd5eee6e0p-47 -> 0x1.03640d156e8c8p-47, transfer-match
# 0x1.2f5f03a053a2dp-50 -> 0x1.14a4772fdb972p-50, recovery
# 0x1.ae72f0e11617cp-49 -> 0x1.33c0ee7ffdb25p-49.
GOLDEN_ROWS_BENCH_SHAPE = [
    ('pencil-coefficients-psd', '0x0.0p+0', '0x1.b7cdfd9d7bdbbp-34', True),
    ('homogeneity', '0x1.c237b67c38c37p-51', '0x1.12e0be826d695p-30', True),
    ('conjugate-symmetry', '0x1.21e6a226bc2e2p-52', '0x1.12e0be826d695p-30', True),
    ('positivity-min-re-eigenvalue', '0x1.2b739065ad314p-3', '-0x1.b7cdfd9d7bdbbp-34', True),
    ('kernel-identity', '0x1.42625c821206cp-47', '0x1.12e0be826d695p-30', True),
    ('four-quadrant-conditions', '0x1.0000000000000p+0', '0x1.0000000000000p+0', True),
    ('calculus-positivity-min-eig', '0x1.d869de8c9e01ap+1', '-0x1.b7cdfd9d7bdbbp-34', True),
    ('colligation-unitarity', '0x1.03640d156e8c8p-47', '0x1.12e0be826d695p-30', True),
    ('colligation-selfadjointness', '0x0.0p+0', '0x1.12e0be826d695p-30', True),
    ('colligation-transfer-match', '0x1.14a4772fdb972p-50', '0x1.12e0be826d695p-30', True),
    ('colligation-spectrum-margin', '0x1.31bd2b2e252a8p-2', '0x1.0c6f7a0b5ed8dp-20', True),
    ('inverse-double-cayley-recovery', '0x1.33c0ee7ffdb25p-49', '0x1.12e0be826d695p-30', True),
]

# argv[1] is "True" for a validated load, "False" for the unchecked load the benchmark uses
BENCH_SHAPE_ROWS = """
import json, sys
import numpy as np
from posreal.cli import run_verification
from posreal.pencil import PsdPencil, RealizedFunction, compress_realization
from posreal.sampling import random_pencil
f = random_pencil(np.random.default_rng(16), 3, 4, 32)
if sys.argv[1] == "False":
    f = compress_realization(RealizedFunction(
        PsdPencil.from_coeffs(f.pencil.coeffs, f.dim_u, validate=False)))
report = run_verification(f, seed=5, grid_size=20)
print(json.dumps([(r.name, r.value.hex(), r.tol.hex(), r.passed) for r in report.checks]))
"""


def _separate_evaluation_rows(f, seed, grid_size, pol=DEFAULT_POLICY):
    """The rows that reuse grid values, each computed on its own as before the reuse.

    Positivity takes one eigendecomposition per point; the synthesis gets
    the phi tables from their own d(z) solve, S from its own division by
    F + I and R from its own kernel identity gate; the colligation
    residuals are measured again on U; recovery solves the transfer
    function again and evaluates F again.
    """
    zs = halfplane_grid(f.num_vars, grid_size, seed)
    vals = f(zs, pol)
    scales = 1.0 + np.linalg.norm(vals, axis=(1, 2))
    rows = {"positivity-min-re-eigenvalue": min(
        float(eigh_or_refuse(hermitian_part(v))[0][0]) / s for v, s in zip(vals, scales))}
    ws = disk_grid(f.num_vars, grid_size, seed)
    ks = kernels.sample_kernels(f, disk_to_halfplane(ws), pol)
    syn = colligation_from_kernel_samples(ws, ks, value_cayley(ks.f_samples, pol), pol)
    coll = syn.colligation
    rec = inv_double_cayley(lambda pts: transfer_eval(coll, pts, pol), ws, pol)
    fvals = f(disk_to_halfplane(ws), pol)
    rows.update({
        "colligation-unitarity": coll.unitarity_residual(),
        "colligation-selfadjointness": coll.selfadjointness_residual(),
        "colligation-transfer-match": syn.interpolation_residual,
        "inverse-double-cayley-recovery": float(np.max(
            np.linalg.norm(rec - fvals, axis=(1, 2)) / (1.0 + np.linalg.norm(fvals, axis=(1, 2))))),
    })
    return rows


class TestVerificationReuse:
    def test_rows_match_golden_bits(self):
        f = random_pencil(np.random.default_rng(2026), 2, 2, 3)
        report = run_verification(f, seed=3, grid_size=12)
        got = [(r.name, r.value.hex(), r.tol.hex(), r.passed) for r in report.checks]
        assert got == GOLDEN_ROWS

    @pytest.mark.parametrize("validate", [True, False])
    def test_benchmark_shape_rows_match_golden_bits(self, validate):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", BENCH_SHAPE_ROWS, str(validate)], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        assert [tuple(row) for row in json.loads(out.stdout)] == GOLDEN_ROWS_BENCH_SHAPE

    @pytest.mark.parametrize("shape, rank_deficient", [
        ((2, 2, 3), False), ((3, 1, 2), False), ((2, 2, 0), False), ((3, 2, 4), True),
    ])
    def test_reused_rows_equal_separate_evaluation(self, shape, rank_deficient):
        f = random_pencil(np.random.default_rng(sum(shape)), *shape, rank_deficient=rank_deficient)
        report = {r.name: r.value for r in run_verification(f, seed=5, grid_size=15).checks}
        for name, value in _separate_evaluation_rows(f, 5, 15).items():
            assert report[name] == value, name

    def test_kernel_evaluator_is_built_once(self, monkeypatch):
        calls = []
        init = kernels.KernelEvaluator.__init__

        def spy(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(kernels.KernelEvaluator, "__init__", spy)
        f = random_pencil(np.random.default_rng(3), 2, 2, 3)
        assert run_verification(f, seed=1, grid_size=9).verdict
        assert len(calls) == 1

    def test_transfer_function_is_solved_once(self, monkeypatch):
        calls = []

        def spy(c, w, pol=DEFAULT_POLICY):
            calls.append(len(np.atleast_2d(w)))
            return transfer_eval(c, w, pol)

        # every binding, the defining module's and each from-import copy
        for name, module in list(sys.modules.items()):
            if name.startswith("posreal") and getattr(module, "transfer_eval", None) is transfer_eval:
                monkeypatch.setattr(module, "transfer_eval", spy)
        f = random_pencil(np.random.default_rng(3), 2, 2, 3)
        report = run_verification(f, seed=1, grid_size=9)
        assert report.verdict
        assert calls == [9]

    @pytest.mark.parametrize("shape", [(3, 2, 4), (2, 1, 0)])
    def test_d_on_the_halfplane_grid_is_solved_once(self, monkeypatch, shape):
        f = random_pencil(np.random.default_rng(4), *shape)
        zs = halfplane_grid(f.num_vars, 12, 1)
        n = f.dim_u
        d_zs = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))[:, n:, n:]
        solves = []
        real = np.linalg.solve

        def spy(a, b):
            solves.append(np.shape(a) == d_zs.shape and np.array_equal(a, d_zs))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        assert run_verification(f, seed=1, grid_size=12).verdict
        # f(zs) and psi(zs) share one solve; with p = 0 there is none
        assert sum(solves) == (1 if f.dim_h else 0)

    def test_cayley_solves_d_once(self, monkeypatch, tmp_path):
        f = random_pencil(np.random.default_rng(4), 2, 2, 3)
        path = tmp_path / "pencil.json"
        serialize.dump(serialize.pencil_to_json(f), str(path))
        zs = disk_to_halfplane(disk_grid(f.num_vars, 9, 0))
        d_zs = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))[:, 2:, 2:]
        solves = []
        real = np.linalg.solve

        def spy(a, b):
            solves.append(np.shape(a) == d_zs.shape and np.array_equal(a, d_zs))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        assert main(["cayley", "--pencil", str(path), "--grid", "9"]) == 0
        # F and C(f) come from one evaluation of f on the disk grid
        assert sum(solves) == 1

    @pytest.mark.parametrize("run", ["run_verification", "colligate", "schur_identity_residuals"])
    def test_m_on_the_disk_grid_is_solved_once(self, monkeypatch, tmp_path, run):
        f = random_pencil(np.random.default_rng(4), 3, 2, 4)
        path = tmp_path / "pencil.json"
        serialize.dump(serialize.pencil_to_json(f), str(path))
        ws = disk_grid(f.num_vars, 12, 1)
        zs = disk_to_halfplane(ws)
        plus_t = (f(zs) + np.eye(2)).transpose(0, 2, 1)
        # M(w) = A(z) + E E*, E = [I_n; 0]
        m_ws = np.tensordot(zs, f.pencil.stacked, axes=(1, 0))
        m_ws[:, :2, :2] += np.eye(2)
        solves, r_solves, plus_solves = [], [], []
        real = np.linalg.solve

        def spy(a, b):
            solves.append(np.shape(a) == m_ws.shape and np.allclose(a, m_ws, rtol=1e-13, atol=1e-13))
            # the synthesized colligation's r x r pencil; r = n + p here
            r_solves.append(np.shape(a) == m_ws.shape)
            plus_solves.append(np.shape(a) == plus_t.shape
                               and np.allclose(a, plus_t, rtol=1e-13, atol=0))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        if run == "schur_identity_residuals":
            assert max(agler_identity_residual(colligation_from_pencil(f), ws)) < 1e-10
            # the theta tables and S(w) share one state solve of the pencil's
            # colligation: no M(w) is solved, and nothing divides by F(w) + I
            assert sum(r_solves) == 0
            assert sum(plus_solves) == 0
            return
        if run == "run_verification":
            assert run_verification(f, seed=1, grid_size=12).verdict
        else:
            assert main(["colligate", "--pencil", str(path), "--grid", "12", "--seed", "1"]) == 0
        # the synthesis reads the phi tables, so the pencil's M(w) is not
        # solved; the synthesized colligation's is, once, in transfer_eval
        # (colligate's Agler identity residuals read S from their state
        # solve), and F(w) + I is divided once, for the target S
        assert sum(solves) == 0
        assert sum(r_solves) == 1
        assert sum(plus_solves) == 1


class TestEval:
    def test_prints_value(self, parallel_file, capsys):
        assert main(["eval", "--pencil", parallel_file, "--point", "1,1"]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_singular_point_refused(self, parallel_file, capsys):
        code = main(["eval", "--pencil", parallel_file, "--point", "1,-1"])
        assert code == 3

    def test_missing_point_is_usage_error(self, parallel_file):
        assert main(["eval", "--pencil", parallel_file]) == 2

    def test_bad_file_is_usage_error(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["eval", "--pencil", missing, "--point", "1,1"]) == 2

    def test_points_file(self, parallel_file, tmp_path, capsys):
        pts = tmp_path / "pts.json"
        serialize.dump(serialize.points_to_json(np.array([[2.0, 2.0]])), str(pts))
        assert main(["eval", "--pencil", parallel_file, "--points", str(pts)]) == 0
        assert "1" in capsys.readouterr().out


class TestPipelines:
    def test_netlist_to_eval(self, tmp_path, capsys):
        net = tmp_path / "series.net"
        net.write_text("ports P\nbranch P M z1 1\nbranch M GND z2 1\n")
        pencil_out = tmp_path / "series.json"
        assert main(["netlist", "--netlist", str(net), "--out", str(pencil_out)]) == 0
        assert main(["eval", "--pencil", str(pencil_out), "--point", "1,1"]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_kernels_sample_and_rebuild(self, parallel_file, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        assert main(["kernels", "--pencil", parallel_file, "--grid", "8",
                     "--seed", "3", "--out", str(samples)]) == 0
        rebuilt = tmp_path / "rebuilt.json"
        assert main(["kernels", "--rebuild", str(samples), "--out", str(rebuilt)]) == 0
        assert main(["eval", "--pencil", str(rebuilt), "--point", "1,1"]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_rebuild_of_overflowing_samples_is_quiet_input_error(self, parallel, tmp_path,
                                                                 capsys):
        ks = kernels.sample_kernels(parallel, halfplane_grid(2, 6, seed=4))
        table = ks.factors[0].copy()
        table[2, 0, 0] = 1e160  # finite, but its kernel products overflow
        bad = kernels.KernelSampleSet(ks.grid, (table, ks.factors[1]), ks.f_samples)
        path = tmp_path / "overflow.json"
        serialize.dump(serialize.kernel_samples_to_json(bad), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernels", "--rebuild", str(path)]) == 2
        assert "residual nan" in capsys.readouterr().err

    def test_colligate_output_schema(self, parallel_file, tmp_path, capsys):
        out = tmp_path / "coll.json"
        assert main(["colligate", "--pencil", parallel_file, "--grid", "10",
                     "--seed", "2", "--out", str(out)]) == 0
        coll = serialize.colligation_from_json(json.loads(out.read_text()))
        coll.validate()
        assert coll.selfadjoint

    def test_colligate_check_mode(self, parallel_file, tmp_path, capsys):
        out = tmp_path / "coll.json"
        main(["colligate", "--pencil", parallel_file, "--grid", "10",
              "--seed", "2", "--out", str(out)])
        assert main(["colligate", "--colligation", str(out)]) == 0
        data = json.loads(out.read_text())
        data["U"][0][0] = [0.3, 0.0]  # break unitarity
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["colligate", "--colligation", str(bad)]) == 1

    def test_colligate_requires_source(self):
        with pytest.raises(SystemExit) as err:
            main(["colligate"])
        assert err.value.code == 2

    def test_kernels_requires_source(self):
        with pytest.raises(SystemExit) as err:
            main(["kernels"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, other", [("kernels", "--rebuild"),
                                                ("colligate", "--colligation")])
    def test_conflicting_sources_are_usage_error(self, parallel_file, tmp_path, capsys,
                                                 command, other):
        with pytest.raises(SystemExit) as err:
            main([command, "--pencil", str(tmp_path / "missing.json"), other, parallel_file])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_cayley_points(self, parallel_file, capsys):
        assert main(["cayley", "--pencil", parallel_file, "--point", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "-0.333" in out

    def test_calculus_subcommand(self, parallel_file, capsys):
        assert main(["calculus", "--pencil", parallel_file, "--tuples", "2",
                     "--dim", "3", "--seed", "4", "--degree", "30"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_calculus_tail_reads_the_sup_of_the_sup_torus(self, parallel, parallel_file,
                                                          monkeypatch, capsys):
        tables = []

        def spy(coeffs, t, pol=DEFAULT_POLICY):
            tables.append(coeffs)
            return calc_series(coeffs, t, pol)

        monkeypatch.setattr(calculus, "calc_series", spy)
        assert main(["calculus", "--pencil", parallel_file, "--tuples", "1",
                     "--dim", "2", "--seed", "4", "--degree", "30"]) == 0
        ring = TAYLOR_SUP_RADIUS * np.exp(2j * np.pi * np.arange(64) / 64)
        torus = np.stack(np.meshgrid(ring, ring, indexing="ij"), axis=-1).reshape(-1, 2)
        sup = float(np.max(np.linalg.norm(DiskFunctionView(parallel).eval_F(torus), 2, axis=(1, 2))))
        assert len(tables) == 1
        assert tables[0].sup_radius == TAYLOR_SUP_RADIUS
        assert tables[0].sup_bound >= sup


class TestHunt:
    def test_ndjson_log(self, tmp_path, capsys):
        out = tmp_path / "hunt.ndjson"
        code = main(["hunt", "--trials", "3", "--num-vars", "3", "--dim", "3",
                     "--seed", "1", "--candidates", "1", "--degree", "20",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["violation"] is False
            assert isinstance(record["norm"], float)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hunt", "--trials", "not-a-number"])
        assert err.value.code == 2

    @pytest.mark.parametrize("candidate, code", [("pencil-control-0", 1), ("pkg.mod:f", 0)])
    def test_control_violation_fails_the_run(self, monkeypatch, capsys, candidate, code):
        record = {"trial": 0, "candidate": candidate, "tuple": [], "norm": 1.5,
                  "tail": 0.0, "violation": True}
        monkeypatch.setattr("posreal.cli.hunt", lambda config, candidates, pol: iter([record]))
        assert main(["hunt", "--trials", "1", "--candidates", "1"]) == code
        assert "violations: 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ("nosuchmod:f", "cannot load --candidate 'nosuchmod:f'"),
        ("posreal", "is not of the form module:attr"),
        ("posreal:no_such_attribute", "cannot load --candidate 'posreal:no_such_attribute'"),
        ("numpy:pi", "not callable"),
    ])
    def test_malformed_candidate_is_input_error(self, monkeypatch, capsys, spec, message):
        def refuse(config, candidates, pol):
            raise AssertionError("the hunt ran")

        monkeypatch.setattr("posreal.cli.hunt", refuse)
        assert main(["hunt", "--trials", "1", "--candidates", "0", "--candidate", spec]) == 2
        assert message in capsys.readouterr().err

    def test_candidate_of_wrong_value_shape_is_input_error(self, capsys):
        # numpy.conj returns the (B, N) points, not one matrix per point
        code = main(["hunt", "--trials", "1", "--degree", "2", "--num-vars", "2",
                     "--candidates", "0", "--candidate", "numpy:conj"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_records_are_compact_lines(self, monkeypatch, tmp_path, capsys):
        record = {"trial": 0, "candidate": "pencil-control-0", "tuple": [[[[0.5, -0.0]]]],
                  "norm": 0.25, "tail": 1e-17, "violation": False}
        monkeypatch.setattr("posreal.cli.hunt", lambda config, candidates, pol: iter([record]))
        out = tmp_path / "hunt.ndjson"
        assert main(["hunt", "--trials", "1", "--candidates", "1", "--out", str(out)]) == 0
        assert out.read_text() == serialize.dumps(record) + "\n"
        assert " " not in out.read_text()


class TestGridSize:
    @pytest.mark.parametrize("command,grid", [
        ("verify", "0"), ("verify", "-3"), ("cayley", "0"),
        ("kernels", "0"), ("kernels", "-3"), ("colligate", "0"), ("colligate", "-3"),
    ])
    def test_nonpositive_grid_is_usage_error(self, parallel_file, capsys, command, grid):
        with pytest.raises(SystemExit) as err:
            main([command, "--pencil", parallel_file, "--grid", grid])
        assert err.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_non_integer_grid_is_usage_error(self, parallel_file):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--pencil", parallel_file, "--grid", "2.5"])
        assert err.value.code == 2

    def test_grid_of_one_runs(self, parallel_file):
        assert main(["colligate", "--pencil", parallel_file, "--grid", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["eval", "--point", "1,1", "--grid", "5"], ["eval", "--point", "1,1", "--seed", "1"],
        ["calculus", "--grid", "5"],
    ], ids=["eval-grid", "eval-seed", "calculus-grid"])
    def test_option_the_command_does_not_read_is_usage_error(self, parallel_file, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--pencil", parallel_file])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _scaled_pencil_file(tmp_path, largest):
    """A random (2, 1, 2) pencil scaled so that its largest entry is ``largest``."""
    f = random_pencil(np.random.default_rng(3), 2, 1, 2)
    s = largest / max(np.max(np.abs(a)) for a in f.pencil.coeffs)
    data = serialize.pencil_to_json(f)
    data["coeffs"] = [[[[re * s, im * s] for re, im in row] for row in a] for a in data["coeffs"]]
    path = tmp_path / f"scaled-{largest:g}.json"
    serialize.dump(data, str(path))
    return str(path)


class TestHugePencil:
    @pytest.mark.parametrize("largest", [6.6e160, 6.6e306])
    @pytest.mark.parametrize("argv", [["verify"], ["kernels", "--grid", "20"], ["colligate"]])
    def test_huge_entries_are_quiet_input_error(self, tmp_path, capsys, largest, argv):
        path = _scaled_pencil_file(tmp_path, largest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--pencil", path]) == 2
        assert "above 1e+100" in capsys.readouterr().err

    def test_entries_just_below_the_cap_verify_cleanly(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["verify", "--pencil", _scaled_pencil_file(tmp_path, 9e99), "--out", str(out)])
        rows = {row["name"]: row for row in json.loads(out.read_text())["checks"]}
        assert all(np.isfinite(row["value"]) for row in rows.values())
        # at overflow these read exactly 0 and passed falsely
        for name in ("homogeneity", "conjugate-symmetry", "kernel-identity"):
            assert rows[name]["pass"] and 0.0 < rows[name]["value"] <= 1e-12


class TestInputErrors:
    def test_ragged_points_json_is_input_error(self, parallel_file, tmp_path, capsys):
        pts = tmp_path / "ragged.json"
        pts.write_text(json.dumps([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]))
        assert main(["eval", "--pencil", parallel_file, "--points", str(pts)]) == 2
        assert "malformed points JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "cayley"])
    def test_points_file_of_another_width_is_input_error(self, parallel_file, tmp_path, capsys,
                                                          command):
        # np.stack of the --point and --points coordinates raised ValueError (exit 1)
        pts = tmp_path / "pts.json"
        serialize.dump(serialize.points_to_json(np.array([[0.5, 0.5, 0.5]])), str(pts))
        argv = [command, "--pencil", parallel_file, "--point", "0.5,0.5", "--points", str(pts)]
        assert main(argv) == 2
        assert "malformed points JSON: lists nested as (1, 3, 2) where (*, 2, 2)" in capsys.readouterr().err

    def test_pencil_directory_is_input_error(self, tmp_path, capsys):
        assert main(["eval", "--pencil", str(tmp_path), "--point", "1,1"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["calculus", "--degree", "-1"], ["calculus", "--degree", "0"],
        ["calculus", "--dim", "0"], ["calculus", "--tuples", "0"],
        ["hunt", "--dim", "0"], ["hunt", "--trials", "-2"], ["hunt", "--degree", "0"],
    ])
    def test_nonpositive_size_is_usage_error(self, parallel_file, capsys, argv):
        if argv[0] == "calculus":
            argv = argv + ["--pencil", parallel_file]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--grid", "5"], ["hunt", "--trials", "1", "--degree", "5"],
        ["kernels", "--grid", "5"], ["colligate", "--grid", "5"],
    ])
    def test_negative_seed_is_usage_error(self, parallel_file, capsys, argv):
        if argv[0] != "hunt":
            argv = argv + ["--pencil", parallel_file]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "-1"])
        assert err.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err

    def test_nan_tolerance_is_input_error(self, parallel_file, capsys):
        assert main(["verify", "--pencil", parallel_file, "--grid", "5", "--tol", "nan"]) == 2
        assert "tolerance residual_tol must be nonnegative" in capsys.readouterr().err

    def test_negative_candidates_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hunt", "--trials", "1", "--degree", "3", "--candidates", "-1"])
        assert err.value.code == 2
        assert "must be at least 0, got -1" in capsys.readouterr().err

    def test_zero_candidates_accepted(self):
        from posreal.cli import build_parser

        assert build_parser().parse_args(["hunt", "--candidates", "0"]).candidates == 0

    def test_seed_zero_runs(self, parallel_file):
        assert main(["verify", "--pencil", parallel_file, "--grid", "3", "--seed", "0"]) == 0

    @pytest.mark.parametrize("point", ["nan,1", "inf,1", "1,-inf"])
    def test_non_finite_point_is_input_error(self, parallel_file, capsys, point):
        assert main(["eval", "--pencil", parallel_file, "--point", point]) == 2
        assert "finite coordinates" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, index, value", [
        ("verify", "N", None, float("inf")), ("verify", "n", None, float("inf")),
        ("verify", "p", None, float("inf")), ("verify", "coeffs", None, 3),
        ("verify", "coeffs", None, None), ("colligate", "n", None, float("inf")),
        ("colligate", "dims", 0, float("inf")),
        ("verify", "coeffs", 0, [[[10 ** 400, 0.0]]]),
        ("verify", "N", None, 2.5), ("verify", "p", None, 2.5), ("verify", "n", None, True),
        ("colligate", "dims", 0, 2.5), ("colligate", "selfadjoint", None, "x"),
        ("colligate", "selfadjoint", None, None), ("colligate", "selfadjoint", None, []),
        ("kernels", "f_samples", None, [[[[10 ** 400, 0.0]]]] * 3),
        ("kernels", "factors", 0, [[[[10 ** 400, 0.0]]]] * 3),
    ])
    def test_malformed_field_is_input_error(self, parallel_file, tmp_path, capsys,
                                            command, key, index, value):
        # the first eight and the last two (nested-pairs kernel tables) used to
        # escape the loader as a traceback with exit 1; int() truncated the
        # other counts and bool() read any flag as truthy
        if command == "verify":
            source, argv = parallel_file, ["verify", "--grid", "3", "--pencil"]
        elif command == "kernels":
            source = str(tmp_path / "samples.json")
            assert main(["kernels", "--pencil", parallel_file, "--grid", "3", "--out", source]) == 0
            argv = ["kernels", "--rebuild"]
        else:
            source = str(tmp_path / "colligation.json")
            assert main(["colligate", "--pencil", parallel_file, "--grid", "5", "--out", source]) == 0
            argv = ["colligate", "--colligation"]
        data = serialize.load(source)
        if index is None:
            data[key] = value
        else:
            data[key][index] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))  # inf is written as Infinity
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("ports\nbranch P GND z1 1\n", "line 1: ports line needs at least one name"),
    ("ports P P\nbranch P GND z1 1\n", "line 1: duplicate port P"),
    ("ports P\nbranch P GND z1\n", "line 2: branch needs nodeA nodeB z<k> weight"),
    ("ports P\nbranch P GND z1 1\nbranch M M z2 1\n", "line 3: branch endpoints coincide"),
    ("ports P\nbranch P GND z1 one\n", "line 2: bad weight 'one'"),
    ("ports P\nbranch P GND z1 1\nresistor P GND 1\n", "line 3: unknown directive 'resistor'"),
    ("# no ports line\nbranch P GND z1 1\n", "netlist declares no ports"),
])
def test_malformed_netlist_is_input_error(tmp_path, capsys, text, message):
    net = tmp_path / "bad.net"
    net.write_text(text)
    assert main(["netlist", "--netlist", str(net)]) == 2
    assert message in capsys.readouterr().err


def _with_a_leaf(kind, leaf, parallel_file, tmp_path):
    """argv of a run whose input file of ``kind`` has ``leaf`` where a number belongs."""
    if kind == "pencil":
        data = serialize.load(parallel_file)
        data["coeffs"][0][0][0] = [leaf, 0.0]
        argv = ["verify", "--grid", "3", "--pencil"]
    elif kind == "colligation":
        source = str(tmp_path / "colligation.json")
        assert main(["colligate", "--pencil", parallel_file, "--grid", "5", "--out", source]) == 0
        data = serialize.load(source)
        data["U"][0][0][1] = leaf
        argv = ["colligate", "--colligation"]
    elif kind == "kernel-samples":
        source = str(tmp_path / "samples.json")
        assert main(["kernels", "--pencil", parallel_file, "--grid", "3", "--out", source]) == 0
        data = serialize.load(source)
        data["grid"][0][0] = [leaf, 0.0]
        argv = ["kernels", "--rebuild"]
    elif kind == "points":
        data = [[[leaf, 0.0], [1.0, 0.0]]]
        argv = ["eval", "--pencil", parallel_file, "--points"]
    else:
        data = {"J_U": [[[leaf, 0.0]]]}
        argv = ["verify", "--grid", "3", "--pencil", parallel_file, "--iota"]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    return argv + [str(path)]


KINDS = ["pencil", "colligation", "kernel-samples", "points", "iota"]


@pytest.mark.parametrize("kind, leaf", [
    *(pytest.param(kind, kind != "colligation", id=kind) for kind in KINDS),
    *(pytest.param(kind, "0.5", id=f"{kind}-string") for kind in KINDS),
    *(pytest.param(kind, None, id=f"{kind}-null") for kind in KINDS),
])
def test_boolean_where_a_number_belongs_is_input_error(parallel_file, tmp_path, capsys, kind, leaf):
    # float() reads true as 1.0 and false as 0.0, numpy parsed "0.5" as 0.5 and
    # read null as NaN; a count (_count) and a flag (_flag) already refuse a
    # value of the other kind
    argv = _with_a_leaf(kind, leaf, parallel_file, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert "where a number is expected" in capsys.readouterr().err


class TestAglerGrid:
    @pytest.fixture
    def received(self, monkeypatch):
        """Records the number of points each Agler identity check is given."""
        from posreal.colligation import agler_identity_residual

        seen = []

        def spy(coll, ws, pol):
            seen.append(len(ws))
            return agler_identity_residual(coll, ws, pol)

        # every binding: synthesis in the CLI, the check of a loaded file in verify
        for name, module in list(sys.modules.items()):
            if name.startswith("posreal") and getattr(module, "agler_identity_residual", None) is agler_identity_residual:
                monkeypatch.setattr(module, "agler_identity_residual", spy)
        return seen

    # disk_grid(N, g) holds g points for odd g: (g - 1) / 2 draws, their
    # conjugates and the center
    def test_synthesis_checks_the_whole_grid(self, parallel_file, received, capsys):
        assert main(["colligate", "--pencil", parallel_file, "--grid", "13"]) == 0
        assert received == [13]

    def test_check_mode_checks_the_whole_grid(self, parallel_file, tmp_path, received, capsys):
        out = tmp_path / "coll.json"
        assert main(["colligate", "--pencil", parallel_file, "--grid", "7",
                     "--out", str(out)]) == 0
        assert main(["colligate", "--colligation", str(out), "--grid", "9"]) == 0
        assert received == [7, 9]


def test_colligate_writes_the_synthesis_of_separately_evaluated_data(tmp_path, capsys):
    # U must equal the synthesis from the phi tables of a separate
    # sample_kernels call and S = C(f), bit for bit
    f = random_pencil(np.random.default_rng(6), 3, 2, 4)
    pencil_path, out = tmp_path / "pencil.json", tmp_path / "coll.json"
    serialize.dump(serialize.pencil_to_json(f), str(pencil_path))
    assert main(["colligate", "--pencil", str(pencil_path), "--grid", "11", "--seed", "2",
                 "--out", str(out)]) == 0
    loaded = serialize.colligation_from_json(serialize.load(str(out)))
    ws = disk_grid(f.num_vars, 11, 2)
    ks = kernels.sample_kernels(f, disk_to_halfplane(ws))
    syn = colligation_from_kernel_samples(ws, ks, value_cayley(ks.f_samples))
    assert np.array_equal(loaded.U, syn.colligation.U)


class TestTaylorCap:
    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(self, w):
            raise AssertionError("the Taylor table was sampled")

        monkeypatch.setattr("posreal.cayley.DiskFunctionView.eval_double_cayley", refuse)

    def test_hunt_degree_beyond_cap_is_input_error(self, no_sampling, capsys):
        assert main(["hunt", "--trials", "1", "--degree", "2000"]) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_calculus_degree_beyond_cap_is_input_error(self, parallel_file, no_sampling, capsys):
        assert main(["calculus", "--pencil", parallel_file, "--degree", "2000"]) == 2
        assert "above the cap" in capsys.readouterr().err

    def test_cli_defaults_fit_under_the_cap(self):
        from posreal.calculus import HuntConfig
        from posreal.cli import build_parser
        from posreal.core import ValidationError

        args = build_parser().parse_args(["hunt"])
        HuntConfig(num_vars=args.num_vars, degree=args.degree)
        HuntConfig(num_vars=3, degree=63)  # a 128^3 table, the largest admitted at N = 3
        with pytest.raises(ValidationError, match="above the cap"):
            HuntConfig(num_vars=3, degree=64)


def _is_args(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "args"


def unread_options(parser: argparse.ArgumentParser) -> list[tuple[str, str]]:
    """(command, dest) of each subcommand option that its handler never reads.

    An option counts as read when ``args.<dest>`` or ``getattr(args,
    "<dest>", ...)`` appears in the handler (the subparser's ``func``
    default) or in a function of the handler's module that it calls by
    name, such as ``cli._policy_from`` or ``cli._collect_points``.
    """
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = []
    for command, sub in subparsers[0].choices.items():
        handler = sub.get_default("func")
        trees = [ast.parse(textwrap.dedent(inspect.getsource(handler)))]
        for node in ast.walk(trees[0]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                helper = handler.__globals__.get(node.func.id)
                if inspect.isfunction(helper) and helper.__module__ == handler.__module__:
                    trees.append(ast.parse(textwrap.dedent(inspect.getsource(helper))))
        read = set()
        for node in (n for tree in trees for n in ast.walk(tree)):
            if isinstance(node, ast.Attribute) and _is_args(node.value):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and len(node.args) >= 2
                    and _is_args(node.args[0]) and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
        unread += [(command, a.dest) for a in sub._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in read]
    return unread


class TestEveryOptionIsRead:
    def test_every_cli_option_is_read_by_its_handler(self):
        assert unread_options(cli.build_parser()) == []

    def test_an_unread_option_is_caught(self):
        parser = argparse.ArgumentParser()
        sub = parser.add_subparsers(dest="command")
        p = sub.add_parser("toy")
        p.add_argument("--used")
        p.add_argument("--unused")
        p.add_argument("--via-helper")
        p.set_defaults(func=_toy_handler)
        assert unread_options(parser) == [("toy", "unused")]


def _toy_helper(args):
    return getattr(args, "via_helper")


def _toy_handler(args):
    return args.used, _toy_helper(args)
