import json
import sys
import warnings

import numpy as np
import pytest

from posreal import kernels, serialize
from posreal.cayley import DiskKernelEvaluator, disk_to_halfplane, inv_double_cayley
from posreal.cli import main, run_verification
from posreal.colligation import build_colligation, transfer_eval
from posreal.core import DEFAULT_POLICY, eigh_or_refuse, hermitian_part
from posreal.pencil import PsdPencil
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


# Every row of run_verification(random_pencil(default_rng(2026), 2, 2, 3),
# seed=3, grid_size=12) as (name, value.hex(), tol.hex(), pass), recorded
# before the battery reused the synthesis values (numpy 2.4, OpenBLAS
# 0.3.31, x86-64).  Reusing values must not move a single bit; a BLAS
# build that rounds differently would need the table recorded again.  The
# transfer-match and recovery rows were recorded again when synthesized
# colligations began to evaluate S through their reflection factor, and
# the five colligation rows when the synthesis moved to the half-size QR
# of the sum and difference generator families (a new orthonormal basis
# of the same span: U moves in its last bits).
GOLDEN_ROWS = [
    ("pencil-coefficients-psd", "0x0.0p+0", "0x1.b7cdfd9d7bdbbp-34", True),
    ("homogeneity", "0x1.2a6c38dfdde4ep-52", "0x1.12e0be826d695p-30", True),
    ("conjugate-symmetry", "0x1.c02e79bef6d8fp-53", "0x1.12e0be826d695p-30", True),
    ("positivity-min-re-eigenvalue", "0x1.5937371cd0606p-3", "-0x1.b7cdfd9d7bdbbp-34", True),
    ("kernel-identity", "0x1.09ae489d44e12p-49", "0x1.12e0be826d695p-30", True),
    ("four-quadrant-conditions", "0x1.0000000000000p+0", "0x1.0000000000000p+0", True),
    ("calculus-positivity-min-eig", "0x1.10a6ed0d9b4a3p+1", "-0x1.b7cdfd9d7bdbbp-34", True),
    ("colligation-unitarity", "0x1.4f2806769d042p-48", "0x1.12e0be826d695p-30", True),
    ("colligation-selfadjointness", "0x1.48a8e423e052bp-51", "0x1.12e0be826d695p-30", True),
    ("colligation-transfer-match", "0x1.58814b4836d62p-51", "0x1.12e0be826d695p-30", True),
    ("colligation-spectrum-margin", "0x1.ad2de616b97e6p-2", "0x1.0c6f7a0b5ed8dp-20", True),
    ("inverse-double-cayley-recovery", "0x1.04269354f88e0p-50", "0x1.12e0be826d695p-30", True),
]


def _separate_evaluation_rows(f, seed, grid_size, pol=DEFAULT_POLICY):
    """The rows that reuse grid values, each computed on its own as before the reuse.

    Positivity takes one eigendecomposition per point; the synthesis gets
    F twice (theta tables, Schur values); the colligation residuals are
    measured again on U; recovery solves the transfer function again and
    evaluates F a third time.
    """
    zs = halfplane_grid(f.num_vars, grid_size, seed)
    vals = f(zs, pol)
    scales = 1.0 + np.linalg.norm(vals, axis=(1, 2))
    rows = {"positivity-min-re-eigenvalue": min(
        float(eigh_or_refuse(hermitian_part(v))[0][0]) / s for v, s in zip(vals, scales))}
    ws = disk_grid(f.num_vars, grid_size, seed)
    disk = DiskKernelEvaluator(f, pol)
    syn = build_colligation(ws, disk.theta_table(ws), disk.view.eval_double_cayley(ws), pol)
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
        d_zs = np.tensordot(zs, f.pencil.stacked(), axes=(1, 0))[:, n:, n:]
        solves = []
        real = np.linalg.solve

        def spy(a, b):
            solves.append(np.shape(a) == d_zs.shape and np.array_equal(a, d_zs))
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        assert run_verification(f, seed=1, grid_size=12).verdict
        # f(zs) and psi(zs) share one solve; with p = 0 there is none
        assert sum(solves) == (1 if f.dim_h else 0)


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
        assert main(["colligate"]) == 2

    def test_kernels_requires_source(self):
        assert main(["kernels"]) == 2

    def test_cayley_points(self, parallel_file, capsys):
        assert main(["cayley", "--pencil", parallel_file, "--point", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "0.5" in out and "-0.333" in out

    def test_calculus_subcommand(self, parallel_file, capsys):
        assert main(["calculus", "--pencil", parallel_file, "--tuples", "2",
                     "--dim", "3", "--seed", "4", "--degree", "30"]) == 0
        assert "pass" in capsys.readouterr().out


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
    ])
    def test_malformed_candidate_is_input_error(self, monkeypatch, capsys, spec, message):
        def refuse(config, candidates, pol):
            raise AssertionError("the hunt ran")

        monkeypatch.setattr("posreal.cli.hunt", refuse)
        assert main(["hunt", "--trials", "1", "--candidates", "0", "--candidate", spec]) == 2
        assert message in capsys.readouterr().err

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
        ("verify", "0"), ("verify", "-3"), ("cayley", "0"), ("calculus", "-1"),
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


class TestInputErrors:
    def test_ragged_points_json_is_input_error(self, parallel_file, tmp_path, capsys):
        pts = tmp_path / "ragged.json"
        pts.write_text(json.dumps([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]))
        assert main(["eval", "--pencil", parallel_file, "--points", str(pts)]) == 2
        assert "malformed points JSON" in capsys.readouterr().err

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


class TestAglerGrid:
    @pytest.fixture
    def received(self, monkeypatch):
        """Records the number of points each Agler identity check is given."""
        from posreal import cli

        seen = []
        real = cli.agler_identity_residual

        def spy(coll, ws, pol):
            seen.append(len(ws))
            return real(coll, ws, pol)

        monkeypatch.setattr(cli, "agler_identity_residual", spy)
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
    # the command shares one d(z) solve between F(w) and the theta tables;
    # U must equal the synthesis from data evaluated apart, bit for bit
    f = random_pencil(np.random.default_rng(6), 3, 2, 4)
    pencil_path, out = tmp_path / "pencil.json", tmp_path / "coll.json"
    serialize.dump(serialize.pencil_to_json(f), str(pencil_path))
    assert main(["colligate", "--pencil", str(pencil_path), "--grid", "11", "--seed", "2",
                 "--out", str(out)]) == 0
    loaded = serialize.colligation_from_json(serialize.load(str(out)))
    ws = disk_grid(f.num_vars, 11, 2)
    disk = DiskKernelEvaluator(f)
    syn = build_colligation(ws, disk.theta_table(ws), disk.view.eval_double_cayley(ws))
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
