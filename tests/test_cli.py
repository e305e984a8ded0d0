import json

import numpy as np
import pytest

from posreal import serialize
from posreal.cli import main
from posreal.pencil import PsdPencil


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
