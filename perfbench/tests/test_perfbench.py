"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced through run.py, and
checks the result line against BENCHMARK.json: every metric present
with its unit, no failed operation, spans nested, and the traced self
times plus the uncovered remainder equal to the traced wall time.  The
repository's own test suite does not collect this directory.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["verify", "series", "hunt", "kernels"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
    if trace:
        value = {k: v["value"] for k, v in metrics.items()}
        assert value["fail_ratio"] == 0
        assert value["trace.nesting_errors"] == 0
        layers = sum(value[f"layer.{name}.self_s"] for name in tracing.LAYERS)
        assert layers + value["trace.uncovered_s"] == pytest.approx(value["trace.wall_s"], rel=1e-6)
        assert value["trace.covered_share"] == pytest.approx(layers / value["trace.wall_s"])
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("verify", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def installed():
    tr = tracing.Tracer()
    yield tr
    tr.uninstall()


def test_every_binding_is_wrapped_and_restored(installed):
    import posreal.cli
    import posreal.kernels
    import posreal.pencil

    guard, schur = posreal.pencil._refuse_ill_conditioned, posreal.pencil.eval_schur
    installed.install()
    assert posreal.kernels._refuse_ill_conditioned is posreal.pencil._refuse_ill_conditioned
    assert posreal.kernels._refuse_ill_conditioned is not guard
    assert posreal.cli.eval_schur is posreal.pencil.eval_schur is not schur
    installed.uninstall()
    assert posreal.kernels._refuse_ill_conditioned is guard
    assert posreal.cli.eval_schur is schur


@pytest.mark.parametrize("module, name", [("posreal.pencil", "eval_schur"),
                                          ("posreal.pencil", "_refuse_ill_conditioned"),
                                          ("posreal.cli", "run_verification")])
def test_missing_traced_function_fails_loudly(installed, monkeypatch, module, name):
    monkeypatch.delattr(f"{module}.{name}")
    with pytest.raises(tracing.TracerError):
        installed.install()
