"""The four benchmark workloads: seeded inputs, one pass of jobs, and a check of every operation.

Each workload has a ``setup(rng, tmp, size)`` that builds its inputs from
the workload seed (pencils written to and read back from JSON the way
the CLI loads them) and a ``run(state)`` that performs one pass and
returns one ``(name, ok, detail)`` triple per operation.  The library
only ever sees the generated inputs.  Library calls go through module
attributes so the tracer's wrappers are picked up.

``size`` is "full" for measurement and "tiny" for the warm-up and the
self-test; "tiny" runs the same calls on the smallest inputs that
exercise them.
"""

from __future__ import annotations

import os

import numpy as np

import posreal.calculus as calculus
import posreal.cayley as cayley
import posreal.cli as cli
import posreal.kernels as kernels
import posreal.pencil as pencil
import posreal.sampling as sampling
import posreal.serialize as serialize
from posreal.core import DEFAULT_POLICY as POL
from posreal.core import PosrealError


def _seed(rng) -> int:
    return int(rng.integers(1 << 31))


def _via_json(f, tmp: str, name: str, validate: bool = True):
    """Write a pencil as JSON and load it back as the CLI does."""
    path = os.path.join(tmp, name)
    serialize.dump(serialize.pencil_to_json(f), path)
    loaded = serialize.pencil_from_json(serialize.load(path), validate=validate, pol=POL)
    return pencil.compress_realization(pencil.RealizedFunction(loaded), POL)


def _rel_residual(vals, target) -> float:
    num = np.linalg.norm(vals - target, axis=(1, 2))
    return float(np.max(num / (1.0 + np.linalg.norm(target, axis=(1, 2)))))


# -- verify: `posreal verify` on a large and a small pencil -----------------

def setup_verify(rng, tmp, size):
    shapes, grid = ([(3, 4, 32), (3, 2, 4)], 100) if size == "full" else ([(2, 1, 2)], 8)
    jobs = []
    for i, (nv, n, p) in enumerate(shapes):
        f = _via_json(sampling.random_pencil(rng, nv, n, p, pol=POL), tmp, f"verify-{i}.json",
                      validate=False)
        jobs.append((f"N{nv}-n{n}-p{p}", f, _seed(rng)))
    return {"jobs": jobs, "grid": grid}


def run_verify(state):
    ops = []
    for label, f, seed in state["jobs"]:
        try:
            report = cli.run_verification(f, seed=seed, grid_size=state["grid"], pol=POL)
        except PosrealError as exc:
            ops.append((label, False, str(exc)))
            continue
        for row in report.checks:
            ops.append((f"{label}:{row.name}", row.passed,
                        row.error or f"value {row.value:.3e} tol {row.tol:.3e}"))
    return ops


# -- series: the N = 2 series calculus of `posreal calculus` ---------------

def setup_series(rng, tmp, size):
    degree, count = (45, 20) if size == "full" else (8, 3)
    f = _via_json(sampling.random_pencil(rng, 2, 2, 3, pol=POL), tmp, "series.json")
    return {
        "f": f,
        "degree": degree,
        "sup_pts": 0.9 * sampling.disk_grid(2, 16, _seed(rng)),
        "tuples": [sampling.random_contraction_tuple(rng, 2, 3, target_norm=0.35, pol=POL)
                   for _ in range(count)],
    }


def run_series(state):
    f, tuples = state["f"], state["tuples"]
    try:
        view = cayley.DiskFunctionView(f, pol=POL)
        schur = calculus.taylor_from_function(view.eval_double_cayley, f.num_vars, f.dim_u,
                                              degree=state["degree"])
        sup = 2.0 * float(np.max(np.linalg.norm(view.eval_F(state["sup_pts"]), ord=2, axis=(1, 2))))
        herglotz = calculus.herglotz_taylor_from_schur(schur, sup_bound=sup, sup_radius=0.9)
    except PosrealError as exc:
        return [(f"tuple-{i}", False, str(exc)) for i in range(len(tuples))]
    ops = []
    for i, t in enumerate(tuples):
        try:
            r = calculus.operator_cayley(t, POL)
            series_val, tail = calculus.calc_series(herglotz, t, POL)
            realized_val = calculus.calc_realized(f, r, POL)
            positive, lo = calculus.accretive_positivity_check(f, r, POL)
            norm, _, violation = calculus.von_neumann_check(schur, t, POL)
        except PosrealError as exc:
            ops.append((f"tuple-{i}", False, str(exc)))
            continue
        gap = float(np.linalg.norm(series_val - realized_val, 2))
        budget = tail + POL.residual_tol * (1.0 + np.linalg.norm(realized_val, 2))
        ops.append((f"tuple-{i}", gap <= budget and positive and not violation,
                    f"gap {gap:.2e} budget {budget:.2e} min-eig {lo:.2e} norm {norm:.4f}"))
    return ops


# -- hunt: `posreal hunt` with two pencil negative controls -----------------

def setup_hunt(rng, tmp, size):
    num_vars, degree, trials = (3, 20, 10) if size == "full" else (2, 6, 2)
    controls = [(f"pencil-control-{i}",
                 _via_json(sampling.random_pencil(rng, num_vars, 1, 3, pol=POL), tmp, f"hunt-{i}.json"))
                for i in range(2)]
    config = calculus.HuntConfig(num_vars=num_vars, trials=trials, dim=4, seed=_seed(rng),
                                 degree=degree)
    return {"config": config, "candidates": controls}


def run_hunt(state):
    config, candidates = state["config"], state["candidates"]
    expected = config.trials * len(candidates)
    ops = []
    try:
        for rec in calculus.hunt(config, candidates, POL):
            ops.append((f"{rec['candidate']}:{rec['trial']}", not rec["violation"],
                        f"norm {rec['norm']:.6f} tail {rec['tail']:.1e}"))
    except PosrealError as exc:
        ops += [("refused", False, str(exc))] * (expected - len(ops))
    if len(ops) != expected:
        ops.append(("record-count", False, f"{len(ops)} records, expected {expected}"))
    return ops


# -- kernels: `posreal kernels` -> JSON -> `kernels --rebuild` --------------

def setup_kernels(rng, tmp, size):
    shape, grid, holdout = ((3, 4, 16), 300, 200) if size == "full" else ((2, 2, 3), 12, 10)
    nv, n, p = shape
    return {
        "f": _via_json(sampling.random_pencil(rng, nv, n, p, pol=POL), tmp, "kernels.json"),
        "grid": sampling.halfplane_grid(nv, grid, _seed(rng)),
        # slightly rotated, as in the acceptance round trip: off the sample grid
        "holdout": sampling.halfplane_grid(nv, holdout, _seed(rng)) * (1 + 0.07j),
        "path": os.path.join(tmp, "kernel-samples.json"),
    }


def run_kernels(state):
    f, grid, tol = state["f"], state["grid"], POL.residual_tol
    names = ("sample-identity", "kernel-identity", "plus-identity", "minus-identity",
             "rebuild-interpolation", "off-grid")
    ops, refused = [], []
    try:
        samples = kernels.sample_kernels(f, grid, POL)
        ops.append((names[0], samples.identity_residual()))
        ops.append((names[1], kernels.kernel_identity_residual(f, grid, POL)))
        ops.extend(zip(names[2:4], kernels.plus_minus_residuals(f, grid, POL)))
        serialize.dump(serialize.kernel_samples_to_json(samples), state["path"])
        loaded = serialize.kernel_samples_from_json(serialize.load(state["path"]))
        rebuilt = kernels.pencil_from_kernel_samples(loaded, POL)
        ops.append((names[4], _rel_residual(rebuilt(loaded.grid, POL), loaded.f_samples)))
        ops.append((names[5], _rel_residual(rebuilt(state["holdout"], POL), f(state["holdout"], POL))))
    except PosrealError as exc:
        refused = [(name, False, str(exc)) for name in names[len(ops):]]
    return [(name, value <= tol, f"residual {value:.3e} tol {tol:.1e}")
            for name, value in ops] + refused


WORKLOADS = {
    "verify": (setup_verify, run_verify),
    "series": (setup_series, run_series),
    "hunt": (setup_hunt, run_hunt),
    "kernels": (setup_kernels, run_kernels),
}
