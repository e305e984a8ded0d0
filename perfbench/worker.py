"""One process of the benchmark: set up a workload, then time passes of it.

Started by run.py with the BLAS thread count already pinned in its
environment.  Set-up ends with one warm-up pass on tiny inputs; the
moment it ends is reported as ``ready`` on the system-wide monotonic
clock, which run.py also reads when it starts the process.  With
``--setup-only`` the process stops there.

Otherwise it runs passes until ``--seconds`` have elapsed.  With
``--trace 1`` passes alternate untraced and traced (the tracer is
installed only around traced passes), and the per-layer metrics come
from the traced pass of median wall time.  The last line of standard
output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np
import scipy

import tracer as tracing
import workloads


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup, run = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    state = setup(rng, args.tmp, args.size)
    ops = run(setup(np.random.default_rng(args.seed), args.tmp, "tiny"))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    walls, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = tracer is not None and len(walls) > len(traced)
        if trace_this:
            tracer.install()
            tracer.begin_pass()
        t0 = time.perf_counter()
        ops += run(state)
        wall = time.perf_counter() - t0
        if trace_this:
            pt = tracer.end_pass()
            tracer.uninstall()
            traced.append((wall, pt))
        else:
            walls.append(wall)
        if time.perf_counter() >= deadline and (tracer is None or len(walls) == len(traced)):
            break

    failures = [(name, detail) for name, ok, detail in ops if not ok]
    out = {
        "ready": ready,
        "walls": walls,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
        },
    }
    if tracer is not None:
        traced.sort(key=lambda item: item[0])
        wall, pt = traced[(len(traced) - 1) // 2]
        accounted = sum(pt.layer_self.values()) + (wall - pt.covered)
        if abs(accounted - wall) > 1e-6 * wall:
            raise tracing.TracerError(f"self times plus uncovered time {accounted} != wall {wall}")
        overhead = float(np.median([w for w, _ in traced]) - np.median(walls))
        series_ms = [ms for _, p in traced for ms in p.series_ms]
        metrics = tracing.per_layer_metrics(tracer, pt, wall, overhead, series_ms,
                                            len(failures) / len(ops))
        out["traced_walls"] = [w for w, _ in traced]
        out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
