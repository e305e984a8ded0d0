"""posreal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src`` of
the same checkout; nothing needs to be built or installed.  Each run
starts the workload's process five times with the BLAS thread count
pinned in its environment: four times only to time set-up, and once more
to set up and then measure for ``--seconds``.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics (set-up time, wall time of one pass, peak resident
set); with ``--trace 1`` it reports the per-layer metrics of a traced
pass.  The line before it records the environment and the raw samples.
The exit code is 0 only when every process finished and a result was
printed; failed operations are reported in the result, not as an exit
code.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = 1
SETUP_REPEATS = 5
# every process of a run must end well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "posreal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd, env, deadline) -> tuple[dict, float]:
    """Run one worker; return its JSON result and its start time."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the run time limit: {' '.join(cmd)}")
    except BaseException:
        # interrupted or terminated: never leave the worker running
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), start


def run(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "posreal", "__init__.py")):
        raise BenchError(f"no posreal sources under {SRC}; run from a full checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    threads = min(BLAS_THREADS, _nproc())
    env = _child_env(threads)
    setups = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", "tiny" if args.tiny else "full",
               "--tmp", tmp]
        for _ in range(SETUP_REPEATS - 1):
            res, start = _spawn(cmd + ["--setup-only"], env, deadline)
            setups.append(res["ready"] - start)
        res, start = _spawn(cmd, env, deadline)
        setups.append(res["ready"] - start)

    failed, attempted = res["failed"], res["attempted"]
    if args.trace:
        metrics = res["metrics"]
        correct = failed == 0 and metrics["trace.nesting_errors"]["value"] == 0
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["walls"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        correct = failed == 0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(res["env"], nproc=_nproc(), blas_threads=threads,
                    git_commit=_git_commit(), source_sha256=_source_digest()),
        "setup_s": setups,
        "walls_s": res["walls"],
        "traced_walls_s": res.get("traced_walls", []),
        "failures": res["failures"],
    }
    print(json.dumps({"perfbench": detail}))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("verify", "series", "hunt", "kernels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's self-test")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
