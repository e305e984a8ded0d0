"""Spans around every call into posreal's public functions, recorded from outside.

The tracer replaces each public function and public method of every
posreal module, and the cross-module guard ``_refuse_ill_conditioned``,
with a wrapper that opens a span on entry and closes it on exit.  Every
binding of a wrapped function is replaced: the defining module's
attribute and each ``from ... import`` copy in another posreal module
(the benchmark itself calls the library through module attributes).
``uninstall`` puts the originals back, so untraced passes run the
library unchanged.

A span's self time is its duration minus the durations of its direct
children.  Spans form a stack, so the self times of all spans add up to
the time covered by top-level spans; the rest of a pass is "uncovered"
(benchmark code between library calls).

Every function that a reported metric depends on must be found, and the
guard must be defined in exactly one module; otherwise ``install``
raises, so a refactor that moves or renames a traced function stops the
traced run instead of reporting 0 for it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from posreal.core import NumericalRefusalError

# Every module of src/posreal is a layer.
LAYERS = ("core", "pencil", "kernels", "cayley", "colligation", "calculus",
          "geometry", "serialize", "cli", "sampling", "netlist")

# The conditioning guard is private but shared by five modules; it is
# traced wherever it is defined.
GUARD = "_refuse_ill_conditioned"

# O(1) accessors called inside inner loops; a span per call would cost
# more than the call itself (the Herglotz recursion makes ~4e5 of them
# at degree 45) and so distort the time of the loop that calls them.
UNTRACED = ("calculus.TaylorCoefficients.coeff",)

TWO_POINT = ("kernels.kernel_identity_residual", "kernels.plus_minus_residuals",
             "kernels.KernelSampleSet.identity_residual")

# Span keys that the per-layer metrics read; install() fails if one is absent.
REQUIRED = (
    "pencil.eval_schur", "core.operator_norm",
    "colligation.build_colligation", "colligation.transfer_eval",
    "cayley.DiskFunctionView.eval_double_cayley",
    "cayley.DiskKernelEvaluator.theta_table", "cayley.inv_double_cayley",
    "kernels.KernelEvaluator.phi_table", "kernels.pencil_from_kernel_samples",
    "calculus.taylor_from_function", "calculus.herglotz_taylor_from_schur",
    "calculus.calc_series", "calculus.calc_realized",
    "calculus.accretive_positivity_check", "calculus.von_neumann_check",
    "geometry.four_quadrant_check", "cli.run_verification",
    "serialize.dump", "serialize.load",
) + TWO_POINT

# Functions whose first non-self argument is a batch of points.
POINT_EVALUATORS = ("pencil.eval_schur", "cayley.DiskFunctionView.eval_double_cayley")


class TracerError(RuntimeError):
    """The library no longer has the shape the tracer expects."""


def _num_points(z) -> int:
    shape = np.shape(z)
    return 1 if len(shape) <= 1 else int(shape[0])


@dataclass
class Frame:
    key: str
    layer: str
    start: float
    parent: "Frame | None"
    child_time: float = 0.0
    child_points: int = 0
    points: int = 0


@dataclass
class Stats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class PassTrace:
    """Aggregated spans of one traced pass."""

    stats: dict = field(default_factory=dict)
    layer_self: dict = field(default_factory=lambda: {m: 0.0 for m in LAYERS})
    covered: float = 0.0
    spans: int = 0
    nesting_errors: int = 0
    counters: dict = field(default_factory=dict)
    series_ms: list = field(default_factory=list)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


class Tracer:
    """Installs span wrappers around posreal and aggregates spans per pass."""

    def __init__(self):
        self.current: PassTrace | None = None
        self._stack: list[Frame] = []
        self._restore: list = []       # (owner, name, original value)

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = {}
        for name in LAYERS:
            try:
                mods[name] = importlib.import_module(f"posreal.{name}")
            except ImportError as exc:
                raise TracerError(f"layer module posreal.{name} is missing: {exc}") from exc
        return mods

    def _targets(self, mods):
        """(owner, attribute, key, layer, function) for every traced callable."""
        out = []
        guards = []
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name == GUARD and inspect.isfunction(obj):
                    guards.append((mod, name, f"{layer}.{name}", layer, obj))
                elif name.startswith("_"):
                    continue
                elif inspect.isfunction(obj):
                    out.append((mod, name, f"{layer}.{name}", layer, obj))
                elif inspect.isclass(obj):
                    for attr, member in vars(obj).items():
                        if attr.startswith("_") and attr != "__call__":
                            continue
                        func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                        if inspect.isfunction(func) and f"{layer}.{name}.{attr}" not in UNTRACED:
                            out.append((obj, attr, f"{layer}.{name}.{attr}", layer, member))
        if len(guards) != 1:
            raise TracerError(f"expected one definition of {GUARD}, found {len(guards)}")
        self.guard_key = guards[0][2]
        return out + guards

    def install(self) -> None:
        if self._restore:
            raise TracerError("tracer is already installed")
        mods = self._modules()
        targets = self._targets(mods)
        keys = {t[2] for t in targets}
        missing = [k for k in REQUIRED if k not in keys]
        if missing:
            raise TracerError(f"traced functions not found: {', '.join(missing)}")
        originals = {}
        for owner, attr, key, layer, member in targets:
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, key, layer))
            else:
                wrapped = self._wrap(member, key, layer)
                originals[id(member)] = (member, wrapped)
            self._restore.append((owner, attr, member))
            setattr(owner, attr, wrapped)
        # every other binding of a wrapped function: from-imports and the
        # package namespace
        scan = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "posreal" or n.startswith("posreal."))]
        for mod in scan:
            for name, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, fn, key, layer):
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the work done between yields is
            # attributed to the generator and not to its consumer
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter(key, layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        leave(frame, args, kwargs, None, None)
                        return
                    except BaseException as exc:
                        leave(frame, args, kwargs, None, exc)
                        raise
                    leave(frame, args, kwargs, item, None)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(key, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                leave(frame, args, kwargs, None, exc)
                raise
            leave(frame, args, kwargs, out, None)
            return out
        return wrapper

    def _enter(self, key, layer) -> Frame:
        parent = self._stack[-1] if self._stack else None
        frame = Frame(key, layer, 0.0, parent)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _leave(self, frame, args, kwargs, out, exc) -> None:
        end = time.perf_counter()
        cur = self.current
        if not self._stack or self._stack[-1] is not frame:
            cur.nesting_errors += 1
            if frame in self._stack:
                del self._stack[self._stack.index(frame):]
        else:
            self._stack.pop()
        dur = end - frame.start
        self_time = dur - frame.child_time
        st = cur.stats.get(frame.key)
        if st is None:
            st = cur.stats[frame.key] = Stats()
        st.calls += 1
        st.total += dur
        st.self_time += self_time
        cur.layer_self[frame.layer] += self_time
        cur.spans += 1
        parent = frame.parent
        if parent is None:
            cur.covered += dur
        else:
            parent.child_time += dur
        self._record(frame, args, kwargs, out, exc, dur, cur)
        if parent is not None and frame.points:
            parent.child_points += frame.points

    def _record(self, frame, args, kwargs, out, exc, dur, cur) -> None:
        """Counters that the per-layer metrics need beyond times and calls."""
        key = frame.key
        if key == self.guard_key:
            mats = args[0]
            cur.count("guard.matrices", int(math.prod(np.shape(mats)[:-2])))
            if isinstance(exc, NumericalRefusalError):
                cur.count("guard.refusals", 1)
        elif key in POINT_EVALUATORS:
            frame.points = _num_points(args[1] if len(args) > 1 else next(iter(kwargs.values())))
            if key == "pencil.eval_schur":
                cur.count("eval_schur.points", frame.points)
        elif key == "core.operator_norm":
            cur.peak("operator_norm.max_dim", max(np.shape(args[0]) or (0,)))
        elif key == "calculus.taylor_from_function":
            cur.count("taylor.points", frame.child_points)
        elif key == "calculus.herglotz_taylor_from_schur":
            schur = args[0]
            cur.count("herglotz.indices", math.comb(schur.degree + schur.num_vars, schur.num_vars))
        elif key == "calculus.calc_series":
            cur.series_ms.append(dur * 1e3)
        elif key == "colligation.build_colligation":
            g, n = np.shape(args[2])[:2]
            if 2 * g * n >= cur.counters.get("build.gram_dim", 0):
                cur.counters["build.gram_dim"] = 2 * g * n
                cur.counters["build.rank"] = out.rank if out is not None else 0
        elif key in TWO_POINT:
            if key == "kernels.KernelSampleSet.identity_residual":
                grid, nvars = args[0].grid, args[0].num_vars
                n = args[0].dim_u
            else:
                f, grid = args[0], args[1]
                nvars, n = f.num_vars, f.dim_u
            g = _num_points(grid)
            cur.count("two_point.bytes", nvars * g * g * n * n * 16)
        elif key == "kernels.pencil_from_kernel_samples" and out is not None:
            cur.peak("rebuild.rank", out.dim_h)
        elif key in ("serialize.dump", "serialize.load"):
            path = args[1] if key == "serialize.dump" else args[0]
            if exc is None:
                cur.count("serialize.bytes", os.path.getsize(path))
        if frame.layer == "serialize" and (frame.parent is None or frame.parent.layer != "serialize"):
            cur.count("serialize.s", dur)

    def begin_pass(self) -> PassTrace:
        self.current = PassTrace()
        self._stack.clear()
        return self.current

    def end_pass(self) -> PassTrace:
        cur = self.current
        if self._stack:
            cur.nesting_errors += len(self._stack)
            self._stack.clear()
        self.current = None
        return cur


def _tail(samples_ms):
    """(value, percentile, n): the highest percentile with at least 10 samples beyond it.

    With fewer than 11 samples no such percentile exists and the maximum
    is reported as the 100th percentile.
    """
    n = len(samples_ms)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(samples_ms)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def per_layer_metrics(tracer: Tracer, pt: PassTrace, wall: float, overhead: float,
                      series_ms: list, fail_ratio: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``.s`` is the inclusive time of the named function's spans and
    ``.self_s`` their self time; ``kernels.two_point.s`` is the self time
    of the three two-point residual functions.  ``series_ms`` holds the
    calc_series durations of every traced pass of the run.
    """
    def stats(key):
        return pt.stats.get(key, Stats())

    c = pt.counters.get
    guard = stats(tracer.guard_key)
    onorm = stats("core.operator_norm")
    series = stats("calculus.calc_series")
    tail_ms, tail_pct, samples = _tail(series_ms)
    covered = sum(pt.layer_self.values())
    m = {
        "fail_ratio": (fail_ratio, "ratio"),
        "pencil.eval_schur.self_s": (stats("pencil.eval_schur").self_time, "s"),
        "pencil.eval_schur.points": (c("eval_schur.points", 0), "count"),
        "pencil.guard.s": (guard.total, "s"),
        "pencil.guard.matrices": (c("guard.matrices", 0), "count"),
        "pencil.guard.refusals": (c("guard.refusals", 0), "count"),
        "core.operator_norm.s": (onorm.total, "s"),
        "core.operator_norm.calls": (onorm.calls, "count"),
        "core.operator_norm.max_dim": (c("operator_norm.max_dim", 0), "count"),
        "colligation.build.self_s": (stats("colligation.build_colligation").self_time, "s"),
        "colligation.build.gram_dim": (c("build.gram_dim", 0), "count"),
        "colligation.build.rank": (c("build.rank", 0), "count"),
        "colligation.transfer_eval.s": (stats("colligation.transfer_eval").total, "s"),
        "cayley.double_cayley.s": (stats("cayley.DiskFunctionView.eval_double_cayley").total, "s"),
        "cayley.theta_table.s": (stats("cayley.DiskKernelEvaluator.theta_table").total, "s"),
        "cayley.inv_double_cayley.s": (stats("cayley.inv_double_cayley").total, "s"),
        "kernels.phi_table.s": (stats("kernels.KernelEvaluator.phi_table").total, "s"),
        "kernels.two_point.s": (sum(stats(k).self_time for k in TWO_POINT), "s"),
        "kernels.two_point.bytes": (c("two_point.bytes", 0), "B"),
        "kernels.rebuild.s": (stats("kernels.pencil_from_kernel_samples").total, "s"),
        "kernels.rebuild.rank": (c("rebuild.rank", 0), "count"),
        "calculus.taylor_from_function.self_s": (stats("calculus.taylor_from_function").self_time, "s"),
        "calculus.taylor_from_function.points": (c("taylor.points", 0), "count"),
        "calculus.herglotz.s": (stats("calculus.herglotz_taylor_from_schur").total, "s"),
        "calculus.herglotz.indices": (c("herglotz.indices", 0), "count"),
        "calculus.calc_series.s": (series.total, "s"),
        "calculus.calc_series.calls": (series.calls, "count"),
        "calculus.calc_series.p50_ms": (float(np.median(series_ms)) if series_ms else 0.0, "ms"),
        "calculus.calc_series.tail_ms": (tail_ms, "ms"),
        "calculus.calc_series.tail_pct": (tail_pct, "%"),
        "calculus.calc_series.samples": (samples, "count"),
        "calculus.calc_realized.s": (stats("calculus.calc_realized").total, "s"),
        "calculus.positivity.s": (stats("calculus.accretive_positivity_check").total, "s"),
        "calculus.von_neumann.self_s": (stats("calculus.von_neumann_check").self_time, "s"),
        "geometry.four_quadrant.s": (stats("geometry.four_quadrant_check").total, "s"),
        "cli.run_verification.self_s": (stats("cli.run_verification").self_time, "s"),
        "serialize.s": (c("serialize.s", 0.0), "s"),
        "serialize.bytes": (c("serialize.bytes", 0), "B"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (pt.layer_self[layer], "s")
    m.update({
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_s": (wall - pt.covered, "s"),
        "trace.covered_share": (covered / wall, "ratio"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (pt.spans, "count"),
        "trace.nesting_errors": (pt.nesting_errors, "count"),
    })
    return m
