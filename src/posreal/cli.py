"""Command-line surface: verification batteries, evaluation, transforms,
synthesis, calculus checks, and the hunt harness.

Exit codes: 0 all checks pass, 1 a verification verdict fails, 2 usage
or input-format errors, 3 numerical refusal (singular systems, rank
collapse, violated preconditions detected at run time).  All randomness
is seeded and echoed so reports are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .calculus import (
    accretive_positivity_check,
    calc_realized,
    calc_series,
    herglotz_taylor_from_schur,
    HuntConfig,
    hunt,
    inverse_operator_cayley,
    operator_cayley,
    taylor_from_function,
)
from .cayley import (
    DiskFunctionView,
    DiskKernelEvaluator,
    disk_to_halfplane,
    inv_value_cayley,
    value_cayley,
)
from .colligation import agler_identity_residual, build_colligation, spectrum_condition
from .core import DEFAULT_POLICY, NumericalRefusalError, PosrealError, TolerancePolicy, ValidationError, hermitian_part, eigh_or_refuse
from .geometry import (
    AntiUnitaryInvolution,
    check_real_colligation,
    check_real_pencil,
    four_quadrant_check,
    is_iota_real_function,
)
from .kernels import kernel_identity_residual, pencil_from_kernel_samples, sample_kernels
from .netlist import network_pencil, parse_netlist
from .pencil import RealizedFunction, compress_realization, eval_schur, schur_solve
from .sampling import disk_grid, halfplane_grid, random_accretive_tuple, random_pencil

__all__ = ["main", "run_verification", "VerificationReport"]


# finite sentinel recorded when a check cannot run at all (structural
# failure upstream); keeps every reported residual finite
UNRUNNABLE = 1e30


@dataclass
class CheckRow:
    name: str
    value: float
    tol: float
    passed: bool
    error: str | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "tol": self.tol, "pass": self.passed}
        if self.error:
            out["error"] = self.error
        return out


@dataclass
class VerificationReport:
    seed: int
    grid_size: int
    checks: list = field(default_factory=list)

    def add_residual(self, name: str, value: float, tol: float) -> None:
        self.checks.append(CheckRow(name, float(value), float(tol), bool(value <= tol)))

    def add_margin(self, name: str, value: float, floor: float) -> None:
        self.checks.append(CheckRow(name, float(value), float(floor), bool(value >= floor)))

    def add_error(self, name: str, tol: float, exc: Exception, margin: bool = False) -> None:
        value = -UNRUNNABLE if margin else UNRUNNABLE
        self.checks.append(CheckRow(name, value, float(tol), False, error=str(exc)))

    @property
    def verdict(self) -> bool:
        return all(row.passed for row in self.checks)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "grid_size": self.grid_size,
            "checks": [row.as_dict() for row in self.checks],
            "verdict": self.verdict,
        }

    def print(self, out=None) -> None:
        out = out or sys.stdout
        for row in self.checks:
            status = "pass" if row.passed else "FAIL"
            note = f"  [{row.error}]" if row.error else ""
            print(f"{status:4s}  {row.name:32s} value={row.value:.3e} tol={row.tol:.3e}{note}",
                  file=out)
        print(f"verdict: {'pass' if self.verdict else 'FAIL'}", file=out)


def run_verification(f: RealizedFunction, seed: int = 0, grid_size: int = 25,
                     pol: TolerancePolicy = DEFAULT_POLICY,
                     iota_u: AntiUnitaryInvolution | None = None,
                     iota_h: AntiUnitaryInvolution | None = None) -> VerificationReport:
    """Full property battery for one realization.

    Covers the desk-verifiable clauses of the equivalence package: PSD
    pencil validity, the kernel identity, homogeneity, symmetry,
    positivity and the four-quadrant conditions, calculus positivity on
    random accretive tuples, and the selfadjoint colligation roundtrip;
    realness checks run when an involution is supplied.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport(seed=seed, grid_size=grid_size)

    def residual(name, tol, fn):
        try:
            report.add_residual(name, fn(), tol)
        except PosrealError as exc:
            report.add_error(name, tol, exc)

    def margin(name, floor, fn):
        try:
            report.add_margin(name, fn(), floor)
        except PosrealError as exc:
            report.add_error(name, floor, exc, margin=True)

    # one KernelEvaluator (a psd_sqrt per coefficient) serves the kernel
    # identity and the disk-side tables; a failure to build it fails the
    # rows that need it, each with the same message
    try:
        disk, disk_error = DiskKernelEvaluator(f, pol), None
    except PosrealError as exc:
        disk, disk_error = None, exc

    psd_worst = 0.0
    for a in f.pencil.coeffs:
        lo = float(eigh_or_refuse(hermitian_part(a))[0][0])
        scale = 1.0 + float(np.linalg.norm(a, 2)) if a.size else 1.0
        psd_worst = max(psd_worst, -lo / scale)
    report.add_residual("pencil-coefficients-psd", psd_worst, pol.psd_slack)

    # The halfplane grid is the Cayley image of the disk grid, so one d(z)
    # solve on zs gives f there, F on ws (F(w) = f(z(w))) and psi for the
    # kernel identity and the theta tables.
    ws = disk_grid(f.num_vars, grid_size, seed)
    zs = disk_to_halfplane(ws)
    vals, dinv_c = schur_solve(f, zs, pol)
    scales = 1.0 + np.linalg.norm(vals, axis=(1, 2))

    def homogeneity():
        lam = 0.5 + 1.5 * rng.random(len(zs))
        lam = lam * np.exp(1j * 2.0 * np.pi * rng.random(len(zs)))
        hom = f(lam[:, None] * zs, pol) - lam[:, None, None] * vals
        return float(np.max(np.linalg.norm(hom, axis=(1, 2)) / scales))

    residual("homogeneity", pol.residual_tol, homogeneity)
    residual("conjugate-symmetry", pol.residual_tol,
             lambda: float(np.max(np.linalg.norm(
                 f(zs.conj(), pol) - vals.conj().transpose(0, 2, 1), axis=(1, 2)) / scales)))
    margin("positivity-min-re-eigenvalue", -pol.psd_slack,
           lambda: float(np.min(eigh_or_refuse(hermitian_part(vals))[0][:, 0] / scales)))

    def kernel_identity():
        if disk_error is not None:
            raise disk_error
        return kernel_identity_residual(f, zs, pol, evaluator=disk.kernels, f_values=vals,
                                        solve=dinv_c)

    residual("kernel-identity", pol.residual_tol, kernel_identity)
    margin("four-quadrant-conditions", 1.0,
           lambda: 1.0 if four_quadrant_check(lambda pts: f(pts, pol), f.num_vars, rng,
                                              samples=grid_size, pol=pol) else 0.0)

    def calculus_floor():
        worst = np.inf
        for _ in range(3):
            r = random_accretive_tuple(rng, f.num_vars, 3, pol=pol)
            worst = min(worst, accretive_positivity_check(f, r, pol)[1])
        return worst

    margin("calculus-positivity-min-eig", -pol.psd_slack, calculus_floor)

    # F on the disk grid (the values on zs) feeds the theta tables, the
    # Schur-side samples and the recovery target; the synthesis hands back
    # its transfer values and residuals.
    coll = None
    try:
        if disk_error is not None:
            raise disk_error
        syn = build_colligation(ws, disk.theta_table(ws, vals, dinv_c), value_cayley(vals, pol), pol)
        coll = syn.colligation
    except PosrealError as exc:
        for name in ("colligation-unitarity", "colligation-selfadjointness",
                     "colligation-transfer-match", "inverse-double-cayley-recovery"):
            report.add_error(name, pol.residual_tol, exc)
        report.add_error("colligation-spectrum-margin", pol.margin, exc, margin=True)
    if coll is not None:
        report.add_residual("colligation-unitarity", syn.unitarity_residual, pol.residual_tol)
        report.add_residual("colligation-selfadjointness", syn.selfadjointness_residual,
                            pol.residual_tol)
        report.add_residual("colligation-transfer-match", syn.interpolation_residual,
                            pol.residual_tol)
        margin("colligation-spectrum-margin", pol.margin,
               lambda: spectrum_condition(coll, pol)[1])

        def recovery():
            rec = inv_value_cayley(syn.values, pol)
            return float(np.max(np.linalg.norm(rec - vals, axis=(1, 2)) / scales))

        residual("inverse-double-cayley-recovery", pol.residual_tol, recovery)

    if iota_u is not None:
        if iota_h is None:
            iota_h = AntiUnitaryInvolution.conjugation(f.dim_h)
        margin("iota-real-pencil", 1.0,
               lambda: 1.0 if check_real_pencil(f, iota_u, iota_h, pol) else 0.0)
        margin("iota-real-function", 1.0,
               lambda: 1.0 if is_iota_real_function(lambda pts: f(pts, pol), iota_u, zs, pol)
               else 0.0)
        if coll is not None:
            iota_x = AntiUnitaryInvolution.conjugation(coll.dim_state)
            margin("iota-real-colligation", 1.0,
                   lambda: 1.0 if check_real_colligation(coll, iota_x, iota_u, pol) else 0.0)

    return report


# ---------------------------------------------------------------------------
# argument plumbing


def _policy_from(args) -> TolerancePolicy:
    if getattr(args, "tol", None) is None:
        return DEFAULT_POLICY
    return TolerancePolicy(residual_tol=args.tol)


def _load_pencil(path: str, pol: TolerancePolicy, validate: bool = True) -> RealizedFunction:
    data = serialize.load(path)
    pencil = serialize.pencil_from_json(data, validate=validate, pol=pol)
    return compress_realization(RealizedFunction(pencil), pol)


def _parse_point(text: str, num_vars: int) -> np.ndarray:
    try:
        coords = [complex(tok.replace(" ", "")) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad point {text!r}: {exc}") from exc
    if len(coords) != num_vars:
        raise ValidationError(f"point {text!r} has {len(coords)} coordinates, expected {num_vars}")
    return np.asarray(coords, dtype=complex)


def _collect_points(args, num_vars: int) -> np.ndarray:
    pts = []
    for text in args.point or []:
        pts.append(_parse_point(text, num_vars))
    if getattr(args, "points", None):
        pts.extend(serialize.points_from_json(serialize.load(args.points)))
    if not pts:
        raise ValidationError("no evaluation points given (use --point or --points)")
    return np.stack([np.asarray(p, dtype=complex) for p in pts])


def _print_matrices(points, values, label: str) -> None:
    for z, v in zip(points, values):
        coords = ", ".join(f"{c:.6g}" for c in z)
        print(f"{label}({coords}) =")
        print(np.array2string(np.asarray(v), precision=12, suppress_small=True))


def _write_or_print(data: dict, out: str | None) -> None:
    if out:
        serialize.dump(data, out)
    else:
        print(serialize.dumps(data))


def _load_iota(path: str | None):
    if not path:
        return None, None
    data = serialize.load(path)
    iota_u = AntiUnitaryInvolution(serialize.matrix_from_json(data["J_U"]))
    iota_u.validate()
    iota_h = None
    if "J_H" in data:
        iota_h = AntiUnitaryInvolution(serialize.matrix_from_json(data["J_H"]))
        iota_h.validate()
    return iota_u, iota_h


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    pol = _policy_from(args)
    f = _load_pencil(args.pencil, pol, validate=False)
    iota_u, iota_h = _load_iota(args.iota)
    report = run_verification(f, seed=args.seed, grid_size=args.grid, pol=pol,
                              iota_u=iota_u, iota_h=iota_h)
    report.print()
    if args.out:
        serialize.dump(report.as_dict(), args.out)
    return 0 if report.verdict else 1


def _cmd_eval(args) -> int:
    pol = _policy_from(args)
    f = _load_pencil(args.pencil, pol)
    pts = _collect_points(args, f.num_vars)
    vals = eval_schur(f, pts, pol)
    _print_matrices(pts, vals, "f")
    if args.out:
        serialize.dump({"points": serialize.points_to_json(pts),
                        "values": [serialize.matrix_to_json(v) for v in vals]}, args.out)
    return 0


def _cmd_cayley(args) -> int:
    pol = _policy_from(args)
    f = _load_pencil(args.pencil, pol)
    view = DiskFunctionView(f, pol=pol)
    if args.point or args.points:
        ws = _collect_points(args, f.num_vars)
    else:
        ws = disk_grid(f.num_vars, args.grid, args.seed)
    fv = view.eval_F(ws)
    sv = view.eval_double_cayley(ws)
    _print_matrices(ws, fv, "F")
    _print_matrices(ws, sv, "C(f)")
    if args.out:
        serialize.dump({
            "points": serialize.points_to_json(ws),
            "F": [serialize.matrix_to_json(v) for v in fv],
            "double_cayley": [serialize.matrix_to_json(v) for v in sv],
        }, args.out)
    return 0


def _cmd_kernels(args) -> int:
    pol = _policy_from(args)
    if args.rebuild:
        ks = serialize.kernel_samples_from_json(serialize.load(args.rebuild))
        rebuilt = pencil_from_kernel_samples(ks, pol)
        print(f"rebuilt pencil: N={rebuilt.num_vars} n={rebuilt.dim_u} p={rebuilt.dim_h}")
        _write_or_print(serialize.pencil_to_json(rebuilt), args.out)
        return 0
    if not args.pencil:
        raise ValidationError("either --pencil or --rebuild is required")
    f = _load_pencil(args.pencil, pol)
    grid = halfplane_grid(f.num_vars, args.grid, args.seed)
    ks = sample_kernels(f, grid, pol)
    res = ks.identity_residual()
    print(f"kernel identity residual on grid: {res:.3e}")
    _write_or_print(serialize.kernel_samples_to_json(ks), args.out)
    return 0


def _cmd_colligate(args) -> int:
    pol = _policy_from(args)
    if args.colligation:
        # check an existing colligation file instead of synthesizing
        coll = serialize.colligation_from_json(serialize.load(args.colligation))
        ws = disk_grid(coll.num_vars, args.grid, args.seed)
        unit = coll.unitarity_residual()
        sa = coll.selfadjointness_residual()
        ok_spec, margin = spectrum_condition(coll, pol)
        print(f"state dims: {list(coll.dims)}  io dim: {coll.n}")
        print(f"unitarity residual:       {unit:.3e}")
        print(f"selfadjointness residual: {sa:.3e}")
        print(f"spectrum margin at 1:     {margin:.3e}")
        verdict = unit <= pol.residual_tol and margin >= pol.margin
        if coll.selfadjoint:
            verdict = verdict and sa <= pol.residual_tol
            plus, minus = agler_identity_residual(coll, ws, pol)
            print(f"identity residuals:       plus={plus:.3e} minus={minus:.3e}")
            verdict = verdict and max(plus, minus) <= pol.residual_tol
        print(f"verdict: {'pass' if verdict else 'FAIL'}")
        return 0 if verdict else 1
    if not args.pencil:
        raise ValidationError("either --pencil or --colligation is required")
    f = _load_pencil(args.pencil, pol)
    ws = disk_grid(f.num_vars, args.grid, args.seed)
    disk = DiskKernelEvaluator(f, pol)
    # one d(z) solve at z(w) gives F(w) = f(z(w)) and psi for the theta tables
    fvals, dinv_c = schur_solve(f, disk_to_halfplane(ws), pol)
    syn = build_colligation(ws, disk.theta_table(ws, fvals, dinv_c), value_cayley(fvals, pol), pol)
    coll = syn.colligation
    plus, minus = agler_identity_residual(coll, ws, pol)
    print(f"state dims: {list(coll.dims)}  io dim: {coll.n}")
    print(f"unitarity residual:       {syn.unitarity_residual:.3e}")
    print(f"selfadjointness residual: {syn.selfadjointness_residual:.3e}")
    print(f"transfer interpolation:   {syn.interpolation_residual:.3e}")
    print(f"identity residuals:       plus={plus:.3e} minus={minus:.3e}")
    _write_or_print(serialize.colligation_to_json(coll), args.out)
    return 0


def _cmd_calculus(args) -> int:
    pol = _policy_from(args)
    f = _load_pencil(args.pencil, pol)
    rng = np.random.default_rng(args.seed)
    view = DiskFunctionView(f, pol=pol)
    schur_coeffs = taylor_from_function(view.eval_double_cayley, f.num_vars, f.dim_u,
                                        degree=args.degree)
    sup_pts = 0.9 * disk_grid(f.num_vars, 16, args.seed)
    sup_bound = 2.0 * float(np.max(np.linalg.norm(view.eval_F(sup_pts), ord=2, axis=(1, 2))))
    fcoeffs = herglotz_taylor_from_schur(schur_coeffs, sup_bound=sup_bound, sup_radius=0.9)
    rows = []
    failed = False
    for i in range(args.tuples):
        t = inverse_operator_cayley(random_accretive_tuple(rng, f.num_vars, args.dim, pol=pol), pol)
        r = random_accretive_tuple(rng, f.num_vars, args.dim, pol=pol)  # independent check tuple
        ok, lo = accretive_positivity_check(f, r, pol)
        series_val, tail = calc_series(fcoeffs, t, pol)
        realized_val = calc_realized(f, operator_cayley(t, pol), pol)
        agree = float(np.linalg.norm(series_val - realized_val, 2))
        budget = tail + pol.residual_tol * (1.0 + np.linalg.norm(realized_val, 2))
        row = {"tuple": i, "positivity_min_eig": lo, "positive": bool(ok),
               "series_vs_realized": agree, "tail": tail,
               "agree": bool(agree <= budget)}
        rows.append(row)
        failed = failed or not (row["positive"] and row["agree"])
        status = "pass" if row["positive"] and row["agree"] else "FAIL"
        print(f"{status:4s}  tuple {i}: min-eig={lo:.3e} series-vs-realized={agree:.3e} (tail {tail:.1e})")
    if args.out:
        serialize.dump({"seed": args.seed, "rows": rows}, args.out)
    return 1 if failed else 0


def _cmd_netlist(args) -> int:
    pol = _policy_from(args)
    with open(args.netlist) as fh:
        net = parse_netlist(fh.read())
    f = network_pencil(net, pol)
    print(f"network pencil: N={f.num_vars} n={f.dim_u} p={f.dim_h}")
    _write_or_print(serialize.pencil_to_json(f), args.out)
    return 0


def _load_candidate(spec: str):
    """The object named by ``module:attr``; a malformed or unresolvable name is an input error."""
    import importlib

    module_name, sep, attr = spec.partition(":")
    if not (sep and module_name and attr) or module_name.startswith("."):
        raise ValidationError(f"--candidate {spec!r} is not of the form module:attr")
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ValidationError(f"cannot load --candidate {spec!r}: {exc}") from exc


def _cmd_hunt(args) -> int:
    pol = _policy_from(args)
    config = HuntConfig(num_vars=args.num_vars, trials=args.trials, dim=args.dim,
                        seed=args.seed, degree=args.degree)
    rng = np.random.default_rng(args.seed + 1)
    candidates = []
    for i in range(args.candidates):
        f = random_pencil(rng, args.num_vars, 1, 3, pol=pol)
        candidates.append((f"pencil-control-{i}", f))
    if args.candidate:
        candidates.append((args.candidate, _load_candidate(args.candidate)))
    sink = open(args.out, "w") if args.out else sys.stdout
    violations = []
    try:
        for record in hunt(config, candidates, pol):
            if record["violation"]:
                violations.append(record["candidate"])
            sink.write(serialize.dumps(record) + "\n")
    finally:
        if args.out:
            sink.close()
    print(f"trials: {config.trials}  candidates: {len(candidates)}  "
          f"violations: {len(violations)}", file=sys.stderr)
    # pencil-backed controls satisfy the von Neumann inequality, so a
    # violation among them is a fault of the harness and fails the run
    return 1 if any(name.startswith("pencil-control-") for name in violations) else 0


def _int_at_least(lower: int):
    """argparse type: an integer of at least ``lower`` (usage error, exit 2, otherwise)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be at least {lower}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)  # sizes
_seed = _int_at_least(0)  # numpy generators take non-negative seeds only


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posreal",
        description="PSD pencil realizations of positive-real homogeneous functions: "
                    "verify, evaluate, transform, synthesize, and hunt.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pencil=True):
        if pencil:
            p.add_argument("--pencil", required=True, help="pencil JSON file")
        p.add_argument("--grid", type=_positive_int, default=25, help="sample grid size")
        p.add_argument("--seed", type=_seed, default=0, help="randomness seed (echoed in reports)")
        p.add_argument("--tol", type=float, default=None, help="override residual tolerance")
        p.add_argument("--out", default=None, help="write the result to this file")

    p = sub.add_parser("verify", help="run the full property battery on a pencil")
    common(p)
    p.add_argument("--iota", default=None,
                   help="JSON file with unitary parts J_U (and optionally J_H) of involutions")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="evaluate the realized function at points")
    common(p)
    p.add_argument("--point", action="append", help="comma-separated complex coordinates")
    p.add_argument("--points", default=None, help="JSON file with a point list")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("cayley", help="evaluate the disk-side transforms F and C(f)")
    common(p)
    p.add_argument("--point", action="append", help="disk point, comma-separated")
    p.add_argument("--points", default=None, help="JSON file with a disk point list")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("kernels", help="sample factored kernels, or rebuild a pencil from samples")
    p.add_argument("--pencil", default=None, help="pencil JSON file (for sampling)")
    p.add_argument("--rebuild", default=None, help="kernel sample JSON to rebuild from")
    p.add_argument("--grid", type=_positive_int, default=25)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("colligate",
                       help="synthesize a selfadjoint unitary colligation, or check one")
    p.add_argument("--pencil", default=None, help="pencil JSON file (for synthesis)")
    p.add_argument("--colligation", default=None, help="existing colligation JSON to check")
    p.add_argument("--grid", type=_positive_int, default=25)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_colligate)

    p = sub.add_parser("calculus", help="functional-calculus cross-checks on random tuples")
    common(p)
    p.add_argument("--tuples", type=_positive_int, default=5)
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--degree", type=_positive_int, default=40, help="series truncation degree")
    p.set_defaults(func=_cmd_calculus)

    p = sub.add_parser("netlist", help="convert a conductance netlist to a pencil")
    p.add_argument("--netlist", required=True, help="netlist text file")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_netlist)

    p = sub.add_parser("hunt", help="randomized search for calculus-positivity violations")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--num-vars", type=int, default=3)
    p.add_argument("--dim", type=_positive_int, default=4)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--degree", type=_positive_int, default=40)
    p.add_argument("--candidates", type=_int_at_least(0), default=2,
                   help="number of pencil negative controls")
    p.add_argument("--candidate", default=None,
                   help="module:attr of a black-box positive-real evaluator to include")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None, help="write line-delimited JSON records here")
    p.set_defaults(func=_cmd_hunt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalRefusalError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except PosrealError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
