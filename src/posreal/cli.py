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

import numpy as np

from . import serialize, verify
from .calculus import HuntConfig, calculus_cross_checks, hunt, pencil_controls
from .cayley import DiskFunctionView, disk_to_halfplane, value_cayley
from .colligation import agler_identity_residual, colligation_from_kernel_samples
from .core import DEFAULT_POLICY, NumericalRefusalError, PosrealError, ShapeError, TolerancePolicy, ValidationError
from .geometry import AntiUnitaryInvolution
from .kernels import pencil_from_kernel_samples, sample_kernels
from .netlist import network_pencil, parse_netlist
from .pencil import RealizedFunction, compress_realization, eval_schur
from .sampling import disk_grid, halfplane_grid

__all__ = ["main", "run_verification"]


def run_verification(f: RealizedFunction, seed: int = 0, grid_size: int = 25,
                     pol: TolerancePolicy = DEFAULT_POLICY,
                     iota_u: AntiUnitaryInvolution | None = None,
                     iota_h: AntiUnitaryInvolution | None = None) -> verify.VerificationReport:
    """``verify.run_verification`` under the name that ``perfbench`` traces and calls."""
    return verify.run_verification(f, seed, grid_size, pol, iota_u, iota_h)


# ---------------------------------------------------------------------------
# argument plumbing


def _policy_from(args) -> TolerancePolicy:
    return DEFAULT_POLICY if args.tol is None else TolerancePolicy(residual_tol=args.tol)


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
    pts = [_parse_point(text, num_vars) for text in args.point or []]
    if args.points:
        pts.extend(serialize.points_from_json(serialize.load(args.points), num_vars))
    if not pts:
        raise ValidationError("no evaluation points given (use --point or --points)")
    return np.stack(pts)


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


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    pol = _policy_from(args)
    f = _load_pencil(args.pencil, pol, validate=False)
    iota_u, iota_h = serialize.iota_from_json(serialize.load(args.iota)) if args.iota else (None, None)
    if iota_u is not None and iota_u.dim != f.dim_u:
        raise ShapeError(f"--iota J_U is {iota_u.dim} x {iota_u.dim}, the pencil's n is {f.dim_u}")
    if iota_h is not None and iota_h.dim != f.dim_h:
        raise ShapeError(f"--iota J_H is {iota_h.dim} x {iota_h.dim}, the pencil's p is {f.dim_h} "
                         "(counted after compression)")
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
    sv = value_cayley(fv, pol)
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
        (unit, sa, margin), identity, verdict = verify.check_colligation(coll, ws, pol)
        print(f"state dims: {list(coll.dims)}  io dim: {coll.n}")
        print(f"unitarity residual:       {unit.value:.3e}")
        print(f"selfadjointness residual: {sa.value:.3e}")
        print(f"spectrum margin at 1:     {margin.value:.3e}")
        if identity is not None:
            print(f"identity residuals:       plus={identity[0]:.3e} minus={identity[1]:.3e}")
        print(f"verdict: {'pass' if verdict else 'FAIL'}")
        return 0 if verdict else 1
    f = _load_pencil(args.pencil, pol)
    ws = disk_grid(f.num_vars, args.grid, args.seed)
    # one d(z) solve gives f and the phi tables on z(ws)
    ks = sample_kernels(f, disk_to_halfplane(ws), pol)
    syn = colligation_from_kernel_samples(ws, ks, value_cayley(ks.f_samples, pol), pol)
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
    rows = []
    failed = False
    for row in calculus_cross_checks(f, args.seed, args.tuples, args.dim, args.degree, pol):
        rows.append(row)
        ok = row["positive"] and row["agree"]
        failed = failed or not ok
        print(f"{'pass' if ok else 'FAIL':4s}  tuple {row['tuple']}: "
              f"min-eig={row['positivity_min_eig']:.3e} "
              f"series-vs-realized={row['series_vs_realized']:.3e} (tail {row['tail']:.1e})")
    if args.out:
        serialize.dump({"seed": args.seed, "rows": rows}, args.out)
    return 1 if failed else 0


def _cmd_netlist(args) -> int:
    pol = _policy_from(args)
    try:
        with open(args.netlist, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.netlist} is not UTF-8 text: {exc}") from exc
    net = parse_netlist(text)
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
        candidate = getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ValidationError(f"cannot load --candidate {spec!r}: {exc}") from exc
    if not callable(candidate):
        raise ValidationError(f"--candidate {spec!r} is not callable")
    return candidate


def _cmd_hunt(args) -> int:
    pol = _policy_from(args)
    config = HuntConfig(num_vars=args.num_vars, trials=args.trials, dim=args.dim,
                        seed=args.seed, degree=args.degree)
    candidates = pencil_controls(config, args.candidates, pol)
    controls = {name for name, _ in candidates}
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
    return 1 if any(name in controls for name in violations) else 0


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
        p.add_argument("--tol", type=float, default=None, help="override residual tolerance")
        p.add_argument("--out", default=None, help="write the result to this file")

    def grid_and_seed(p):
        p.add_argument("--grid", type=_positive_int, default=25, help="sample grid size")
        p.add_argument("--seed", type=_seed, default=0, help="randomness seed (echoed in reports)")

    p = sub.add_parser("verify", help="run the full property battery on a pencil")
    common(p)
    grid_and_seed(p)
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
    grid_and_seed(p)
    p.add_argument("--point", action="append", help="disk point, comma-separated")
    p.add_argument("--points", default=None, help="JSON file with a disk point list")
    p.set_defaults(func=_cmd_cayley)

    p = sub.add_parser("kernels", help="sample factored kernels, or rebuild a pencil from samples")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pencil", default=None, help="pencil JSON file (for sampling)")
    mode.add_argument("--rebuild", default=None, help="kernel sample JSON to rebuild from")
    common(p, pencil=False)
    grid_and_seed(p)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("colligate",
                       help="synthesize a selfadjoint unitary colligation, or check one")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pencil", default=None, help="pencil JSON file (for synthesis)")
    mode.add_argument("--colligation", default=None, help="existing colligation JSON to check")
    common(p, pencil=False)
    grid_and_seed(p)
    p.set_defaults(func=_cmd_colligate)

    p = sub.add_parser("calculus", help="functional-calculus cross-checks on random tuples")
    common(p)
    p.add_argument("--seed", type=_seed, default=0, help="randomness seed (echoed in reports)")
    p.add_argument("--tuples", type=_positive_int, default=5)
    p.add_argument("--dim", type=_positive_int, default=3)
    p.add_argument("--degree", type=_positive_int, default=40, help="series truncation degree")
    p.set_defaults(func=_cmd_calculus)

    p = sub.add_parser("netlist", help="convert a conductance netlist to a pencil")
    p.add_argument("--netlist", required=True, help="netlist text file")
    common(p, pencil=False)
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
