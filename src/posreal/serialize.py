"""JSON encodings of the shared data objects.

Complex matrices serialize as row-major arrays of [re, im] pairs; the
pencil, colligation, and kernel-sample formats wrap them with their
shape metadata.
"""

from __future__ import annotations

import json

import numpy as np

from .colligation import AglerColligation
from .core import ShapeError, ValidationError, as_matrix
from .kernels import KernelSampleSet
from .pencil import PsdPencil, RealizedFunction

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "points_to_json",
    "points_from_json",
    "pencil_to_json",
    "pencil_from_json",
    "colligation_to_json",
    "colligation_from_json",
    "kernel_samples_to_json",
    "kernel_samples_from_json",
    "dump",
    "load",
]


def matrix_to_json(m) -> list:
    a = as_matrix(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_json(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if a.size == 0:
        out = np.zeros((a.shape[0] if a.ndim >= 2 else 0, 0), dtype=complex)
    elif a.ndim == 3 and a.shape[-1] == 2:
        out = a[..., 0] + 1j * a[..., 1]
    else:
        raise ValidationError("matrix JSON must be rows of [re, im] pairs")
    if rows is not None and out.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {out.shape[1]}")
    return out


def points_to_json(pts) -> list:
    p = np.asarray(pts, dtype=complex)
    if p.ndim == 1:
        p = p[None, :]
    return [[[float(x.real), float(x.imag)] for x in row] for row in p]


def points_from_json(data) -> np.ndarray:
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed points JSON: {exc}") from exc
    if a.ndim != 3 or a.shape[-1] != 2:
        raise ValidationError("points JSON must be a list of [re, im] coordinate lists")
    return a[..., 0] + 1j * a[..., 1]


def pencil_to_json(obj) -> dict:
    pencil = obj.pencil if isinstance(obj, RealizedFunction) else obj
    return {
        "N": pencil.num_vars,
        "n": pencil.dim_u,
        "p": pencil.dim_h,
        "coeffs": [matrix_to_json(a) for a in pencil.coeffs],
    }


def pencil_from_json(data: dict, validate: bool = True, pol=None) -> PsdPencil:
    from .core import DEFAULT_POLICY

    try:
        num_vars, n, p = int(data["N"]), int(data["n"]), int(data["p"])
        raw = data["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed pencil JSON: {exc}") from exc
    if len(raw) != num_vars:
        raise ValidationError(f"pencil JSON declares N={num_vars} but has {len(raw)} coefficients")
    coeffs = [matrix_from_json(m, rows=n + p, cols=n + p) for m in raw]
    return PsdPencil.from_coeffs(coeffs, n, pol or DEFAULT_POLICY, validate=validate)


def colligation_to_json(c: AglerColligation) -> dict:
    return {
        "dims": list(c.dims),
        "n": c.n,
        "U": matrix_to_json(c.U),
        "selfadjoint": bool(c.selfadjoint),
    }


def colligation_from_json(data: dict) -> AglerColligation:
    try:
        dims = tuple(int(d) for d in data["dims"])
        n = int(data["n"])
        u = matrix_from_json(data["U"])
        sa = bool(data.get("selfadjoint", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed colligation JSON: {exc}") from exc
    return AglerColligation(dims, n, u, selfadjoint=sa)


def kernel_samples_to_json(ks: KernelSampleSet) -> dict:
    return {
        "grid": points_to_json(ks.grid),
        "factors": [[matrix_to_json(tab[j]) for j in range(len(ks.grid))] for tab in ks.factors],
        "f_samples": [matrix_to_json(m) for m in ks.f_samples],
    }


def kernel_samples_from_json(data: dict) -> KernelSampleSet:
    try:
        grid = points_from_json(data["grid"])
        f_samples = np.stack([matrix_from_json(m) for m in data["f_samples"]])
        factors = []
        for tab in data["factors"]:
            mats = [matrix_from_json(m) for m in tab]
            if len(mats) != len(grid):
                raise ValidationError("factor table length disagrees with the grid")
            rows = mats[0].shape[0]
            factors.append(np.stack(mats) if rows else np.zeros((len(grid), 0, f_samples.shape[1]), dtype=complex))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed kernel sample JSON: {exc}") from exc
    return KernelSampleSet(grid, tuple(factors), f_samples)


def dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
