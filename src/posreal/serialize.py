"""JSON encodings of the shared data objects.

Complex matrices serialize as row-major arrays of [re, im] pairs; the
pencil, colligation, and kernel-sample formats wrap them with their
shape metadata.  Arrays are encoded and decoded whole, never one entry
at a time, and every file is written in one compact form (``dumps``).
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
    "dumps",
    "dump",
    "load",
]


def _pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one per entry of the complex array ``a``."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_pairs(data, ndim: int, what: str, layout: str) -> np.ndarray:
    """Complex array of ``ndim`` axes from nested [re, im] pairs.

    The pairs are reinterpreted as complex128 in place, so every float,
    including -0.0, comes back bit for bit.
    """
    try:
        a = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValidationError(f"{what} JSON must be {layout}")
    return a.view(complex)[..., 0]


_MATRIX_LAYOUT = "rows of [re, im] pairs"


def matrix_to_json(m) -> list:
    return _pairs(as_matrix(m))


def matrix_from_json(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    try:
        a = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix JSON: {exc}") from exc
    if a.size == 0:
        out = np.zeros((a.shape[0] if a.ndim >= 2 else 0, 0), dtype=complex)
    else:
        out = _from_pairs(a, 2, "matrix", _MATRIX_LAYOUT)
    if rows is not None and out.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ShapeError(f"expected {cols} columns, got {out.shape[1]}")
    return out


def points_to_json(pts) -> list:
    p = np.asarray(pts, dtype=complex)
    if p.ndim == 1:
        p = p[None, :]
    return _pairs(p)


def points_from_json(data) -> np.ndarray:
    return _from_pairs(data, 2, "points", "a list of [re, im] coordinate lists")


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
    for a in (*ks.factors, ks.f_samples):
        if not np.isfinite(a).all():
            raise ValidationError("matrix contains NaN or Inf entries")
    return {
        "grid": points_to_json(ks.grid),
        "factors": [_pairs(tab) for tab in ks.factors],
        "f_samples": _pairs(ks.f_samples),
    }


def kernel_samples_from_json(data: dict) -> KernelSampleSet:
    try:
        grid = points_from_json(data["grid"])
        f_samples = _from_pairs(np.asarray(data["f_samples"], dtype=float), 3, "matrix",
                                _MATRIX_LAYOUT)
        factors = []
        for tab in data["factors"]:
            if len(tab) != len(grid):
                raise ValidationError("factor table length disagrees with the grid")
            a = np.asarray(tab, dtype=float)
            if a.shape == (len(grid), 0):
                # an empty factor block: every grid point has zero rows
                factors.append(np.zeros((len(grid), 0, f_samples.shape[1]), dtype=complex))
            else:
                factors.append(_from_pairs(a, 3, "matrix", _MATRIX_LAYOUT))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed kernel sample JSON: {exc}") from exc
    return KernelSampleSet(grid, tuple(factors), f_samples)


def dumps(obj) -> str:
    """The one text form of every JSON file and stream: compact, on one line.

    ``json.dumps`` without indent runs CPython's C encoder; floats are
    written with ``repr`` and so load back exactly.
    """
    return json.dumps(obj, separators=(",", ":"))


def dump(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
