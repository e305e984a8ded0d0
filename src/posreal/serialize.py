"""JSON encodings of the shared data objects.

Complex matrices serialize as row-major arrays of [re, im] pairs; the
pencil, colligation, and kernel-sample formats wrap them with their
shape metadata.  Arrays are encoded and decoded whole, never one entry
at a time, and every file is written in one compact form (``dumps``).

The two bulk arrays of a kernel-sample document, each ``factors[k]``
table (g, m_k, n) and ``f_samples`` (g, n, n), are written packed:

    {"shape": [g, m, n], "complex128_le_base64": "<payload>"}

where the payload is standard base64, without line breaks, of the
C-order little-endian complex128 bytes of the array.  An empty block
packs to an empty payload.  Any numpy reads such a table with

    import base64, numpy as np
    raw = base64.b64decode(table["complex128_le_base64"])
    a = np.frombuffer(raw, "<c16").reshape(table["shape"])

The ``grid`` stays a list of [re, im] pairs.  The loader picks the
decoder for each table from its JSON type, so tables written as nested
[re, im] pairs (earlier versions and other tools) still load.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .colligation import AglerColligation
from .core import DEFAULT_POLICY, ShapeError, ValidationError, as_matrix
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


def _floats(data, what: str) -> np.ndarray:
    """Nested JSON numbers as one float array; a bool, which float() would read as 1.0 or 0.0, is refused."""
    try:
        a = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an integer beyond float range overflows
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc
    if a.size and (np.frompyfunc(type, 1, 1)(np.array(data, dtype=object)) == bool).any():
        raise ValidationError(f"malformed {what} JSON: true or false where a number is expected")
    return a


def _from_pairs(a: np.ndarray, ndim: int, what: str, layout: str) -> np.ndarray:
    """Complex array of ``ndim`` axes from the float array of nested [re, im] pairs.

    The pairs are reinterpreted as complex128 in place, so every float,
    including -0.0, comes back bit for bit.
    """
    if a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValidationError(f"{what} JSON must be {layout}")
    return a.view(complex)[..., 0]


_MATRIX_LAYOUT = "rows of [re, im] pairs"


def matrix_to_json(m) -> list:
    return _pairs(as_matrix(m))


def matrix_from_json(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    a = _floats(data, "matrix")
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
    return _from_pairs(_floats(data, "points"), 2, "points", "a list of [re, im] coordinate lists")


def pencil_to_json(obj) -> dict:
    pencil = obj.pencil if isinstance(obj, RealizedFunction) else obj
    return {
        "N": pencil.num_vars,
        "n": pencil.dim_u,
        "p": pencil.dim_h,
        "coeffs": [matrix_to_json(a) for a in pencil.coeffs],
    }


def _count(value) -> int:
    """A JSON integer; a bool, float or string is refused rather than truncated."""
    if type(value) is not int:
        raise TypeError(f"expected an integer count, got {value!r}")
    return value


def _flag(value) -> bool:
    """A JSON boolean; any other value is refused rather than read as truthy."""
    if type(value) is not bool:
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def pencil_from_json(data: dict, validate: bool = True, pol=DEFAULT_POLICY) -> PsdPencil:
    try:
        num_vars, n, p = _count(data["N"]), _count(data["n"]), _count(data["p"])
        raw = data["coeffs"]
        if not isinstance(raw, list):
            raise TypeError(f"coeffs must be a list, not {type(raw).__name__}")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed pencil JSON: {exc}") from exc
    if len(raw) != num_vars:
        raise ValidationError(f"pencil JSON declares N={num_vars} but has {len(raw)} coefficients")
    coeffs = [matrix_from_json(m, rows=n + p, cols=n + p) for m in raw]
    return PsdPencil.from_coeffs(coeffs, n, pol, validate=validate)


def colligation_to_json(c: AglerColligation) -> dict:
    return {
        "dims": list(c.dims),
        "n": c.n,
        "U": matrix_to_json(c.U),
        "selfadjoint": bool(c.selfadjoint),
    }


def colligation_from_json(data: dict) -> AglerColligation:
    try:
        dims = tuple(_count(d) for d in data["dims"])
        n = _count(data["n"])
        u = matrix_from_json(data["U"])
        sa = _flag(data.get("selfadjoint", False))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed colligation JSON: {exc}") from exc
    return AglerColligation(dims, n, u, selfadjoint=sa)


_PACKED = "complex128_le_base64"


def _pack(a: np.ndarray) -> dict:
    """One packed table: its shape and the base64 of its little-endian complex128 bytes."""
    raw = np.ascontiguousarray(a, dtype="<c16")
    return {"shape": list(raw.shape), _PACKED: base64.b64encode(raw).decode("ascii")}


def _unpack(data: dict, rows: int, cols: int | None, what: str) -> np.ndarray:
    """A writable native complex128 array of three axes from a packed table.

    The table must have ``rows`` rows and ``cols`` entries on its last
    axis (``cols=None``: as many as on its middle axis).  The values are
    checked for finiteness by ``KernelSampleSet``, which every decoded
    table goes into.
    """
    shape = data.get("shape")
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(s) is int and s >= 0 for s in shape)):
        raise ValidationError(f"packed {what} shape must be three non-negative integers")
    payload = data.get(_PACKED)
    if not isinstance(payload, str):
        raise ValidationError(f"packed {what} needs a {_PACKED} string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:
        raise ValidationError(f"packed {what} is not valid base64: {exc}") from exc
    need = 16 * shape[0] * shape[1] * shape[2]  # Python ints: no overflow
    if len(raw) != need:
        raise ValidationError(f"packed {what} of shape {shape} needs {need} bytes, "
                              f"got {len(raw)}")
    if shape[0] != rows:
        raise ValidationError(f"packed {what} has {shape[0]} rows, the grid has {rows}")
    if shape[2] != (shape[1] if cols is None else cols):
        raise ValidationError(f"packed {what} of shape {shape} has the wrong last axis")
    return np.frombuffer(raw, dtype="<c16").astype(complex).reshape(shape)


def kernel_samples_to_json(ks: KernelSampleSet) -> dict:
    for a in (*ks.factors, ks.f_samples):
        if not np.isfinite(a).all():
            raise ValidationError("matrix contains NaN or Inf entries")
    return {
        "grid": points_to_json(ks.grid),
        "factors": [_pack(tab) for tab in ks.factors],
        "f_samples": _pack(ks.f_samples),
    }


def kernel_samples_from_json(data: dict) -> KernelSampleSet:
    """Decode a kernel-sample document; each table may be packed or nested pairs."""
    try:
        grid = points_from_json(data["grid"])
        raw = data["f_samples"]
        if isinstance(raw, dict):
            f_samples = _unpack(raw, len(grid), None, "f_samples")
        else:
            f_samples = _from_pairs(_floats(raw, "kernel sample"), 3, "matrix", _MATRIX_LAYOUT)
        factors = []
        for tab in data["factors"]:
            if isinstance(tab, dict):
                factors.append(_unpack(tab, len(grid), f_samples.shape[1], "factor table"))
                continue
            if len(tab) != len(grid):
                raise ValidationError("factor table length disagrees with the grid")
            a = _floats(tab, "kernel sample")
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
