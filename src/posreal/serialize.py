"""JSON encodings of the shared data objects.

Complex matrices serialize as row-major arrays of [re, im] pairs; the
pencil, colligation, and kernel-sample formats wrap them with their
shape metadata.  Arrays are encoded and decoded whole, never one entry
at a time, and every document has one compact text form (``dumps``).
``dump`` encodes a document straight into its UTF-8 file, so the text
is never held whole in memory; the file holds the bytes of ``dumps``
and a newline.  ``load`` refuses a file that is not UTF-8, or that nests
arrays deeper than the parser's recursion limit, as a ``ValidationError``.
Every array field is read by one reader (``_array``, or ``_unpack`` for
a packed table) against the shape its document declares, and every
entry must be a JSON number.  Each refusal is a ``ValidationError``
that names the document and the field (a bare matrix, as in a ``--iota``
file, is named "matrix JSON").

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
from .core import DEFAULT_POLICY, ValidationError, as_matrix
from .geometry import AntiUnitaryInvolution
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
    "iota_from_json",
    "kernel_samples_to_json",
    "kernel_samples_from_json",
    "dumps",
    "dump",
    "load",
]


def _pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one per entry of the complex array ``a``."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _spec(shape: tuple) -> str:
    return "(" + ", ".join("*" if s is None else str(s) for s in shape) + ")"


def _fits(shape: tuple, declared: tuple) -> bool:
    return len(shape) == len(declared) and all(d is None or s == d for s, d in zip(shape, declared))


_TYPE = np.frompyfunc(type, 1, 1)


def _array(data, shape: tuple, what: str) -> np.ndarray:
    """The complex array of the declared ``shape`` from nested [re, im] pairs.

    Each axis of ``shape`` is a length, or None for any length.  Every
    leaf must be a JSON number: a bool, string or null is refused, not
    read as a number.  JSON writes an empty array only down to its first
    empty axis (``[]`` for a (0, n) matrix), so the axes below it take
    their declared length, or 0.  The pairs are reinterpreted as
    complex128 in place, so every float, -0.0 included, comes back bit
    for bit.  ``what`` names the document and field in each refusal.
    """
    declared = (*shape, 2)
    a = np.array(data, dtype=object)
    got = a.shape + (tuple(d or 0 for d in declared[a.ndim:]) if a.size == 0 else ())
    if not _fits(got, declared):  # ragged lists nest only as deep as they agree
        raise ValidationError(f"malformed {what}: lists nested as {_spec(got)} where "
                              f"{_spec(declared)} is declared, the last axis [re, im]")
    types = _TYPE(a)
    bad = (types != float) & (types != int)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise ValidationError(f"malformed {what}: {json.dumps(a[at])} at "
                              f"{''.join(f'[{i}]' for i in at)} where a number is expected")
    try:
        return a.reshape(got).astype(float).view(complex)[..., 0]
    except (OverflowError, ValueError) as exc:  # an integer beyond float range, or an empty axis too long
        raise ValidationError(f"malformed {what}: {exc}") from exc


def matrix_to_json(m) -> list:
    return _pairs(as_matrix(m))


def matrix_from_json(data) -> np.ndarray:
    return _array(data, (None, None), "matrix JSON")


def points_to_json(pts) -> list:
    p = np.asarray(pts, dtype=complex)
    if p.ndim == 1:
        p = p[None, :]
    return _pairs(p)


def points_from_json(data, num_vars: int) -> np.ndarray:
    """A (B, num_vars) point array; a point with another coordinate count is refused."""
    return _array(data, (None, num_vars), "points JSON")


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
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed pencil JSON: {exc}") from exc
    coeffs = _array(raw, (num_vars, n + p, n + p), "pencil JSON coeffs")
    return PsdPencil.from_coeffs(list(coeffs), n, pol, validate=validate)


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
        raw = data["U"]
        sa = _flag(data.get("selfadjoint", False))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed colligation JSON: {exc}") from exc
    size = sum(dims) + n
    return AglerColligation(dims, n, _array(raw, (size, size), "colligation JSON U"), selfadjoint=sa)


def iota_from_json(data: dict) -> tuple:
    """The involutions (iota_U, iota_H) of a ``--iota`` file, each validated; iota_H is None without J_H."""
    if not (isinstance(data, dict) and "J_U" in data):
        raise ValidationError("malformed iota JSON: needs an object with a J_U matrix")
    iotas = tuple(AntiUnitaryInvolution(matrix_from_json(data[key])) if key in data else None
                  for key in ("J_U", "J_H"))
    for iota in iotas:
        if iota is not None:
            iota.validate()
    return iotas


_PACKED = "complex128_le_base64"


def _pack(a: np.ndarray) -> dict:
    """One packed table: its shape and the base64 of its little-endian complex128 bytes."""
    raw = np.ascontiguousarray(a, dtype="<c16")
    return {"shape": list(raw.shape), _PACKED: base64.b64encode(raw).decode("ascii")}


def _unpack(data: dict, shape: tuple, what: str) -> np.ndarray:
    """A writable native complex128 array of the declared ``shape`` from a packed table.

    The values are checked for finiteness by ``KernelSampleSet``, which
    every decoded table goes into.
    """
    got = data.get("shape")
    if not (isinstance(got, list) and len(got) == 3 and all(type(s) is int and s >= 0 for s in got)):
        raise ValidationError(f"malformed {what}: packed shape must be three non-negative integers")
    payload = data.get(_PACKED)
    if not isinstance(payload, str):
        raise ValidationError(f"malformed {what}: needs a {_PACKED} string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:
        raise ValidationError(f"malformed {what}: not valid base64: {exc}") from exc
    need = 16 * got[0] * got[1] * got[2]  # Python ints: no overflow
    if len(raw) != need:
        raise ValidationError(f"malformed {what}: packed shape {got} needs {need} bytes, got {len(raw)}")
    if not _fits(got, shape):
        raise ValidationError(f"malformed {what}: packed shape {_spec(got)} where {_spec(shape)} is declared")
    return np.frombuffer(raw, dtype="<c16").astype(complex).reshape(got)


def _table(data, shape: tuple, what: str) -> np.ndarray:
    """A kernel-sample table: packed if a JSON object, else nested [re, im] pairs."""
    return _unpack(data, shape, what) if isinstance(data, dict) else _array(data, shape, what)


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
        grid, raw, tables = data["grid"], data["f_samples"], data["factors"]
        if not isinstance(tables, list):
            raise TypeError(f"factors must be a list, not {type(tables).__name__}")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed kernel sample JSON: {exc}") from exc
    grid = _array(grid, (None, len(tables)), "kernel sample JSON grid")
    f_samples = _table(raw, (len(grid), None, None), "kernel sample JSON f_samples")
    factors = tuple(_table(t, (len(grid), None, f_samples.shape[1]), f"kernel sample JSON factors[{k}]")
                    for k, t in enumerate(tables))
    return KernelSampleSet(grid, factors, f_samples)


_SEPARATORS = (",", ":")


def dumps(obj) -> str:
    """The one text form of every JSON file and stream: compact, on one line.

    It is the form of ``dump``'s files and of the documents the CLI
    prints and ``hunt`` streams.  ``json.dumps`` without indent runs
    CPython's C encoder; floats are written with ``repr`` and so load
    back exactly.
    """
    return json.dumps(obj, separators=_SEPARATORS)


def dump(obj, path: str) -> None:
    """Write ``dumps(obj)`` and a newline to ``path`` as UTF-8.

    A document (an object with string keys) is written member by member,
    and a member that is a list item by item, each piece by the C encoder
    of ``dumps``; the pieces join to the bytes of ``dumps(obj)``.  So at
    most one piece (the largest is a packed table or a pencil coefficient)
    is held beside ``obj``, never the whole document text, and no piece
    goes through ``json.dump``'s pure-Python encoder.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if not (isinstance(obj, dict) and all(isinstance(key, str) for key in obj)):
            fh.write(dumps(obj))
        else:
            fh.write("{")
            for i, (key, value) in enumerate(obj.items()):
                fh.write(("," if i else "") + dumps(key) + ":")
                if isinstance(value, list):
                    fh.write("[")
                    for j, item in enumerate(value):
                        if j:
                            fh.write(",")
                        fh.write(dumps(item))  # no concatenation: a piece may be a table
                    fh.write("]")
                else:
                    fh.write(dumps(value))
            fh.write("}")
        fh.write("\n")


def load(path: str) -> dict:
    """The JSON document of a UTF-8 file; text that is not UTF-8, or arrays
    nested past the parser's recursion limit, are a ``ValidationError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path} nests JSON arrays or objects too deeply to read") from exc
