import base64
import json
import os

import numpy as np
import pytest

from posreal import serialize
from posreal.cli import main
from posreal.core import ValidationError
from posreal.colligation import AglerColligation
from posreal.kernels import KernelSampleSet, sample_kernels
from posreal.sampling import halfplane_grid, random_pencil


def test_matrix_roundtrip(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert np.array_equal(serialize.matrix_from_json(serialize.matrix_to_json(m)), m)


def test_empty_matrix_roundtrip():
    m = np.zeros((0, 2), dtype=complex)
    out = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert out.shape[1] == 0 and out.shape[0] == 0 or out.size == 0


def test_malformed_matrix():
    with pytest.raises(ValidationError):
        serialize.matrix_from_json([[1, 2], [3, 4]])


def test_points_roundtrip(rng):
    pts = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert np.array_equal(serialize.points_from_json(serialize.points_to_json(pts), 3), pts)


def test_pencil_roundtrip(rng):
    f = random_pencil(rng, 3, 2, 3)
    data = serialize.pencil_to_json(f)
    back = serialize.pencil_from_json(data)
    assert back.num_vars == 3 and back.dim_u == 2 and back.dim_h == 3
    for a, b in zip(back.coeffs, f.pencil.coeffs):
        assert np.array_equal(a, b)


def test_pencil_validation_on_load():
    data = {"N": 1, "n": 1, "p": 0, "coeffs": [[[[-1.0, 0.0]]]]}
    with pytest.raises(ValidationError):
        serialize.pencil_from_json(data)
    pencil = serialize.pencil_from_json(data, validate=False)
    assert np.linalg.eigvalsh(pencil.coeffs[0])[0] == -1.0


def test_colligation_roundtrip():
    c = AglerColligation((1,), 1, np.array([[0.0, 1.0], [1.0, 0.0]]), selfadjoint=True)
    back = serialize.colligation_from_json(serialize.colligation_to_json(c))
    assert back.dims == (1,) and back.selfadjoint
    assert np.array_equal(back.U, c.U)


def test_kernel_samples_roundtrip(parallel):
    ks = sample_kernels(parallel, halfplane_grid(2, 6, seed=2))
    back = serialize.kernel_samples_from_json(serialize.kernel_samples_to_json(ks))
    assert np.array_equal(back.grid, ks.grid)
    assert np.array_equal(back.f_samples, ks.f_samples)
    for a, b in zip(back.factors, ks.factors):
        assert np.array_equal(a, b)


def test_kernel_samples_with_empty_factor_block():
    grid = np.array([[1, 1], [2, 1 + 1j]], dtype=complex)
    factors = (np.ones((2, 1, 1), dtype=complex), np.zeros((2, 0, 1), dtype=complex))
    fs = grid[:, 0][:, None, None] * np.ones((2, 1, 1))
    from posreal.kernels import KernelSampleSet

    ks = KernelSampleSet(grid, factors, fs)
    back = serialize.kernel_samples_from_json(serialize.kernel_samples_to_json(ks))
    assert back.factors[1].shape == (2, 0, 1)


# -- the array codec against the per-entry construction it replaced ---------

def _old_matrix(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _old_kernel_samples(ks):
    return {
        "grid": _old_matrix(ks.grid),
        "factors": [[_old_matrix(tab[j]) for j in range(len(ks.grid))] for tab in ks.factors],
        "f_samples": [_old_matrix(m) for m in ks.f_samples],
    }


def _same(a, b):
    # == alone equates -0.0 with 0.0 and 1 with 1.0; the JSON text does not
    return a == b and json.dumps(a) == json.dumps(b)


def _signed_zero_samples():
    """A sample set with an empty factor block and -0.0 in every array."""
    grid = np.array([[1, 1], [2, complex(-0.0, 1)]], dtype=complex)
    factors = (np.array([[[complex(-0.0, -0.0)]], [[complex(0.5, -0.0)]]]),
               np.zeros((2, 0, 1), dtype=complex))
    fs = np.array([[[complex(-0.0, 0.0)]], [[complex(2.0, -0.0)]]])
    return KernelSampleSet(grid, factors, fs)


def _assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    assert np.array_equal(a, b)


def test_matrix_and_points_encode_as_before(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0], m[1, 2] = complex(-0.0, 1.0), complex(2.0, -0.0)
    assert _same(serialize.matrix_to_json(m), _old_matrix(m))
    assert _same(serialize.matrix_to_json(m.real), _old_matrix(m.real))
    for empty in (np.zeros((0, 2)), np.zeros((2, 0))):
        assert _same(serialize.matrix_to_json(empty), _old_matrix(empty))
    assert _same(serialize.points_to_json(m), _old_matrix(m))
    assert _same(serialize.points_to_json(m[0]), _old_matrix(m[:1]))


def _assert_same_samples(back, ks):
    _assert_bitwise(back.grid, ks.grid)
    _assert_bitwise(back.f_samples, ks.f_samples)
    assert len(back.factors) == len(ks.factors)
    for a, b in zip(back.factors, ks.factors):
        _assert_bitwise(a, b)


def test_kernel_samples_encode_as_before(parallel):
    for ks in (sample_kernels(parallel, halfplane_grid(2, 6, seed=2)), _signed_zero_samples()):
        # the nested-pairs document of earlier versions decodes bitwise
        _assert_same_samples(serialize.kernel_samples_from_json(_old_kernel_samples(ks)), ks)
        # the writer emits packed tables, which decode bitwise
        data = serialize.kernel_samples_to_json(ks)
        assert _same(data["grid"], _old_matrix(ks.grid))
        assert all(isinstance(t, dict) for t in (*data["factors"], data["f_samples"]))
        _assert_same_samples(serialize.kernel_samples_from_json(data), ks)


def test_non_finite_kernel_samples_are_refused():
    ks = _signed_zero_samples()
    ks.f_samples[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="NaN or Inf"):
        serialize.kernel_samples_to_json(ks)


def test_legacy_indented_files_load(tmp_path, rng):
    f = random_pencil(rng, 3, 2, 3)
    ks = sample_kernels(f, halfplane_grid(3, 8, seed=1))
    path = tmp_path / "legacy.json"
    with open(path, "w") as fh:
        json.dump(serialize.kernel_samples_to_json(ks), fh, indent=1)
        fh.write("\n")
    back = serialize.kernel_samples_from_json(serialize.load(str(path)))
    assert np.array_equal(back.grid, ks.grid)
    assert np.array_equal(back.f_samples, ks.f_samples)
    for a, b in zip(back.factors, ks.factors):
        assert np.array_equal(a, b)
    with open(path, "w") as fh:
        json.dump(serialize.pencil_to_json(f), fh, indent=1)
    for a, b in zip(serialize.pencil_from_json(serialize.load(str(path))).coeffs, f.pencil.coeffs):
        assert np.array_equal(a, b)


def _documents(rng):
    """A document of each kind that the CLI writes with ``dump``."""
    f = random_pencil(rng, 3, 2, 3)
    ks = sample_kernels(f, halfplane_grid(3, 9, seed=4))
    u = np.array([[0.0, 1.0], [1.0, -0.0]], dtype=complex)
    return [
        serialize.pencil_to_json(f),
        serialize.colligation_to_json(AglerColligation((1,), 1, u, selfadjoint=True)),
        serialize.kernel_samples_to_json(ks),
        serialize.kernel_samples_to_json(_signed_zero_samples()),
        _old_kernel_samples(ks),  # nested [re, im] tables
        serialize.points_to_json(halfplane_grid(3, 5, seed=2)),
    ]


def test_files_are_one_compact_line(tmp_path, rng):
    path = tmp_path / "doc.json"
    for data in _documents(rng):
        serialize.dump(data, str(path))
        raw = path.read_bytes()  # the streamed writer emits the bytes of dumps
        assert raw == (serialize.dumps(data) + "\n").encode("utf-8")
        assert raw.count(b"\n") == 1 and b" " not in raw


def test_dump_never_holds_the_document_text(tmp_path, traced_peak):
    f = random_pencil(np.random.default_rng(31), 3, 4, 16)
    doc = serialize.kernel_samples_to_json(sample_kernels(f, halfplane_grid(3, 300, seed=1)))
    length = len(serialize.dumps(doc))
    path = tmp_path / "samples.json"
    _, peak = traced_peak(lambda: serialize.dump(doc, str(path)))
    assert os.path.getsize(path) == length + 1
    assert peak < length


def test_dump_load_roundtrips_exactly(tmp_path, rng):
    path = str(tmp_path / "obj.json")
    f = random_pencil(rng, 3, 2, 3)
    serialize.dump(serialize.pencil_to_json(f), path)
    back = serialize.pencil_from_json(serialize.load(path))
    for a, b in zip(back.coeffs, f.pencil.coeffs):
        _assert_bitwise(a, b)

    u = np.array([[0.0, 1.0], [1.0, -0.0]], dtype=complex)
    c = AglerColligation((1,), 1, u, selfadjoint=True)
    serialize.dump(serialize.colligation_to_json(c), path)
    _assert_bitwise(serialize.colligation_from_json(serialize.load(path)).U, u)

    for ks in (sample_kernels(f, halfplane_grid(3, 9, seed=4)), _signed_zero_samples()):
        serialize.dump(serialize.kernel_samples_to_json(ks), path)
        back = serialize.kernel_samples_from_json(serialize.load(path))
        _assert_bitwise(back.grid, ks.grid)
        _assert_bitwise(back.f_samples, ks.f_samples)
        for a, b in zip(back.factors, ks.factors):
            _assert_bitwise(a, b)


def _corrupt(kind):
    data = _old_kernel_samples(_signed_zero_samples())
    if kind == "ragged-table":
        data["factors"][0][1].append([[1.0, 0.0]])
    elif kind == "ragged-f-samples":
        data["f_samples"][0][0].append([1.0, 0.0])
    elif kind == "table-length":
        data["factors"][0].pop()
    elif kind == "empty-table-length":
        data["factors"][1].append([])
    elif kind == "last-axis":
        # four floats per entry would reinterpret as two complex numbers
        data["factors"][0] = [[[[1.0, 0.0, 2.0, 0.0]]], [[[1.0, 0.0, 2.0, 0.0]]]]
    elif kind == "f-samples-last-axis":
        data["f_samples"] = [[[1.0]], [[2.0]]]
    elif kind == "non-numeric":
        data["factors"][0][0][0][0] = ["x", 0.0]
    elif kind == "missing-key":
        del data["f_samples"]
    return data


@pytest.mark.parametrize("kind", ["ragged-table", "ragged-f-samples", "table-length",
                                  "empty-table-length", "last-axis", "f-samples-last-axis",
                                  "non-numeric", "missing-key"])
def test_malformed_kernel_samples(kind):
    with pytest.raises(ValidationError):
        serialize.kernel_samples_from_json(_corrupt(kind))


@pytest.mark.parametrize("kind, message", [
    ("ragged-table", "malformed kernel sample JSON"),
    ("ragged-f-samples", "malformed kernel sample JSON"),
    ("table-length", r"factors\[0\]: lists nested as \(1, 1, 1, 2\) where \(2, \*, 1, 2\) is declared"),
    ("last-axis", r"factors\[0\]: lists nested as \(2, 1, 1, 4\) where \(2, \*, 1, 2\) is declared"),
    ("f-samples-last-axis", r"f_samples: lists nested as \(2, 1, 1\) where \(2, \*, \*, 2\) is declared"),
])
def test_malformed_kernel_sample_messages(kind, message):
    with pytest.raises(ValidationError, match=message):
        serialize.kernel_samples_from_json(_corrupt(kind))


@pytest.mark.parametrize("kind", ["ragged-table", "table-length", "last-axis"])
def test_rebuild_from_malformed_samples_is_input_error(tmp_path, capsys, kind):
    bad = tmp_path / "bad.json"
    serialize.dump(_corrupt(kind), str(bad))
    assert main(["kernels", "--rebuild", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# -- packed tables --------------------------------------------------------

def _packed(a):
    """The packed form, written here independently of the library."""
    a = np.asarray(a, dtype=complex)
    return {"shape": list(a.shape),
            "complex128_le_base64": base64.b64encode(a.astype("<c16").tobytes()).decode()}


def test_packed_tables_roundtrip_bitwise():
    ks = _signed_zero_samples()
    data = serialize.kernel_samples_to_json(ks)
    assert data["factors"] == [_packed(t) for t in ks.factors]
    assert data["f_samples"] == _packed(ks.f_samples)
    # the empty factor block packs to an empty payload
    assert data["factors"][1] == {"shape": [2, 0, 1], "complex128_le_base64": ""}
    back = serialize.kernel_samples_from_json(json.loads(serialize.dumps(data)))
    _assert_same_samples(back, ks)
    for a in (back.grid, back.f_samples, *back.factors):
        assert a.dtype == np.complex128 and a.dtype.isnative and a.flags.writeable


def _valid_samples(f):
    # samples that rebuild, so each refusal below comes from the decoder
    return sample_kernels(f, halfplane_grid(2, 6, seed=2))


def _bad_packed(f, kind):
    data = serialize.kernel_samples_to_json(_valid_samples(f))
    tab = data["factors"][0]
    g, m, n = tab["shape"]
    payload = base64.b64decode(tab["complex128_le_base64"])
    if kind == "bad-base64":
        tab["complex128_le_base64"] = "!" + tab["complex128_le_base64"][1:]
    elif kind == "line-break":
        text = tab["complex128_le_base64"]
        tab["complex128_le_base64"] = text[:8] + "\n" + text[8:]
    elif kind == "short-payload":
        tab["complex128_le_base64"] = base64.b64encode(payload[:-16]).decode()
    elif kind == "long-payload":
        tab["complex128_le_base64"] = base64.b64encode(payload + bytes(16)).decode()
    elif kind == "two-axes":
        tab["shape"] = [g, m * n]
    elif kind == "negative-shape":
        tab["shape"] = [g, -m, -n]
    elif kind == "non-int-shape":
        tab["shape"] = [g, float(m), n]
    elif kind == "huge-shape":
        tab["shape"] = [g, 2 ** 62, 2 ** 62]
    elif kind == "row-count":
        data["factors"][0] = _packed(np.ones((g + 1, m, n)))
    elif kind == "n-mismatch":
        data["factors"][0] = _packed(np.ones((g, m, n + 1)))
    elif kind == "f-samples-not-square":
        data["f_samples"] = _packed(np.ones((g, n, n + 1)))
    elif kind == "missing-payload":
        del tab["complex128_le_base64"]
    return data


@pytest.mark.parametrize("kind, message", [
    ("bad-base64", "not valid base64"),
    ("line-break", "not valid base64"),
    ("short-payload", "needs"),
    ("long-payload", "needs"),
    ("two-axes", "three non-negative integers"),
    ("negative-shape", "three non-negative integers"),
    ("non-int-shape", "three non-negative integers"),
    ("huge-shape", "needs"),
    ("row-count", "factors[0]: packed shape (6, 1, 1) where (5, *, 1) is declared"),
    ("n-mismatch", "factors[0]: packed shape (5, 1, 2) where (5, *, 1) is declared"),
    ("f-samples-not-square", "f_samples must be a (g, n, n) array"),
    ("missing-payload", "complex128_le_base64"),
])
def test_rebuild_from_malformed_packed_tables_is_input_error(tmp_path, capsys, parallel,
                                                            kind, message):
    bad = tmp_path / "bad.json"
    serialize.dump(_bad_packed(parallel, kind), str(bad))
    assert main(["kernels", "--rebuild", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _non_finite(f, layout, where):
    ks = _valid_samples(f)
    f_samples, factors = ks.f_samples.copy(), [t.copy() for t in ks.factors]
    if where == "nan-f-samples":
        f_samples[2, 0, 0] = complex(np.nan, 0.0)
    else:
        factors[1][3, 0, 0] = complex(1.0, np.inf)
    if layout == "nested":
        return {"grid": _old_matrix(ks.grid),
                "factors": [[_old_matrix(m) for m in t] for t in factors],
                "f_samples": [_old_matrix(m) for m in f_samples]}
    return {"grid": _old_matrix(ks.grid), "factors": [_packed(t) for t in factors],
            "f_samples": _packed(f_samples)}


@pytest.mark.parametrize("layout", ["nested", "packed"])
@pytest.mark.parametrize("where", ["nan-f-samples", "inf-factor"])
def test_rebuild_from_non_finite_samples_is_input_error(tmp_path, capsys, parallel,
                                                        layout, where):
    path = tmp_path / "bad.json"
    serialize.dump(_non_finite(parallel, layout, where), str(path))
    assert main(["kernels", "--rebuild", str(path)]) == 2
    assert "NaN or Inf" in capsys.readouterr().err


def test_kernel_sample_set_refuses_non_finite_entries(parallel):
    ks = _valid_samples(parallel)
    grid, table, fs = ks.grid.copy(), ks.factors[1].copy(), ks.f_samples.copy()
    grid[1, 0] = complex(np.nan, 1.0)
    table[0, 0, 0] = complex(-np.inf, 0.0)
    fs[3, 0, 0] = complex(0.5, np.nan)
    for bad in ((grid, ks.factors, ks.f_samples),
                (ks.grid, (ks.factors[0], table), ks.f_samples),
                (ks.grid, ks.factors, fs)):
        with pytest.raises(ValidationError, match="NaN or Inf"):
            KernelSampleSet(*bad)


# A nested-pairs file written by the nested-pairs writer of earlier versions:
# `posreal kernels --pencil series.json --grid 6` on the series network
# "branch P M z1 1 / branch M GND z2 1" of `posreal netlist`.
LEGACY_FILE = os.path.join(os.path.dirname(__file__), "data", "series_kernels_grid6.json")

LEGACY_GRID = [
    "0x1.b39042ef16896p-1 0x1.2975e582e36c8p-2 0x1.f1208cf2cfae4p-1 -0x1.1cb0b91b2b9e9p-2",
    "0x1.b4faefab1f943p-2 -0x1.477d71ea26c9cp-1 0x1.c4b5c245328eap-3 0x1.702f67e83515fp-4",
    "0x1.b39042ef16896p-1 -0x1.2975e582e36c8p-2 0x1.f1208cf2cfae4p-1 0x1.1cb0b91b2b9e9p-2",
    "0x1.b4faefab1f943p-2 0x1.477d71ea26c9cp-1 0x1.c4b5c245328eap-3 -0x1.702f67e83515fp-4",
    "0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0",
]
LEGACY_FACTORS = [[
    "-0x1.105996a27f74cp-1 0x1.4004e3589ba53p-3",
    "-0x1.0a109440029b4p-3 -0x1.fdfadc5fbc5d7p-3",
    "-0x1.105996a27f74cp-1 -0x1.4004e3589ba53p-3",
    "-0x1.0a109440029b4p-3 0x1.fdfadc5fbc5d7p-3",
    "-0x1.0000000000000p-1 0x0.0p+0",
], [
    "0x1.df4cd2bb01168p-2 0x1.4004e3589ba53p-3",
    "0x1.bd7bdaefff593p-1 -0x1.fdfadc5fbc5d7p-3",
    "0x1.df4cd2bb01168p-2 -0x1.4004e3589ba53p-3",
    "0x1.bd7bdaefff593p-1 0x1.fdfadc5fbc5d7p-3",
    "0x1.0000000000000p-1 0x0.0p+0",
]]
LEGACY_F = [
    "0x1.fddcd62d04b56p-2 0x1.61b8540fb3f20p-6",
    "0x1.b7bced6651e99p-3 0x1.7b90101569120p-6",
    "0x1.fddcd62d04b56p-2 -0x1.61b8540fb3f20p-6",
    "0x1.b7bced6651e99p-3 -0x1.7b90101569120p-6",
    "0x1.0000000000000p-1 0x0.0p+0",
]


def _from_hex(rows, shape):
    floats = np.array([float.fromhex(x) for row in rows for x in row.split()])
    return floats.view(complex).reshape(shape)


def test_legacy_nested_file_loads_bitwise_and_rebuilds(tmp_path, capsys):
    with open(LEGACY_FILE) as fh:
        data = json.load(fh)
    assert isinstance(data["f_samples"], list) and isinstance(data["factors"][0], list)
    ks = serialize.kernel_samples_from_json(data)
    _assert_bitwise(ks.grid, _from_hex(LEGACY_GRID, (5, 2)))
    _assert_bitwise(ks.f_samples, _from_hex(LEGACY_F, (5, 1, 1)))
    assert len(ks.factors) == 2
    for a, rows in zip(ks.factors, LEGACY_FACTORS):
        _assert_bitwise(a, _from_hex(rows, (5, 1, 1)))
    out = tmp_path / "rebuilt.json"
    assert main(["kernels", "--rebuild", LEGACY_FILE, "--out", str(out)]) == 0
    assert "rebuilt pencil: N=2 n=1 p=1" in capsys.readouterr().out
