import json

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
    assert np.array_equal(serialize.points_from_json(serialize.points_to_json(pts)), pts)


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
    assert not pencil.validated


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


def test_kernel_samples_encode_as_before(parallel):
    ks = sample_kernels(parallel, halfplane_grid(2, 6, seed=2))
    assert _same(serialize.kernel_samples_to_json(ks), _old_kernel_samples(ks))
    ks = _signed_zero_samples()
    assert _same(serialize.kernel_samples_to_json(ks), _old_kernel_samples(ks))


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


def test_files_are_one_compact_line(tmp_path):
    path = tmp_path / "samples.json"
    data = serialize.kernel_samples_to_json(_signed_zero_samples())
    serialize.dump(data, str(path))
    text = path.read_text()
    assert text == serialize.dumps(data) + "\n"
    assert text.count("\n") == 1 and " " not in text


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
    data = serialize.kernel_samples_to_json(_signed_zero_samples())
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
    ("table-length", "factor table length disagrees with the grid"),
    ("last-axis", r"matrix JSON must be rows of \[re, im\] pairs"),
    ("f-samples-last-axis", r"matrix JSON must be rows of \[re, im\] pairs"),
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
