"""The input contract of the command line, kept by a property test.

Each example changes one field of one input file (a pencil, a
colligation, a kernel-sample file with packed or with nested tables, a
points file or an iota file) and runs the command that reads it through
``cli.main`` in process.  ``main`` must return an exit code and never
raise.  A value of the wrong JSON type (a string or bool where a number
belongs, null, an object where a list belongs, ...) and a number that is
not finite as a float (``NaN``, ``Infinity``, ``1e400``, ``10**400``)
must exit 2; a list one entry shorter or longer and a deleted key may
leave a valid file, so they only have to end in a documented exit code.

A file that is not UTF-8, or that nests arrays past the JSON parser's
recursion limit, exits 2 too, whichever command reads it; so does a
netlist that is not UTF-8.

Malformed text for the numeric options exits 2 as well: argparse leaves
through ``SystemExit(2)`` and a NaN or negative ``--tol`` is refused by
the tolerance policy.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from posreal import realize, serialize
from posreal.cli import main

KINDS = ["pencil", "colligation", "packed-samples", "nested-samples", "points", "iota"]
TYPE_MUTATIONS = ["wrong-type", "string", "bool", "null"]
NUMBER_MUTATIONS = ["nan", "infinity", "1e400", "10**400"]
MUTATIONS = TYPE_MUTATIONS + NUMBER_MUTATIONS + ["shorter", "longer", "delete-key"]
OTHER_TYPES = [None, True, 0.5, "x", [], {}]
LITERAL = "__literal__"  # stands for the text 1e400, which json.dumps cannot write


def _json_type(value) -> str:
    if isinstance(value, bool) or value is None or isinstance(value, (str, list, dict)):
        return type(value).__name__
    return "number"


def _nodes(value, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _nested(doc):
    """The kernel-sample document with its packed tables written as nested [re, im] pairs."""
    ks = serialize.kernel_samples_from_json(doc)
    pairs = [np.stack([a.real, a.imag], axis=-1).tolist() for a in (*ks.factors, ks.f_samples)]
    return {"grid": doc["grid"], "factors": pairs[:-1], "f_samples": pairs[-1]}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """kind -> (valid document, argv that reads the file appended to it)."""
    root = tmp_path_factory.mktemp("contract")
    pencil = str(root / "pencil.json")
    serialize.dump(serialize.pencil_to_json(realize([np.array([[1.0, 1.0], [1.0, 1.0]]),
                                                     np.array([[0.0, 0.0], [0.0, 1.0]])], 1)), pencil)
    colligation, samples = str(root / "colligation.json"), str(root / "samples.json")
    assert main(["colligate", "--pencil", pencil, "--grid", "3", "--out", colligation]) == 0
    assert main(["kernels", "--pencil", pencil, "--grid", "3", "--out", samples]) == 0
    packed = serialize.load(samples)
    return root, {
        "pencil": (serialize.load(pencil), ["eval", "--point", "1,1", "--pencil"]),
        "colligation": (serialize.load(colligation), ["colligate", "--grid", "3", "--colligation"]),
        "packed-samples": (packed, ["kernels", "--rebuild"]),
        "nested-samples": (_nested(packed), ["kernels", "--rebuild"]),
        # --point as well, so a file point of another width meets a typed one
        "points": ([[[2.0, 0.0], [1.0, 0.5]]],
                   ["eval", "--pencil", pencil, "--point", "1,1", "--points"]),
        "iota": ({"J_U": [[[1.0, 0.0]]], "J_H": [[[1.0, 0.0]]]},
                 ["verify", "--pencil", pencil, "--grid", "3", "--iota"]),
    }


def _applies(mutation, path, value) -> bool:
    if mutation == "wrong-type":
        return True
    if mutation in ("shorter", "longer"):
        return isinstance(value, list) and (mutation == "longer" or len(value) > 0)
    if mutation == "delete-key":
        return len(path) > 0 and isinstance(path[-1], str)
    return _json_type(value) == "number"  # the string, bool, null and number mutations


def _mutated(doc, mutation, pick):
    """A copy of ``doc`` with one field changed by ``mutation`` (``pick`` chooses the field),
    or None if no field admits the mutation."""
    doc = json.loads(json.dumps(doc))
    nodes = [(p, v) for p, v in _nodes(doc) if _applies(mutation, p, v)]
    if not nodes:
        return None
    path, value = nodes[pick % len(nodes)]
    if mutation == "shorter":
        value.pop()
        return doc
    if mutation == "longer":
        value.append(json.loads(json.dumps(value[-1])) if value else 0.5)
        return doc
    if mutation == "wrong-type":
        others = [v for v in OTHER_TYPES if _json_type(v) != _json_type(value)]
        new = others[pick // len(nodes) % len(others)]
    elif mutation != "delete-key":
        new = {"string": json.dumps(value), "bool": True, "null": None, "nan": math.nan,
               "infinity": math.inf, "1e400": LITERAL, "10**400": 10 ** 400}[mutation]
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "delete-key":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), mutation=st.sampled_from(MUTATIONS),
       pick=st.integers(min_value=0, max_value=10 ** 6))
# a string where a pencil coefficient's entry belongs was read as its number
@example(kind="pencil", mutation="string", pick=3)
# a file point of three coordinates next to a --point of two crashed np.stack
@example(kind="points", mutation="longer", pick=1)
def test_one_malformed_field_never_escapes(files, kind, mutation, pick):
    root, docs = files
    doc, argv = docs[kind]
    mutated = _mutated(doc, mutation, pick)
    assume(mutated is not None)
    path = root / f"mutated-{kind}.json"
    path.write_text(json.dumps(mutated).replace(f'"{LITERAL}"', "1e400"))
    code = main(argv + [str(path)])
    if mutation in TYPE_MUTATIONS + NUMBER_MUTATIONS:
        assert code == 2
    else:
        assert code in (0, 1, 2, 3)


RAW = {
    "not-utf8": b"\xff\xfe\x00" + b"[]",  # a UTF-16 byte-order mark is not UTF-8
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("raw", sorted(RAW))
@pytest.mark.parametrize("kind", ["pencil", "colligation", "packed-samples", "points", "iota"])
def test_raw_bytes_are_input_errors(files, capsys, kind, raw):
    root, docs = files
    path = root / f"raw-{kind}-{raw}.json"
    path.write_bytes(RAW[raw])
    assert main(docs[kind][1] + [str(path)]) == 2
    assert ("UTF-8" if raw == "not-utf8" else "too deeply") in capsys.readouterr().err


def test_netlist_that_is_not_utf8_is_input_error(files, capsys):
    path = files[0] / "raw.net"
    path.write_bytes(RAW["not-utf8"] + b"\nports P\nbranch P GND z1 1\n")
    assert main(["netlist", "--netlist", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def _int_is_valid(text: str) -> bool:
    try:
        return int(text) >= 1
    except ValueError:
        return False


def _tol_is_valid(text: str) -> bool:
    try:
        return float(text) >= 0
    except ValueError:
        return False


# digits, signs, exponents and the words of float("inf") and float("nan"), so
# most draws are near misses of a number
_text = st.one_of(st.text(alphabet="0123456789+-._eExabfinINF ", max_size=8),
                  st.integers(max_value=0).map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(option=st.sampled_from([("verify", "--grid"), ("calculus", "--degree"), ("calculus", "--dim"),
                               ("hunt", "--trials"), ("verify", "--tol")]),
       text=_text)
def test_malformed_numeric_option_is_usage_error(files, option, text):
    command, flag = option
    if (_tol_is_valid if flag == "--tol" else _int_is_valid)(text):
        return
    argv = [command, f"{flag}={text}"]
    if command != "hunt":
        argv += ["--pencil", str(files[0] / "pencil.json")]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
