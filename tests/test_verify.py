"""The declared check table of ``posreal verify`` and the readers of its rows."""

import sys
from pathlib import Path

import numpy as np
import pytest

from posreal import cli
from posreal.cayley import DiskKernelEvaluator, disk_to_halfplane, value_cayley
from posreal.colligation import AglerColligation, colligation_from_kernel_samples
from posreal.core import DEFAULT_POLICY, ValidationError
from posreal.geometry import AntiUnitaryInvolution
from posreal.kernels import sample_kernels
from posreal.netlist import network_pencil, parse_netlist
from posreal.pencil import PsdPencil, RealizedFunction, compress_realization
from posreal.sampling import disk_grid, random_pencil
from posreal.verify import BATTERY, UNRUNNABLE, Check, check_colligation, run_verification

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posreal"


def _not_psd(seed=1):
    """An unchecked (2, 2, 3) load whose second coefficient is negative definite."""
    f = random_pencil(np.random.default_rng(seed), 2, 2, 3)
    coeffs = [a.copy() for a in f.pencil.coeffs]
    coeffs[1] = -coeffs[1]
    return compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, 2, validate=False)))


def test_each_row_is_declared_once_in_the_library():
    # the table is the only place that spells a row's name (and so its kind and tolerance)
    names = [check.name for check in BATTERY]
    assert len(set(names)) == len(names)
    sources = "".join(path.read_text() for path in PACKAGE.glob("*.py"))
    for name in names:
        assert sources.count(f'"{name}"') == 1, name


def test_every_row_is_a_residual_or_a_margin():
    assert {check.kind for check in BATTERY} == {"residual", "margin"}


@pytest.mark.parametrize("kind, value, passed", [
    ("residual", 1.0, True), ("residual", 1.5, False), ("margin", 1.0, True), ("margin", 0.5, False),
    ("residual", float("nan"), False), ("margin", float("nan"), False),
])
def test_a_row_is_judged_by_its_kind(kind, value, passed):
    row = Check("toy", kind, lambda pol: 1.0, lambda run: value).judge(value, DEFAULT_POLICY)
    assert row.passed is passed and row.tol == 1.0 and row.error is None


def test_a_failed_input_fails_every_reader_with_its_message():
    f = _not_psd()
    with pytest.raises(ValidationError) as built:
        DiskKernelEvaluator(f)
    rows = run_verification(f, seed=1, grid_size=12).checks
    readers = [r for r in rows if r.name == "kernel-identity" or r.name.startswith("colligation")
               or r.name == "inverse-double-cayley-recovery"]
    assert len(readers) == 6
    for row in readers:
        assert row.error == str(built.value) and not row.passed
        assert row.value == (-UNRUNNABLE if row.name == "colligation-spectrum-margin" else UNRUNNABLE)
    # rows that do not read the evaluator are measured
    assert not any(r.error for r in rows if r not in readers)


@pytest.mark.parametrize("valid", [True, False])
def test_the_colligation_realness_row_needs_a_synthesis(valid):
    f = random_pencil(np.random.default_rng(1), 2, 2, 3) if valid else _not_psd()
    iota = AntiUnitaryInvolution.conjugation(2)
    names = [r.name for r in run_verification(f, seed=1, grid_size=8, iota_u=iota).checks]
    tail = names[names.index("inverse-double-cayley-recovery") + 1:]
    assert tail == ["iota-real-pencil", "iota-real-function"] + ["iota-real-colligation"] * valid


def test_loaded_colligation_is_judged_by_the_battery_rows():
    # the colligation that verify synthesizes, from the phi tables on z(ws) and S = C(f)
    f = random_pencil(np.random.default_rng(6), 3, 2, 4)
    ws = disk_grid(f.num_vars, 11, 2)
    ks = sample_kernels(f, disk_to_halfplane(ws))
    coll = colligation_from_kernel_samples(ws, ks, value_cayley(ks.f_samples)).colligation
    rows, identity, verdict = check_colligation(coll, ws)
    report = {r.name: r for r in run_verification(f, seed=2, grid_size=11).checks}
    assert [r.name for r in rows] == [c.name for c in BATTERY if c.loaded is not None]
    for row in rows:
        assert row == report[row.name]
    assert verdict and max(identity) < 1e-10


def test_selfadjointness_counts_only_for_an_asserted_selfadjoint_colligation():
    # a unitary U that is not selfadjoint: a rotation
    u = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    ws = disk_grid(1, 5, 0)
    rows, identity, verdict = check_colligation(AglerColligation((1,), 1, u), ws)
    assert verdict and identity is None and not rows[1].passed
    asserted = check_colligation(AglerColligation((1,), 1, u, selfadjoint=True), ws)
    assert asserted[0] == rows and asserted[1] is not None and not asserted[2]


def test_unitarity_is_measured_once_by_the_synthesis(monkeypatch):
    calls = []
    real = AglerColligation.unitarity_residual

    def spy(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(AglerColligation, "unitarity_residual", spy)
    f = random_pencil(np.random.default_rng(3), 2, 2, 3)
    assert run_verification(f, seed=1, grid_size=9).verdict
    assert len(calls) == 1  # by the synthesis' validate gate; the row reads its result


def test_the_kernel_identity_r_is_formed_once_and_the_synthesis_runs_no_qr(monkeypatch):
    import posreal.core as core
    import posreal.verify as verify

    factored = []
    real_r = core.family_r

    def spy(x_adj):
        factored.append(1)
        return real_r(x_adj)

    # every binding, the defining module's and each from-import copy
    for name, module in list(sys.modules.items()):
        if name.startswith("posreal") and getattr(module, "family_r", None) is real_r:
            monkeypatch.setattr(module, "family_r", spy)

    synthesized = []
    real_synthesis = verify.colligation_from_kernel_samples

    def no_qr(*args, **kwargs):
        raise AssertionError("the synthesis ran a QR")

    def synthesis_without_qr(*args, **kwargs):
        synthesized.append(1)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "qr", no_qr)
            return real_synthesis(*args, **kwargs)

    monkeypatch.setattr(verify, "colligation_from_kernel_samples", synthesis_without_qr)
    for shape in [(3, 4, 32), (3, 2, 4)]:
        factored.clear()
        f = random_pencil(np.random.default_rng(7), *shape)
        # 100 points span several TSQR blocks of R, which the synthesis shares
        assert run_verification(f, seed=3, grid_size=100).verdict
        assert factored == [1]
    assert synthesized == [1, 1]


@pytest.mark.parametrize("kind, passed", [("bridge", True), ("real", True), ("complex", False)])
def test_colligation_realness_row(kind, passed):
    # the synthesized U is real in the phi tables' coordinates for a real
    # pencil under conjugation, and not for a complex one
    if kind == "bridge":
        f = network_pencil(parse_netlist(
            "ports A B\nbranch A M z1 1\nbranch M GND z2 2\nbranch B M z3 1\nbranch A B z1 0.5\n"))
    else:
        f = random_pencil(np.random.default_rng(8), 3, 2, 4, real=kind == "real")
    iota = AntiUnitaryInvolution.conjugation(f.dim_u)
    rows = {r.name: r for r in run_verification(f, seed=2, grid_size=30, iota_u=iota).checks}
    assert rows["iota-real-colligation"].passed is passed
    assert rows["iota-real-pencil"].passed is passed


def test_the_benchmark_name_runs_the_library_battery():
    f = random_pencil(np.random.default_rng(2), 2, 1, 2)
    assert (cli.run_verification(f, seed=4, grid_size=7).as_dict()
            == run_verification(f, seed=4, grid_size=7).as_dict())
