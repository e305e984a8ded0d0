"""Every input refusal of the library, run once: one table of bad inputs.

Each row calls one public entry point with one malformed or out-of-class
input and names the exception type and the start of its message.  The
rows cover the refusals that no other test reaches; the command-line
case at the end checks that a malformed ``--point`` leaves ``posreal
eval`` with exit 2.
"""

import re

import numpy as np
import pytest

from posreal import realize, serialize
from posreal.calculus import (
    HuntConfig,
    TaylorCoefficients,
    calc_realized,
    calc_series,
    inverse_operator_cayley,
    make_tuple,
    taylor_from_function,
)
from posreal.cayley import DiskFunctionView
from posreal.cli import main
from posreal.colligation import AglerColligation, agler_identity_residual, build_colligation
from posreal.core import ShapeError, ValidationError, as_points, family_r
from posreal.geometry import (
    AntiUnitaryInvolution,
    check_real_colligation,
    check_real_pencil,
    dehomogenize,
    in_omega_oracle,
    in_omega_oracle_batch,
    iota_real_residual,
    iota_symmetric_residual,
)
from posreal.kernels import KernelSampleSet, block_gram
from posreal.pencil import PsdPencil, sum_realization

EYE2 = np.eye(2)
F2 = realize([np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])], 1)
F1 = realize([np.array([[2.0]])], 1)
FLIP = np.array([[0.0, 1.0], [1.0, 0.0]])
TABLE = TaylorCoefficients(2, 1, 2, np.zeros((3, 3, 1, 1)))


def contraction(num_vars=2):
    return make_tuple([0.5 * EYE2] * num_vars)


def accretive(num_vars=2):
    return make_tuple([EYE2] * num_vars, require="accretive")


def conj(dim):
    return AntiUnitaryInvolution.conjugation(dim)


REFUSALS = {
    "make_tuple-empty": (lambda: make_tuple([]), ShapeError, "empty tuple"),
    "make_tuple-mixed-size": (lambda: make_tuple([EYE2, np.eye(3)]), ShapeError,
                              "tuple members must share one dimension"),
    "inverse_operator_cayley-not-accretive": (lambda: inverse_operator_cayley(contraction()), ValidationError,
                                              "inverse operator Cayley transform needs a strictly accretive"),
    "tail_bound-negative-rho": (lambda: TABLE.tail_bound(-0.5), ValidationError, "rho must be nonnegative"),
    "taylor_from_function-grid-size": (lambda: taylor_from_function(F2, 2, 1, degree=8, grid_size=8),
                                       ValidationError, "grid_size must exceed the requested degree"),
    "taylor_from_function-evaluator-shape": (
        lambda: taylor_from_function(lambda pts: np.zeros((len(pts), 2, 2)), 1, 1, degree=2),
        ShapeError, "evaluator returned shape"),
    "calc_series-not-contraction": (lambda: calc_series(TABLE, accretive()), ValidationError,
                                    "series calculus needs a strict contraction tuple"),
    "calc_series-num-vars": (lambda: calc_series(TABLE, contraction(3)), ShapeError,
                             "coefficient table and tuple disagree on the number of variables"),
    "calc_realized-num-vars": (lambda: calc_realized(F2, accretive(1)), ShapeError,
                               "realization and tuple disagree on the number of variables"),
    "calc_realized-not-accretive": (lambda: calc_realized(F2, contraction()), ValidationError,
                                    "realized calculus needs a strictly accretive tuple"),
    "HuntConfig-one-variable": (lambda: HuntConfig(num_vars=1), ValidationError,
                                "the hunt needs at least two variables"),
    "DiskFunctionView-no-num-vars": (lambda: DiskFunctionView(lambda pts: pts), ValidationError,
                                     "num_vars is required for callable sources"),
    "AglerColligation-negative-dim": (lambda: AglerColligation((-1,), 1, np.eye(1)), ShapeError,
                                      "state dimensions must be nonnegative"),
    "AglerColligation-size": (lambda: AglerColligation((1,), 1, np.eye(3)), ShapeError,
                              "U dimension must equal state dim + io dim"),
    "AglerColligation-not-selfadjoint": (
        lambda: AglerColligation((1,), 1, np.array([[0.0, 1.0], [-1.0, 0.0]]), selfadjoint=True).validate(),
        ValidationError, "colligation operator is not selfadjoint"),
    "agler_identity_residual-not-selfadjoint": (
        lambda: agler_identity_residual(AglerColligation((1,), 1, FLIP), [[0.1]]),
        ValidationError, "identity residuals are defined for selfadjoint colligations"),
    "build_colligation-sample-count": (
        lambda: build_colligation([[0.0], [0.1]], [np.zeros((2, 1, 1))], np.zeros((1, 1, 1))),
        ShapeError, "one Schur-side sample per grid point required"),
    "from_coeffs-no-coefficients": (lambda: PsdPencil.from_coeffs([], 1), ValidationError,
                                    "a pencil needs at least one coefficient"),
    "from_coeffs-dim-u": (lambda: PsdPencil.from_coeffs([EYE2], 3), ShapeError, "dim_u=3 outside [0, 2]"),
    "sum_realization-num-vars": (lambda: sum_realization(F2, F1), ShapeError,
                                 "summands must share the number of variables"),
    "KernelSampleSet-grid": (lambda: KernelSampleSet(np.ones(2), (), np.ones((2, 1, 1))), ShapeError,
                             "grid must be a (g, N) array"),
    "KernelSampleSet-factor-count": (lambda: KernelSampleSet(np.ones((1, 2)), (np.ones((1, 1, 1)),),
                                                             np.ones((1, 1, 1))),
                                     ShapeError, "one factor table per variable required"),
    "KernelSampleSet-factor-shape": (lambda: KernelSampleSet(np.ones((1, 1)), (np.ones((1, 1)),),
                                                             np.ones((1, 1, 1))),
                                     ShapeError, "factor tables must have shape (g, m_k, n)"),
    "block_gram-empty": (lambda: block_gram([]), ShapeError, "empty sample grid"),
    "as_points-coordinates": (lambda: as_points([[1.0, 2.0, 3.0]], 2), ShapeError,
                              "expected points with 2 coordinates"),
    "row_view-ndim": (lambda: family_r(np.ones((2, 2))), ShapeError, "expected a (g, n, M) family"),
    "in_omega_oracle-resolution": (lambda: in_omega_oracle([1.0], resolution=100), ValidationError,
                                   "oracle resolution must be at least 10^4"),
    "in_omega_oracle_batch-resolution": (lambda: in_omega_oracle_batch([[1.0]], resolution=100),
                                         ValidationError, "oracle resolution must be at least 10^4"),
    "dehomogenize-one-variable": (lambda: dehomogenize(F1), ValidationError,
                                  "de-homogenization needs at least two variables"),
    "involution-not-unitary": (lambda: AntiUnitaryInvolution(2.0 * EYE2).validate(), ValidationError,
                               "J must be unitary"),
    "iota_real_residual-dimension": (lambda: iota_real_residual(np.eye(3), conj(2)), ShapeError,
                                     "operator and involution dimensions differ"),
    "iota_symmetric_residual-dimension": (lambda: iota_symmetric_residual(np.eye(3), conj(2)), ShapeError,
                                          "operator and involution dimensions differ"),
    "check_real_pencil-dimension": (lambda: check_real_pencil(F2, conj(2), conj(1)), ShapeError,
                                    "involution dimensions do not match the pencil partition"),
    "check_real_colligation-dimension": (
        lambda: check_real_colligation(AglerColligation((1,), 1, FLIP, selfadjoint=True), conj(2), conj(1)),
        ShapeError, "involution dimensions do not match the colligation"),
    "serialize-factors-not-a-list": (lambda: serialize.kernel_samples_from_json({"grid": [], "f_samples": [], "factors": 1}),
                                     ValidationError, "malformed kernel sample JSON: factors must be a list"),
}


@pytest.mark.parametrize("call, kind, prefix", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, kind, prefix):
    with pytest.raises(kind, match="^" + re.escape(prefix)):
        call()


@pytest.mark.parametrize("rho, want", [(0.0, 0.0), (0.5, np.inf)])
def test_tail_bound_edges(rho, want):
    # rho = 0 has no tail; a table without a proven sup has no finite bound
    assert TABLE.tail_bound(rho) == want


@pytest.mark.parametrize("point, prefix", [("1,x", "error: bad point '1,x'"),
                                           ("1", "error: point '1' has 1 coordinates, expected 2")])
def test_malformed_eval_point_exits_2(tmp_path, capsys, point, prefix):
    path = tmp_path / "pencil.json"
    serialize.dump(serialize.pencil_to_json(F2), str(path))
    assert main(["eval", "--pencil", str(path), "--point", point]) == 2
    assert capsys.readouterr().err.startswith(prefix)
