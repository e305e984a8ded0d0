import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posreal.core import (
    TolerancePolicy,
    ShapeError,
    ValidationError,
    as_points,
    hermitian_part,
    is_psd,
    operator_norm,
    psd_sqrt,
)


def test_tolerances_must_be_nonnegative():
    with pytest.raises(ValidationError):
        TolerancePolicy(psd_slack=-1e-3)


@pytest.mark.parametrize("name", ["psd_slack", "residual_tol", "commutator_tol", "margin"])
def test_nan_tolerance_is_refused(name):
    # a NaN tolerance fails every comparison, so each gate would silently fail
    with pytest.raises(ValidationError, match=f"tolerance {name} must be nonnegative"):
        TolerancePolicy(**{name: float("nan")})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)])
def test_as_points_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValidationError, match="finite"):
        as_points([[1.0, 2.0], [3.0, bad]], 2)
    assert as_points([1.0, 2.0j], 2).shape == (1, 2)


class TestHermitianPart:
    def test_skew_part_cancels(self):
        assert np.allclose(hermitian_part([[1j]]), [[0.0]])

    def test_stack_equals_per_matrix(self, rng):
        stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        assert np.array_equal(hermitian_part(stack), np.stack([hermitian_part(m) for m in stack]))

    @pytest.mark.parametrize("bad, error", [
        (np.full((2, 3, 3), np.nan), ValidationError),
        (np.zeros((2, 3, 4)), ShapeError),
        (np.zeros((2, 2, 3, 3)), ShapeError),
    ])
    def test_stack_input_checks(self, bad, error):
        with pytest.raises(error):
            hermitian_part(bad)

    def test_symmetrization(self):
        assert np.allclose(hermitian_part([[1, 2], [0, 1]]), [[1, 1], [1, 1]])

    def test_hand_computation(self):
        # (M + M*)/2 with M = [[0, 2i], [0, 0]]
        out = hermitian_part([[0, 2j], [0, 0]])
        assert np.allclose(out, [[0, 1j], [-1j, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            hermitian_part(np.ones((2, 3)))

    def test_invariant_under_adjoint(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.allclose(hermitian_part(m), hermitian_part(m.conj().T))


class TestIsPsd:
    def test_rank_one(self):
        rep = is_psd([[1, 1], [1, 1]])  # eigenvalues {0, 2}
        assert rep.ok and abs(rep.min_eig) < 1e-12

    def test_zero_matrix(self):
        assert is_psd([[0.0]]).ok

    def test_indefinite(self):
        rep = is_psd([[1, 2], [2, 1]])  # eigenvalues {-1, 3}
        assert not rep.ok
        assert rep.min_eig == pytest.approx(-1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            is_psd([[0, 1], [0, 0]])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_gram_matrices_are_psd(self, seed):
        r = np.random.default_rng(seed)
        dim = int(r.integers(1, 9))
        v = r.standard_normal((dim + 2, dim)) + 1j * r.standard_normal((dim + 2, dim))
        assert is_psd(v.conj().T @ v).ok


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))

    def test_scalar(self):
        assert np.allclose(psd_sqrt([[4.0]]), [[2.0]])

    def test_rank_one_factor(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        s = psd_sqrt(m)
        assert s.shape[0] == 1  # numerical rank
        assert np.linalg.norm(s.conj().T @ s - m) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            psd_sqrt([[1, 2], [2, 1]])

    def test_residual_on_random_psd(self, rng):
        pol = TolerancePolicy()
        for dim in (1, 4, 17, 32):
            v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = v.conj().T @ v
            s = psd_sqrt(m)
            assert np.linalg.norm(s.conj().T @ s - m, 2) <= pol.residual_tol * (1 + np.linalg.norm(m, 2))


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0

    def test_nilpotent(self):
        assert operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, 2.0])) == pytest.approx(2.0)

    def test_empty(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0
