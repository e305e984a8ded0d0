import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posreal.verify import run_verification
from posreal.core import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ShapeError,
    ValidationError,
    as_points,
    hermitian_part,
    is_psd,
    operator_norm,
    psd_spectrum,
    psd_sqrt,
)
from posreal.kernels import check_psd_kernel
from posreal.netlist import Branch, Network, network_pencil
from posreal.pencil import PsdPencil, RealizedFunction, compress, compress_realization


def test_tolerances_must_be_nonnegative():
    with pytest.raises(ValidationError):
        TolerancePolicy(residual_tol=-1e-3)


@pytest.mark.parametrize("name", ["residual_tol"])
def test_nan_tolerance_is_refused(name):
    # a NaN tolerance fails every comparison, so each gate would silently
    # fail; an infinite one would silently pass every residual
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match=f"tolerance {name} must be nonnegative"):
            TolerancePolicy(**{name: value})


@pytest.mark.parametrize("name", ["psd_slack", "commutator_tol", "margin"])
def test_fixed_tolerances_cannot_be_set(name):
    # the conditioning certificates are proven against the fixed psd_slack
    with pytest.raises(TypeError):
        TolerancePolicy(**{name: 1e-12})
    assert getattr(DEFAULT_POLICY, name) == getattr(TolerancePolicy, name)


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

    def test_zero_matrix_has_an_empty_factor(self):
        # rank zero: no rows, one column per coordinate
        assert psd_sqrt(np.zeros((3, 3))).shape == (0, 3)

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


# Near-threshold inputs of the one PSD certificate.  Diagonal parts keep the
# eigenvalues exact; ||M|| = 3, so scale = 4 and the PSD floor is 4 psd_slack.
BELOW, ABOVE = 1.0 - 1e-6, 1.0 + 1e-6
SLACK, TOL = DEFAULT_POLICY.psd_slack, DEFAULT_POLICY.residual_tol


def negative_eig(c):
    """lambda_min = -c times the PSD floor."""
    return np.diag([-c * SLACK * 4.0, 1.0, 2.0, 3.0]).astype(complex)


def small_eig(c):
    """lambda_min = c times the rank floor."""
    return np.diag([c * SLACK * 4.0, 1.0, 2.0, 3.0]).astype(complex)


def skewed(c):
    """||M - M*|| = c residual_tol (1 + ||M||), from one off-diagonal entry."""
    m = np.diag([0.5, 1.0, 2.0, 3.0]).astype(complex)
    for _ in range(5):  # the entry moves ||M|| by O(entry^2): converged at once
        m[0, 1] = c * TOL * (1.0 + np.linalg.norm(m, 2))
    return m


def gram_samples(m):
    """Scalar kernel samples whose block Gram is m."""
    return [[m[nu, mu].reshape(1, 1) for nu in range(len(m))] for mu in range(len(m))]


def d_block(m):
    """Unchecked one-variable pencil with U of dimension 1 and d-block m."""
    big = np.zeros((5, 5), dtype=complex)
    big[0, 0], big[1:, 1:] = 1.0, m
    return PsdPencil.from_coeffs([big], 1, validate=False)


def island_network(c):
    """Internal nodes B - C tied to the port by eps, so lambda_min(d) = c times the rank floor."""
    eps = 1e-9
    for _ in range(60):
        d = np.array([[1.0 + eps, -1.0], [-1.0, 1.0]])
        eps *= c * SLACK * (1.0 + np.linalg.norm(d, 2)) / np.linalg.eigvalsh(d)[0]
    return Network(("P",), (Branch("P", "B", 1, eps), Branch("B", "C", 2, 1.0),
                            Branch("P", "GND", 1, 1.0), Branch("P", "GND", 2, 1.0)))


class TestOnePsdCertificate:
    """Every site decides as the parent did at the floors, times 1 -+ 1e-6."""

    def test_spectrum_reads_one_scale(self):
        spec = psd_spectrum(negative_eig(BELOW))
        assert spec.scale == 1.0 + operator_norm(negative_eig(BELOW))
        assert spec.floor == SLACK * spec.scale
        assert spec.ok and spec.hermitian
        assert not psd_spectrum(negative_eig(ABOVE)).ok
        assert list(psd_spectrum(small_eig(BELOW)).kept) == [False, True, True, True]
        assert psd_spectrum(small_eig(ABOVE)).kept.all()
        assert psd_spectrum(skewed(BELOW)).hermitian
        assert not psd_spectrum(skewed(ABOVE)).hermitian

    def test_empty_matrix(self):
        spec = psd_spectrum(np.zeros((0, 0)))
        assert spec.hermitian and spec.ok and spec.min_eig == 0.0 and spec.scale == 1.0
        assert psd_sqrt(np.zeros((0, 0))).shape == (0, 0)

    def test_is_psd(self):
        assert is_psd(negative_eig(BELOW)).ok
        assert not is_psd(negative_eig(ABOVE)).ok
        assert is_psd(skewed(BELOW)).ok
        with pytest.raises(ValidationError, match="^is_psd requires a Hermitian matrix$"):
            is_psd(skewed(ABOVE))

    def test_psd_sqrt(self):
        assert psd_sqrt(negative_eig(BELOW)).shape == (3, 4)
        with pytest.raises(ValidationError, match="^matrix is not PSD: min eigenvalue -4.000e-10$"):
            psd_sqrt(negative_eig(ABOVE))
        assert psd_sqrt(small_eig(BELOW)).shape == (3, 4)
        assert psd_sqrt(small_eig(ABOVE)).shape == (4, 4)
        assert psd_sqrt(skewed(BELOW)).shape == (4, 4)
        with pytest.raises(ValidationError, match="^psd_sqrt requires a Hermitian matrix$"):
            psd_sqrt(skewed(ABOVE))

    def test_check_psd_kernel(self):
        assert check_psd_kernel(gram_samples(negative_eig(BELOW)))
        assert not check_psd_kernel(gram_samples(negative_eig(ABOVE)))
        assert check_psd_kernel(gram_samples(skewed(BELOW)))
        assert not check_psd_kernel(gram_samples(skewed(ABOVE)))

    def test_from_coeffs(self):
        for m in (negative_eig(BELOW), skewed(BELOW)):
            PsdPencil.from_coeffs([np.eye(4), m], 1)
        with pytest.raises(ValidationError,
                           match=r"^coefficient 2 is not PSD \(min eigenvalue -4.000e-10\)$"):
            PsdPencil.from_coeffs([np.eye(4), negative_eig(ABOVE)], 1)
        with pytest.raises(ValidationError, match="^coefficient 2 is not Hermitian$"):
            PsdPencil.from_coeffs([np.eye(4), skewed(ABOVE)], 1)

    def test_compress(self):
        assert compress(d_block(small_eig(BELOW))).dim_h == 3
        assert compress(d_block(small_eig(ABOVE))).dim_h == 4
        assert compress(d_block(negative_eig(ABOVE))).dim_h == 3

    def test_network_pencil(self):
        with pytest.raises(ValidationError, match="island"):
            network_pencil(island_network(BELOW))
        assert network_pencil(island_network(ABOVE)).dim_h == 2

    def test_verify_row_on_unchecked_non_hermitian_load(self):
        def row(m):
            coeffs = [d_block(m).coeffs[0], np.eye(5)]
            f = compress_realization(RealizedFunction(PsdPencil.from_coeffs(coeffs, 1, validate=False)))
            return run_verification(f, seed=1, grid_size=5).checks[0]

        assert row(negative_eig(BELOW)).passed
        assert not row(negative_eig(ABOVE)).passed
        # the row reads the Hermitian part and never raises on a skewed load
        skew = row(skewed(ABOVE) + 0.1 * np.triu(np.ones((4, 4)), 1))
        assert skew.name == "pencil-coefficients-psd" and skew.value == 0.0 and not skew.error


class TestPsdCertificateCost:
    """One norm for the scale, one for the Hermitian test, one eigh: no site repeats them."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = {"norm2": 0, "svd": 0, "eigh": 0}
        norm, svd, eigh = np.linalg.norm, np.linalg.svd, np.linalg.eigh

        def spy_norm(x, ord=None, *args, **kwargs):
            seen["norm2"] += ord == 2
            return norm(x, ord, *args, **kwargs)

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(np.linalg, "norm", spy_norm)
        monkeypatch.setattr(np.linalg, "svd", spy("svd", svd))
        monkeypatch.setattr(np.linalg, "eigh", spy("eigh", eigh))
        return seen

    @pytest.mark.parametrize("site", [
        lambda m: is_psd(m),
        lambda m: psd_sqrt(m),
        lambda m: check_psd_kernel(gram_samples(m)),
    ], ids=["is_psd", "psd_sqrt", "check_psd_kernel"])
    def test_one_matrix(self, site, counts):
        site(small_eig(ABOVE))
        assert counts == {"norm2": 2, "svd": 0, "eigh": 1}

    def test_validated_pencil(self, rng, counts):
        coeffs = [v.conj().T @ v for v in rng.standard_normal((3, 5, 5))]
        PsdPencil.from_coeffs(coeffs, 2)
        assert counts == {"norm2": 2 * 3, "svd": 0, "eigh": 3}
