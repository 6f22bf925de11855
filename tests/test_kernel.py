"""Matrix kernel tests: classification, spectra, roots, JSON."""

import numpy as np
import pytest

from oracles import charpoly_eigenvalues

from psdblocks import (
    DEFAULT_TOL,
    DomainError,
    PsdClass,
    Tolerance,
    dagger,
    frobenius,
    hermitian_eig,
    hermitian_eigvalues,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
    random_hermitian,
    random_psd,
    singular_values,
    validate_hermitian_psd,
)


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestValidateHermitianPsd:
    def test_identity_is_psd(self):
        assert validate_hermitian_psd(np.eye(2)) is PsdClass.PSD

    def test_nilpotent_not_hermitian(self):
        assert validate_hermitian_psd([[0, 1], [0, 0]]) is PsdClass.NOT_HERMITIAN

    def test_indefinite_not_psd(self):
        # eigenvalues 3 and -1
        assert validate_hermitian_psd([[1, 2], [2, 1]]) is PsdClass.NOT_PSD

    def test_rectangular_not_square(self):
        assert validate_hermitian_psd(np.ones((2, 3))) is PsdClass.NOT_SQUARE

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_hermitian_psd([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError):
            validate_hermitian_psd([[np.nan, 0], [0, 1]])

    def test_tiny_negative_within_slack_is_psd(self):
        m = np.diag([1.0, -1e-12])
        assert validate_hermitian_psd(m) is PsdClass.PSD


class TestHermitianEig:
    def test_diagonal_sorted(self):
        spec = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.values, [3.0, 2.0, 1.0])

    def test_two_by_two_closed_form(self):
        spec = hermitian_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(spec.values, [3.0, 1.0])

    def test_identity(self):
        spec = hermitian_eig(np.eye(5))
        assert np.allclose(spec.values, np.ones(5))

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_and_orthonormality(self, seed):
        m = random_hermitian(6, seed)
        spec = hermitian_eig(m)
        v = spec.vectors
        assert frobenius(dagger(v) @ v - np.eye(6)) <= 1e-12
        residual = frobenius(m @ v - v @ np.diag(spec.values))
        assert residual <= 1e-12 * (1 + frobenius(m))
        assert np.all(np.diff(spec.values) <= 1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_bruteforce_charpoly(self, n):
        m = random_hermitian(n, 100 + n)
        assert np.abs(hermitian_eigvalues(m) - charpoly_eigenvalues(m)).max() <= 1e-8

    def test_charpoly_oracle_on_repeated_eigenvalues(self):
        m = np.diag([2.0, 2.0, 2.0, 1.0]).astype(complex)
        assert np.abs(hermitian_eigvalues(m) - charpoly_eigenvalues(m)).max() <= 1e-8


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_zero(self):
        assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_two_by_two_spectral_form(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = psd_sqrt(m)
        assert np.allclose(hermitian_eigvalues(s), [np.sqrt(3.0), 1.0])
        assert frobenius(s @ s - m) <= 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_square_recovers_input(self, seed):
        n = 2 + seed % 11  # up to 12
        m = random_psd(n, rank=1 + seed % n, seed=seed)
        s = psd_sqrt(m)
        assert frobenius(s @ s - m) <= DEFAULT_TOL.slack(1 + frobenius(m))
        assert frobenius(s - dagger(s)) <= 1e-12

    def test_clamps_eigenvalues_within_slack(self):
        m = np.diag([1.0, -1e-12])
        s = psd_sqrt(m)
        assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            psd_sqrt(np.diag([1.0, -1.0]))


class TestSingularValues:
    def test_diagonal_absolute_values(self):
        assert np.allclose(singular_values(np.diag([1.0, -2.0])), [2.0, 1.0])

    def test_unit_column(self):
        v = np.zeros((4, 1))
        v[2, 0] = 1.0
        assert np.allclose(singular_values(v), [1.0])

    def test_nilpotent(self):
        assert np.allclose(singular_values([[0.0, 1.0], [0.0, 0.0]]), [1.0, 0.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_psd_singular_values_equal_eigenvalues(self, seed):
        m = random_psd(5, rank=5, seed=seed)
        assert np.abs(singular_values(m) - hermitian_eigvalues(m)).max() <= 1e-9


class TestTolerance:
    def test_pass_rule(self):
        tol = Tolerance(atol=1e-10, rtol=1e-8)
        assert tol.allows(1e-10, 0.0)
        assert tol.allows(1e-6, 100.0)
        assert not tol.allows(2e-6, 100.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(atol=-1.0)
        with pytest.raises(ValueError):
            Tolerance(rtol=-1e-3)


class TestMatrixJson:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        m = crandn(rng, (3, 5))
        obj = matrix_to_json(m)
        assert obj["rows"] == 3 and obj["cols"] == 5
        back = matrix_from_json(obj)
        assert np.array_equal(back, m)

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})

    def test_nonfinite_rejected(self):
        obj = {"rows": 1, "cols": 1, "entries": [[float("inf"), 0.0]]}
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_malformed_entry(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "entries": ["oops"]})

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            matrix_from_json([1, 2, 3])
