"""Matrix kernel tests: PSD acceptance, spectra, roots, LAPACK failures, JSON."""

import json

import numpy as np
import orjson
import pytest

from oracles import charpoly_eigenvalues, random_hermitian, random_psd, singular_values

from psdblocks import (
    DEFAULT_TOL,
    DomainError,
    NumericalError,
    Tolerance,
    corner_unitary,
    dagger,
    frobenius,
    hermitian_eigvalues,
    matrix_from_json,
    matrix_to_json,
    matrix_to_wire,
    psd_sqrt,
    two_corner_decomposition,
    validate_hermitian_psd,
)
from psdblocks import kernel


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestValidateHermitianPsd:
    def test_identity_is_psd(self):
        values, vectors = validate_hermitian_psd(np.eye(2))
        assert np.array_equal(values, [1.0, 1.0])
        assert frobenius(dagger(vectors) @ vectors - np.eye(2)) <= 1e-15

    def test_nilpotent_not_hermitian(self):
        with pytest.raises(DomainError, match="not Hermitian within tolerance"):
            validate_hermitian_psd([[0, 1], [0, 0]])

    def test_indefinite_not_psd(self):
        # eigenvalues 3 and -1
        with pytest.raises(DomainError, match="not PSD within tolerance: min eigenvalue -1"):
            validate_hermitian_psd([[1, 2], [2, 1]])

    def test_rectangular_not_square(self):
        with pytest.raises(DomainError, match="must be square, got 2x3"):
            validate_hermitian_psd(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            validate_hermitian_psd([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError):
            validate_hermitian_psd([[np.nan, 0], [0, 1]])

    def test_overflowing_skew_is_numerical_error(self):
        # M - M* overflows and ||M||_F passes the float range: neither
        # Hermitian nor not, so no verdict, and no numpy warning
        with pytest.raises(NumericalError, match="cannot judge an excess of inf against a slack of inf"):
            validate_hermitian_psd(OVERFLOWING_SKEW)

    def test_tiny_negative_within_slack_is_psd(self):
        # accepted, and the eigenpairs come back as measured, not clamped
        m = np.diag([1.0, -1e-12])
        values, vectors = validate_hermitian_psd(m)
        assert np.array_equal(values, [1.0, -1e-12])
        assert frobenius((vectors * values) @ dagger(vectors) - m) <= 1e-15

    @pytest.mark.parametrize(
        "m",
        [np.ones((2, 3)), [[0, 1], [0, 0]], [[1, 2], [2, 1]], np.diag([1.0, -1e-12]), np.eye(3)],
        ids=["rectangular", "nilpotent", "indefinite", "within_slack", "identity"],
    )
    def test_spectrum_rule_matches_the_solving_rule(self, m, lapack_calls):
        # same verdicts and messages from a spectrum the caller holds, with no solve
        a = np.asarray(m, dtype=complex)
        values = np.linalg.eigvalsh(a)[::-1] if a.shape[0] == a.shape[1] else np.zeros(1)
        outcomes = []
        for given in (None, values):
            lapack_calls.clear()
            try:
                outcomes.append(validate_hermitian_psd(m, DEFAULT_TOL, given))
            except DomainError as exc:
                outcomes.append(str(exc))
        assert lapack_calls == []  # given the spectrum, no eigensolve
        if isinstance(outcomes[0], str):
            assert outcomes[1] == outcomes[0]
        else:
            assert outcomes[1][0] is values and outcomes[1][1] is None


class TestHermitianEig:
    def test_diagonal_sorted(self):
        assert np.allclose(hermitian_eigvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])

    def test_two_by_two_closed_form(self):
        assert np.allclose(hermitian_eigvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0])

    def test_identity(self):
        assert np.allclose(hermitian_eigvalues(np.eye(5)), np.ones(5))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_non_square_is_a_usage_error(self, shape, lapack_calls):
        # the kernel's own usage error, before any LAPACK call; not a NumericalError
        with pytest.raises(DomainError, match=f"^matrix must be square, got {shape[0]}x{shape[1]}$"):
            hermitian_eigvalues(np.ones(shape))
        assert lapack_calls == []

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_and_orthonormality(self, seed):
        # the values pair with eigh's vectors reversed, the basis psd_sqrt uses
        m = random_hermitian(6, seed)
        values = hermitian_eigvalues(m)
        v = np.linalg.eigh(m)[1][:, ::-1]
        assert frobenius(dagger(v) @ v - np.eye(6)) <= 1e-12
        residual = frobenius(m @ v - v @ np.diag(values))
        assert residual <= 1e-12 * (1 + frobenius(m))
        assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_bruteforce_charpoly(self, n):
        m = random_hermitian(n, 100 + n)
        assert np.abs(hermitian_eigvalues(m) - charpoly_eigenvalues(m)).max() <= 1e-8

    def test_charpoly_oracle_on_repeated_eigenvalues(self):
        m = np.diag([2.0, 2.0, 2.0, 1.0]).astype(complex)
        assert np.abs(hermitian_eigvalues(m) - charpoly_eigenvalues(m)).max() <= 1e-8


class TestHermitianPart:
    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda rng: crandn(rng, (7, 7)), id="complex"),
            pytest.param(lambda rng: rng.standard_normal((7, 7)), id="float"),
            pytest.param(lambda rng: crandn(rng, (7, 7)).T, id="transposed"),
            pytest.param(lambda rng: crandn(rng, (9, 16))[1:8, ::2][:, :7], id="sliced"),
            pytest.param(lambda rng: rng.choice([0.0, -0.0], (6, 6)) + 1j * rng.choice([0.0, -0.0], (6, 6)), id="signed_zeros"),
            pytest.param(lambda rng: rng.choice([0.0, -0.0], (6, 6)), id="float_signed_zeros"),
        ],
    )
    def test_bits_of_the_formula(self, make):
        m = make(np.random.default_rng(12))
        expected, got = 0.5 * (m + dagger(m)), kernel.hermitian_part(m)
        assert got.dtype == expected.dtype and got.flags.c_contiguous == expected.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()

    def test_overflow_takes_the_halves(self):
        m = np.array([[1.5e308, 1e308 + 1e308j], [1e308, -1.7e308j]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(m + dagger(m)).all()
        got, expected = kernel.hermitian_part(m), 0.5 * m + 0.5 * dagger(m)
        assert got.dtype == expected.dtype and got.flags.c_contiguous == expected.flags.c_contiguous
        assert got.tobytes() == expected.tobytes() and np.isfinite(got).all()

    def test_peak_memory(self, traced_peak):
        # about 1.09x: the result alone; the sum and the scaled copy reached 2.1x
        m = crandn(np.random.default_rng(13), (300, 300))
        _, peak = traced_peak(lambda: kernel.hermitian_part(m))
        assert peak < 1.3 * m.nbytes


class TestFrobenius:
    def test_matches_numpy_norm(self):
        m = crandn(np.random.default_rng(5), (6, 6))
        assert frobenius(m) == float(np.linalg.norm(m))

    @pytest.mark.parametrize("scale", [1e200, 1e200j, 1e300])
    def test_no_overflow_past_1e154(self, scale):
        # np.linalg.norm squares the entries: inf (and a RuntimeWarning) here
        assert frobenius(scale * np.ones((2, 2))) == 2 * abs(scale)

    def test_huge_and_tiny_entries(self):
        m = np.diag([3e200, 4e200, 1e-300])
        assert frobenius(m) == pytest.approx(5e200, rel=1e-15)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_infinite_entry_is_inf(self, dtype):
        # no NaN from rescaling an infinite entry, and no numpy warning
        assert frobenius(np.array([[0.0, -np.inf], [np.inf, 0.0]], dtype=dtype)) == np.inf


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

    def test_rejects_non_hermitian(self):
        # the rule of validate_hermitian_psd, not the root of the Hermitian part
        for decide in (validate_hermitian_psd, psd_sqrt):
            with pytest.raises(DomainError, match="not Hermitian"):
                decide([[1, 1], [0, 1]])

    def test_one_eigensolve_through_the_rule(self, monkeypatch):
        calls = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(kernel, "validate_hermitian_psd", count("rule", kernel.validate_hermitian_psd))
        for routine in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, routine, count(routine, getattr(np.linalg, routine)))
        psd_sqrt(random_psd(4, rank=2, seed=0))
        assert calls == ["rule", "eigh"]

    def test_accepts_hermitian_within_slack(self):
        m = np.array([[1.0, 1e-12], [0.0, 1.0]])
        assert np.allclose(psd_sqrt(m), np.eye(2))


@pytest.mark.parametrize(
    "routine, call, kwargs, shape",
    [
        ("eigh", lambda: psd_sqrt(np.eye(2)), {}, "2x2"),
        ("eigvalsh", lambda: hermitian_eigvalues(np.eye(2)), {}, "2x2"),
        # a singular slot core sends the construction to the polar factor
        ("svd", lambda: two_corner_decomposition(np.diag([1.0, 0.0, 1.0]), 2, 1), {"full_matrices": False}, "3x2"),
        ("svd", lambda: corner_unitary(np.ones((3, 1)), 0), {"full_matrices": True}, "3x1"),
        ("svd", lambda: singular_values(np.ones((2, 3))), {"compute_uv": False}, "2x3"),
    ],
    ids=["eigh", "eigvalsh", "svd_thin", "svd_full", "svd_values"],
)
def test_eigensolver_failure_is_numerical(monkeypatch, routine, call, kwargs, shape):
    # every LAPACK call site: the polar factor, the corner unitary and the
    # singular values are the thin, full and values-only SVDs
    seen = []

    def fail(a, **given):
        seen.append(given)
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(NumericalError, match=f"^{routine} did not converge on a {shape} matrix"):
        call()
    assert seen == [kwargs]


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


# finite entries whose M - M* overflows, and whose norm passes 1.8e308
OVERFLOWING_SKEW = np.array([[8.9e307, -1.7e308], [8e307, 8.9e307]])


class TestTolerance:
    def test_pass_rule(self):
        tol = Tolerance(atol=1e-10, rtol=1e-8)
        assert tol.allows(1e-10, 0.0)  # equality at the slack passes
        assert tol.allows(tol.slack(-3.0), -3.0)  # the scale enters by magnitude
        assert tol.allows(1e-6, 100.0)
        assert not tol.allows(2e-6, 100.0)
        # componentwise, against one scale or a scale per component
        assert tol.allows(np.array([1e-10, 2e-10, -5.0]), 0.0).tolist() == [True, False, True]
        assert tol.allows(np.array([1e-6, 1e-6]), np.array([100.0, 1.0])).tolist() == [True, False]
        assert tol.allows(1e-6, np.array([100.0, 1.0])).tolist() == [True, False]

    @pytest.mark.parametrize(
        "excess, scale, tol",
        [
            (np.nan, 1.0, DEFAULT_TOL),
            (np.inf, 1.0, DEFAULT_TOL),
            (-np.inf, 1.0, DEFAULT_TOL),
            (0.0, 1e308, Tolerance(rtol=10.0)),
            (np.array([0.0, np.nan]), 1.0, DEFAULT_TOL),
            (np.zeros(2), np.array([1.0, 1e308]), Tolerance(rtol=10.0)),
        ],
        ids=["nan_excess", "inf_excess", "minus_inf_excess", "inf_slack", "nan_component", "inf_slack_component"],
    )
    def test_non_finite_cannot_be_judged(self, excess, scale, tol):
        # neither a pass nor a fail: an overflow never passes, and no numpy warning
        with pytest.raises(NumericalError, match="cannot judge .* not finite"):
            tol.allows(excess, scale)

    def test_unnamed_decision_message(self):
        with pytest.raises(NumericalError) as exc:
            DEFAULT_TOL.allows(np.inf, 1.0)
        assert str(exc.value) == "cannot judge an excess of inf against a slack of 1.010000e-08: not finite"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(atol=-1.0)
        with pytest.raises(ValueError):
            Tolerance(rtol=-1e-3)

    @pytest.mark.parametrize("field", ["atol", "rtol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite(self, field, value):
        # an infinite slack would pass every check
        with pytest.raises(ValueError, match="finite"):
            Tolerance(**{field: value})


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

    @pytest.mark.parametrize(
        "entry, good_before",
        [
            pytest.param("oops", 0, id="oops"),
            pytest.param("00", 0, id="two_char_string"),
            pytest.param({"1": 0, "2": 0}, 0, id="object"),
            pytest.param([True, "2"], 0, id="bool_and_string"),
            pytest.param([1.0, False], 0, id="bool_imaginary"),
            pytest.param(["1", "2"], 0, id="numeric_strings"),
            pytest.param([1.0], 0, id="one_number"),
            pytest.param([1.0, 0.0, 0.0], 0, id="three_numbers"),
            pytest.param((1.0, 0.0), 0, id="tuple"),
            pytest.param([10**400, 0], 0, id="int_beyond_float"),
            pytest.param([True, 1.0], 0, id="bool_real"),
            pytest.param([None, 0.0], 0, id="null_real"),
            pytest.param([[1.0], 0.0], 0, id="nested_list"),
            pytest.param(5, 0, id="bare_number"),
            pytest.param([0.5, True], 3, id="after_good_entries"),
        ],
    )
    def test_malformed_entry(self, entry, good_before):
        entries = [[1.0, -2.0]] * good_before + [entry]
        with pytest.raises(ValueError, match=rf"at index {good_before}:"):
            matrix_from_json({"rows": 1, "cols": len(entries), "entries": entries})

    def test_integer_beyond_int64_accepted(self):
        # within float range, so it decodes as complex(2**70, 0) does
        back = matrix_from_json({"rows": 1, "cols": 1, "entries": [[2**70, 0]]})
        assert back[0, 0] == complex(2**70, 0)

    @pytest.mark.parametrize(
        "layout",
        [
            pytest.param(lambda m: m, id="contiguous"),
            pytest.param(lambda m: m.T, id="transposed"),
            pytest.param(lambda m: m[:, 1::2], id="column_sliced"),
        ],
    )
    def test_encode_matches_per_entry_floats(self, layout):
        values = [0.0, -0.0, 5e-324, -2.5e-310, 9.999999999999999e-05, 1e300, -1e300, 1.7976931348623157e308, 1 / 3]
        m = layout(np.array([complex(re, im) for re in values for im in values]).reshape(len(values), -1))
        reference = [[float(z.real), float(z.imag)] for z in m.ravel()]
        entries = matrix_to_json(m)["entries"]
        assert [list(map(repr, e)) for e in entries] == [list(map(repr, e)) for e in reference]
        # the float64 view orjson writes gives the same bytes as the lists
        wire = orjson.dumps(matrix_to_wire(m), option=orjson.OPT_SERIALIZE_NUMPY)
        assert wire == orjson.dumps(matrix_to_json(m))

    def test_decode_peak_memory(self, traced_peak):
        obj = matrix_to_json(crandn(np.random.default_rng(8), (256, 256)))
        back, peak = traced_peak(lambda: matrix_from_json(obj))
        assert back.nbytes == 16 * 256 * 256
        assert peak < 2 * back.nbytes

    def test_float64_entries_accepted(self):
        # a (rows*cols, 2) float64 array stands for the list, as the wire view
        # states it; any other array is counted as before
        m = crandn(np.random.default_rng(9), (3, 4))
        wire = matrix_to_wire(m)
        assert matrix_from_json(wire).tobytes() == m.tobytes()
        assert matrix_from_json({**wire, "entries": np.asfortranarray(wire["entries"])}).tobytes() == m.tobytes()
        wire["entries"][0, 0] = np.inf
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            matrix_from_json(wire)
        for entries in (wire["entries"][:-1], wire["entries"].astype(np.float32), wire["entries"].reshape(-1)):
            with pytest.raises(ValueError, match="expected 12 entries, got ndarray"):
                matrix_from_json({**wire, "entries": entries})

    def test_integer_entries_accepted(self):
        back = matrix_from_json({"rows": 1, "cols": 2, "entries": [[1, -2], [0, 3.5]]})
        assert np.array_equal(back, np.array([[1 - 2j, 3.5j]]))

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            matrix_from_json([1, 2, 3])

    @pytest.mark.parametrize(
        "sizes",
        [
            pytest.param({"rows": 1.9, "cols": True}, id="float_and_bool"),
            pytest.param({"rows": "1", "cols": 1}, id="string_rows"),
            pytest.param({"rows": 1, "cols": 1.0}, id="integral_float_cols"),
            pytest.param({"rows": None, "cols": 1}, id="null_rows"),
            pytest.param({"cols": 1}, id="missing_rows"),
        ],
    )
    def test_sizes_must_be_integers(self, sizes):
        # each of these used to load as a 1 x 1 matrix
        with pytest.raises(ValueError):
            matrix_from_json({**sizes, "entries": [[1.0, 0.0]]})


class TestMatrixObjectHook:
    """As the parser closes an object, its ``"entries"`` list of ``rows * cols``
    pairs of numbers becomes the ``(rows*cols, 2)`` float64 array; no object
    is replaced, and anything else stays as parsed for ``matrix_from_json``."""

    def test_matrix_objects_decode_in_place(self):
        m = crandn(np.random.default_rng(9), (3, 2))
        text = json.dumps({"target": matrix_to_json(m), "factors": [matrix_to_json(m.T)], "weight": "1/2"})
        obj = json.loads(text, object_hook=kernel._matrix_object_hook)
        assert obj["weight"] == "1/2" and obj["target"].keys() == {"rows", "cols", "entries"}
        for stated, matrix in ((obj["target"], m), (obj["factors"][0], m.T)):
            assert stated["entries"].dtype == np.float64 and stated["entries"].shape == (6, 2)
            assert matrix_from_json(stated).tobytes() == np.ascontiguousarray(matrix).tobytes()

    @pytest.mark.parametrize(
        "obj, decoded",
        [
            pytest.param({"rows": 1, "cols": 1, "entries": [[1.0, True]]}, False, id="bool_entry"),
            # a pair of numbers, which matrix_from_json then finds not finite
            pytest.param({"rows": 1, "cols": 1, "entries": [[float("inf"), 0.0]]}, True, id="non_finite"),
            pytest.param({"rows": 2, "cols": 1, "entries": [[1.0, 0.0]]}, False, id="short"),
            pytest.param({"rows": 1, "cols": 1, "entries": [[1.0, 0.0]], "block_dim": 1}, True, id="extra_key"),
            pytest.param({"rows": 1, "entries": [[1.0, 0.0]]}, False, id="missing_key"),
        ],
    )
    def test_other_objects_are_left_as_parsed(self, obj, decoded):
        entries, keys = obj["entries"], list(obj)
        assert kernel._matrix_object_hook(obj) is obj and list(obj) == keys
        assert isinstance(obj["entries"], np.ndarray) if decoded else obj["entries"] is entries
