"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single pass/fail line (run with ``pytest -s`` to see them on
success). Instance families are fixed by explicit seeds so reruns are
bit-identical.
"""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

from oracles import charpoly_eigenvalues, two_block_congruence

from psdblocks import (
    BlockMatrix,
    DEFAULT_TOL,
    GeneratorSpec,
    HypothesisError,
    NumericalError,
    dagger,
    det_sandwich,
    direct_sum,
    eigen_step_check,
    equality_case_instance,
    frobenius,
    geometric_mean_instance,
    get_block,
    hermitian_eigvalues,
    hiroshima_check,
    nonhermitian_counterexample,
    operator_pair_check,
    partial_trace,
    quaternion_pipeline,
    quaternion_stage_defects,
    quaternion_units,
    random_block_psd,
    random_commuting_family,
    random_hermitian,
    random_psd,
    run_inequality_suite,
    two_block_isometries,
    two_corner_decomposition,
    validate_hermitian_blocks,
    verify_certificate,
)


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE criterion {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({label}): PASS")


def block_family(base_seed, count, alpha, max_n, max_rank=4):
    """Deterministic family of Hermitian-block PSD instances."""
    out = []
    for i in range(count):
        spec = GeneratorSpec(
            seed=base_seed + i,
            alpha=alpha,
            n=1 + i % max_n,
            rank=1 + i % max_rank,
        )
        out.append(random_block_psd(spec))
    return out


def test_criterion_1_two_corner_reconstruction():
    with criterion(1, "two-corner reconstruction"):
        rng = np.random.default_rng(20260810)
        for i in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            rank = 1 if i % 5 == 0 else int(rng.integers(1, n + m + 1))
            h = random_psd(n + m, rank=rank, seed=1000 + i)
            cert = two_corner_decomposition(h, n, m)
            assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h))
            assert max(cert.defects["isometry"]) <= 1e-9


def test_criterion_2_two_block_isometries():
    with criterion(2, "two-isometry average of A+B"):
        for i in range(200):
            h = random_block_psd(
                GeneratorSpec(seed=2000 + i, alpha=2, n=1 + i % 6, rank=1 + i % 4)
            )
            n = h.block_dim
            cert = two_block_isometries(h)
            assert cert.weight == Fraction(1, 2)
            block_sum = np.asarray(get_block(h, 1, 1) + get_block(h, 2, 2))
            assert all(np.allclose(core, block_sum, atol=1e-12) for core in cert.cores)
            assert cert.defects["reconstruction"] <= 1e-8
            assert max(cert.defects["isometry"]) <= 1e-9
            assert all(f.shape == (2 * n, n) for f in cert.factors)
            w = two_block_congruence(h.block_dim)
            congruated = dagger(w) @ h.data @ w
            half = block_sum / 2.0
            assert frobenius(congruated[:n, :n] - half) <= 1e-9
            assert frobenius(congruated[n:, n:] - half) <= 1e-9


def test_criterion_3_quaternion_pipeline():
    with criterion(3, "quaternion pipeline, beta in {3, 4}"):
        for beta in (4, 3):
            for i in range(100):
                h = random_block_psd(
                    GeneratorSpec(seed=3000 + 500 * beta + i, alpha=beta, n=1 + i % 3, rank=1 + i % 4)
                )
                n = h.block_dim
                blocks, cert = quaternion_pipeline(h, beta=beta)
                equal, skew = quaternion_stage_defects(blocks, cert)
                assert skew <= 1e-9
                assert equal <= 1e-9
                assert cert.weight == Fraction(1, 4)
                delta = partial_trace(h)
                doubled = direct_sum(delta, delta)
                assert all(np.allclose(core, doubled, atol=1e-12) for core in cert.cores)
                assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h.data))
                assert max(cert.defects["isometry"]) <= 1e-9
                assert all(f.shape == (2 * beta * n, 2 * n) for f in cert.factors)


def test_criterion_4_partial_trace_dominance():
    with criterion(4, "partial-trace norm dominance and its sharpness"):
        for alpha in (2, 3, 4, 5, 6):
            for h in block_family(4000 + 100 * alpha, 12, alpha=alpha, max_n=4):
                report = hiroshima_check(h)
                assert report.passed
                assert abs(np.trace(h.data).real - np.trace(partial_trace(h)).real) <= 1e-9
        bad = nonhermitian_counterexample()
        report = hiroshima_check(bad)
        assert not report.passed
        sums = report.check("eigenvalue_partial_sums")
        assert sums.lhs[0] == pytest.approx(2.0, abs=1e-12)
        assert sums.rhs[0] == pytest.approx(1.0, abs=1e-12)
        assert not report.check("eigenvalue_partial_sums").passed


def test_criterion_5_determinant_sandwich():
    with criterion(5, "determinant sandwich and its equality cases"):
        for alpha in (2, 3, 4):
            for h in block_family(5000 + 100 * alpha, 15, alpha=alpha, max_n=3):
                assert det_sandwich(h).passed
        # zero off-diagonal: product bound is attained
        for seed in range(10):
            a = random_psd(3, rank=3, seed=5600 + seed)
            b = random_psd(3, rank=2, seed=5700 + seed)
            h = BlockMatrix(direct_sum(a, b), block_dim=3, block_count=2)
            report = det_sandwich(h)
            assert report.passed
            upper = report.check("fisher_product_bound")
            assert abs(upper.rhs - upper.lhs) <= 1e-10 * max(abs(upper.lhs), abs(upper.rhs))
        # commuting geometric cross term: partial-trace bound is attained
        for seed in range(10):
            h = equality_case_instance(1 + seed % 4, 5800 + seed)
            report = det_sandwich(h)
            assert report.passed
            lower = report.check("partial_trace_bound")
            assert abs(lower.rhs - lower.lhs) <= 1e-8 * max(abs(lower.lhs), abs(lower.rhs))
        report = det_sandwich(geometric_mean_instance())
        upper = report.check("fisher_product_bound")
        lower = report.check("partial_trace_bound")
        assert upper.rhs == pytest.approx(200.0, rel=1e-8)
        assert upper.lhs == pytest.approx(66.0, rel=1e-8)
        assert lower.lhs == pytest.approx(66.0, rel=1e-8)


def test_criterion_6_stepped_eigenvalues():
    with criterion(6, "stepped eigenvalue dominance"):
        for h in block_family(6000, 25, alpha=2, max_n=4):
            assert eigen_step_check(h).passed
        for alpha in (3, 4):
            for h in block_family(6100 + 100 * alpha, 25, alpha=alpha, max_n=3):
                assert eigen_step_check(h).passed
        geo = geometric_mean_instance()
        lam_h = hermitian_eigvalues(geo.data)
        lam_d = hermitian_eigvalues(partial_trace(geo))
        assert lam_h[0] == pytest.approx(10.0, abs=1e-8)
        assert lam_d[0] == pytest.approx(10.0, abs=1e-8)
        assert eigen_step_check(geo).passed


def test_criterion_7_operator_pairs():
    with criterion(7, "operator pair dominance"):
        for i in range(100):
            n = 2 + i % 4
            t = random_hermitian(n, 7000 + i)
            s = random_hermitian(n, 7500 + i)
            report = operator_pair_check(t, [s])
            assert report.passed
            gram = report.check("gram_spectrum")
            half = len(gram.lhs) // 2
            diffs = np.abs(np.asarray(gram.lhs[:half]) - np.asarray(gram.rhs[:half]))
            scale = 1.0 + float(np.abs(np.asarray(gram.rhs)).max())
            assert diffs.max() <= 1e-8 * scale
        for beta in (3, 4):
            for i in range(100):
                n = 2 + i % 3
                t = random_hermitian(n, 7000 + 1000 * beta + i)
                family = random_commuting_family(beta, n, 7200 + 1000 * beta + i)
                assert operator_pair_check(t, family).passed


def test_criterion_8_quaternion_algebra_exact():
    with criterion(8, "quaternion unit identities, exactly"):
        one, i, j, k = quaternion_units()
        minus = -one
        assert np.array_equal(i @ i, minus)
        assert np.array_equal(j @ j, minus)
        assert np.array_equal(k @ k, minus)
        assert np.array_equal(i @ j @ k, minus)
        units = quaternion_units()
        for s, es in enumerate(units):
            for t, et in enumerate(units):
                if s == t:
                    continue
                prod = es @ dagger(et)
                assert np.array_equal(prod + dagger(prod), np.zeros((2, 2)))


def _oracle_roster():
    """Hermitian matrices of side <= 8 drawn from the families above."""
    roster = [
        np.eye(8, dtype=complex),
        np.zeros((3, 3), dtype=complex),
        np.diag([3.0, 1.0, 2.0]).astype(complex),
        geometric_mean_instance().data,
        partial_trace(geometric_mean_instance()),
        nonhermitian_counterexample().data,
        partial_trace(nonhermitian_counterexample()),
    ]
    for seed in (0, 1):
        inst = equality_case_instance(2, 9000 + seed)
        roster.append(inst.data)
        roster.append(partial_trace(inst))
    for alpha, sizes in ((2, (1, 2, 3, 4)), (3, (1, 2)), (4, (1, 2))):
        for n in sizes:
            h = random_block_psd(GeneratorSpec(seed=9100 + 10 * alpha + n, alpha=alpha, n=n, rank=2))
            roster.append(h.data)
            roster.append(partial_trace(h))
    for side in range(2, 9):
        roster.append(random_psd(side, rank=max(1, side - 2), seed=9200 + side))
    roster.append(random_psd(6, rank=1, seed=9300))
    return roster


def test_criterion_9_cross_oracle():
    with criterion(9, "eigenvalues match the brute-force polynomial oracle"):
        for m in _oracle_roster():
            assert m.shape[0] <= 8
            fast = hermitian_eigvalues(m)
            slow = charpoly_eigenvalues(m)
            assert np.abs(fast - slow).max() <= 1e-7


def _certificates(h):
    """Every construction that applies to h's block count."""
    if h.block_count == 2:
        return [two_block_isometries(h)]
    certs = [quaternion_pipeline(h, beta=h.block_count)[1]]
    if h.block_count == 3:
        certs.append(quaternion_pipeline(h, beta=4)[1])
    return certs


def _decomposes_and_verifies(h):
    for cert in _certificates(h):
        assert verify_certificate(cert).passed


def test_criterion_10_large_sides():
    with criterion(10, "large sides: two-block at side 256, quaternion at 8n = 512"):
        _decomposes_and_verifies(random_block_psd(GeneratorSpec(seed=10000, alpha=2, n=128, rank=3)))
        _decomposes_and_verifies(random_block_psd(GeneratorSpec(seed=10001, alpha=4, n=64, rank=3)))


def test_criterion_11_extreme_scales():
    with criterion(11, "scales 1e-150 to 1e153"):
        for scale in (1e-150, 1e150, 1e153):
            for i, (alpha, n) in enumerate(((2, 3), (3, 2), (4, 2), (2, 16), (4, 8))):
                h = random_block_psd(GeneratorSpec(seed=11000 + i, alpha=alpha, n=n, rank=3, scale=scale))
                if scale == 1e153 and n >= 8:
                    # the plain norm squares entries: this one overflows it
                    assert frobenius(h.data) > 1.4e154
                _decomposes_and_verifies(h)
                try:
                    report = run_inequality_suite(h)
                except NumericalError:
                    continue  # det(I + H) overflows: undecided, never a false FAIL
                assert report.passed


def _rank_one_instance(seed, alpha, n):
    """``(c c^T) (x) (w w*)`` for real c and complex w: rank one, and
    block (s, t) is the Hermitian ``c_s c_t w w*``."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(alpha)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return BlockMatrix(np.kron(np.outer(c, c), np.outer(w, w.conj())), block_dim=n, block_count=alpha)


def test_criterion_12_rank_one_large_sides():
    with criterion(12, "rank one at sides 128 and above"):
        for i, (alpha, n) in enumerate(((2, 64), (3, 43), (4, 32), (4, 64))):
            h = _rank_one_instance(12000 + i, alpha, n)
            assert h.side >= 128
            assert validate_hermitian_blocks(h) == ()
            assert hermitian_eigvalues(h.data)[1] <= 1e-10 * frobenius(h.data)
            _decomposes_and_verifies(h)


def _block_defect_instance(seed, alpha, multiple):
    """A PSD Hermitian-block instance whose blocks (1, 2) and (2, 1) are
    then made non-Hermitian by ``multiple`` times the tolerance slack.

    Adding the anti-Hermitian ``E`` to block (1, 2) and ``E* = -E`` to
    block (2, 1) keeps H Hermitian; each block's defect is ``||2E||_F``.
    Full rank keeps H positive definite well beyond the perturbation.
    """
    h = random_block_psd(GeneratorSpec(seed=seed, alpha=alpha, n=3, rank=3 * alpha))
    n = h.block_dim
    skew = 1j * random_hermitian(n, seed)
    skew *= multiple * DEFAULT_TOL.slack(frobenius(h.data)) / frobenius(2 * skew)
    data = h.data.copy()
    data[:n, n : 2 * n] += skew
    data[n : 2 * n, :n] -= skew
    return BlockMatrix(data, block_dim=n, block_count=alpha)


def test_criterion_13_block_defect_within_slack():
    with criterion(13, "blocks Hermitian up to 0.1x slack are accepted"):
        for alpha in (2, 3, 4):
            for i in range(5):
                h = _block_defect_instance(13000 + 10 * alpha + i, alpha, 0.1)
                assert validate_hermitian_blocks(h) == ()
                assert not hiroshima_check(h).warnings
                _decomposes_and_verifies(h)


def test_criterion_14_block_defect_beyond_slack():
    with criterion(14, "blocks non-Hermitian by 10x slack are rejected"):
        for alpha in (2, 3, 4):
            for i in range(5):
                h = _block_defect_instance(14000 + 10 * alpha + i, alpha, 10.0)
                offending = validate_hermitian_blocks(h)
                assert [(s, t) for s, t, _ in offending] == [(1, 2), (2, 1)]
                with pytest.raises(HypothesisError):
                    _certificates(h)
                warnings = run_inequality_suite(h).warnings
                assert any("Hermitian-block hypothesis violated at blocks (1,2), (2,1)" in w for w in warnings)
