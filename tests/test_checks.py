"""Inequality module tests: Ky Fan norms, majorization, determinant and
eigenvalue bounds, operator pairs, and the report conventions."""

import numpy as np
import pytest

from oracles import ky_fan_norm, random_commuting_family, random_hermitian, weak_majorization
from psdblocks import (
    BlockMatrix,
    DomainError,
    GeneratorSpec,
    HypothesisError,
    NumericalError,
    Tolerance,
    compare_eq,
    compare_le,
    dagger,
    det_sandwich,
    direct_sum,
    eigen_step_check,
    equality_case_instance,
    frobenius,
    geometric_mean_instance,
    get_block,
    hermitian_eigvalues,
    hermitian_part,
    hiroshima_check,
    nonhermitian_counterexample,
    operator_pair_check,
    partial_trace,
    random_block_psd,
    report_to_json,
    run_inequality_suite,
    trace_concave_check,
    weyl_check,
)


def block_instance(seed, alpha=2, n=2, rank=3, scale=1.0):
    return random_block_psd(GeneratorSpec(seed=seed, alpha=alpha, n=n, rank=rank, scale=scale))


class TestKyFanNorm:
    def test_top_singular_value(self):
        assert ky_fan_norm(np.diag([3.0, 1.0]), 1) == pytest.approx(3.0)

    def test_full_sum(self):
        assert ky_fan_norm(np.diag([3.0, 1.0]), 2) == pytest.approx(4.0)

    def test_psd_full_norm_is_trace(self):
        h = block_instance(7).data
        k = h.shape[0]
        assert ky_fan_norm(h, k) == pytest.approx(float(np.trace(h).real), abs=1e-9)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            ky_fan_norm(np.eye(2), 3)
        with pytest.raises(ValueError):
            ky_fan_norm(np.eye(2), 0)


class TestWeakMajorization:
    def test_fails_at_first_position(self):
        report = weak_majorization([3.0, 1.0], [2.0, 2.0])
        assert not report.passed
        assert report.checks[0].lhs[0] == 3.0
        assert report.checks[0].rhs[0] == 2.0

    def test_geometric_mean_padding(self):
        report = weak_majorization([10.0, 5.0, 0.0, 0.0], [10.0, 5.0])
        check = report.checks[0]
        assert report.passed
        # equality at every partial sum from the second on
        assert check.lhs[1:] == check.rhs[1:]

    def test_reflexive_margin_zero(self):
        report = weak_majorization([2.0, 1.0], [2.0, 1.0])
        assert report.passed
        assert report.checks[0].margin == 0.0

    def test_sorts_inputs(self):
        assert weak_majorization([1.0, 3.0], [3.0, 1.0]).passed


class TestHiroshimaCheck:
    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_instances_pass(self, seed):
        alpha = 2 + seed % 5  # 2..6
        h = block_instance(seed, alpha=alpha, n=1 + seed % 4)
        report = hiroshima_check(h)
        assert report.passed
        assert not report.warnings

    def test_counterexample_fails_with_warning(self):
        report = hiroshima_check(nonhermitian_counterexample())
        assert not report.passed
        sums = report.check("eigenvalue_partial_sums")
        assert sums.lhs[0] == pytest.approx(2.0, abs=1e-12)
        assert sums.rhs[0] == pytest.approx(1.0, abs=1e-12)
        assert report.check("trace_equality").passed
        assert report.warnings

    def test_single_block_supported_equality(self):
        delta = np.diag([2.0, 1.0])
        h = BlockMatrix(direct_sum(delta, np.zeros((2, 2))), block_dim=2, block_count=2)
        report = hiroshima_check(h)
        assert report.passed
        sums = report.check("eigenvalue_partial_sums")
        gaps = np.asarray(sums.rhs) - np.asarray(sums.lhs)
        assert np.abs(gaps).max() <= 1e-12  # equality at every partial sum

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
    def test_scale_equivariance(self, scale):
        for seed in range(6):
            base = block_instance(seed, alpha=3, n=2)
            scaled = BlockMatrix(base.data * scale, block_dim=2, block_count=3)
            assert hiroshima_check(scaled).passed == hiroshima_check(base).passed
        bad = nonhermitian_counterexample()
        scaled_bad = BlockMatrix(bad.data * scale, block_dim=2, block_count=2)
        assert not hiroshima_check(scaled_bad).passed

    @pytest.mark.parametrize("seed", range(6))
    def test_blockwise_unitary_invariance(self, seed):
        h = block_instance(seed, alpha=3, n=3)
        rng = np.random.default_rng(seed + 1000)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        big_q = np.kron(np.eye(3), q)
        conjugated = BlockMatrix(big_q @ h.data @ dagger(big_q), block_dim=3, block_count=3)
        assert hiroshima_check(conjugated).passed == hiroshima_check(h).passed
        rotated_delta = q @ partial_trace(h) @ dagger(q)
        assert frobenius(partial_trace(conjugated) - rotated_delta) <= 1e-10 * (
            1 + frobenius(h.data)
        )

    @pytest.mark.parametrize("seed", range(100))
    def test_fan_dominance_consistency(self, seed):
        """Partial-sum dominance agrees with every Ky Fan norm comparison
        against the zero-padded partial trace."""
        h = block_instance(seed, alpha=2 + seed % 3, n=1 + seed % 3)
        side = h.side
        padded = np.zeros((side, side), dtype=complex)
        delta = partial_trace(h)
        padded[: h.block_dim, : h.block_dim] = delta
        fan_ok = all(
            ky_fan_norm(h.data, k) <= ky_fan_norm(padded, k) + 1e-9 for k in range(1, side + 1)
        )
        assert hiroshima_check(h).passed == fan_ok


class TestEigenStepCheck:
    def test_geometric_mean_instance(self):
        report = eigen_step_check(geometric_mean_instance())
        check = report.check("stepped_eigenvalues")
        assert report.passed
        assert check.lhs[0] == pytest.approx(10.0, abs=1e-9)
        assert check.rhs[0] == pytest.approx(10.0, abs=1e-9)

    def test_single_nonzero_block_equality(self):
        h = BlockMatrix(direct_sum(np.diag([1.0]), np.zeros((1, 1))), block_dim=1, block_count=2)
        report = eigen_step_check(h)
        assert report.passed
        assert report.checks[0].margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_seeded_alpha_four(self, seed):
        h = block_instance(seed, alpha=4, n=2)
        assert eigen_step_check(h).passed

    def test_block_count_outside_two_to_four(self):
        for h in (BlockMatrix(np.eye(2), block_dim=2, block_count=1), block_instance(0, alpha=5, n=2)):
            with pytest.raises(ValueError, match=f"got {h.block_count}"):
                eigen_step_check(h)

    @pytest.mark.parametrize("alpha, step", [(2, 2), (3, 4), (4, 4)])
    def test_block_count_fixes_step(self, alpha, step):
        h = block_instance(alpha, alpha=alpha, n=3)
        lam = list(h.eigenvalues[::step]) + [0.0] * 3
        assert eigen_step_check(h).check("stepped_eigenvalues").lhs == tuple(lam[:3])


class TestDetSandwich:
    def test_identity_scalar_blocks(self):
        h = BlockMatrix(np.eye(2), block_dim=1, block_count=2)
        report = det_sandwich(h)
        upper = report.check("fisher_product_bound")
        lower = report.check("partial_trace_bound")
        assert (upper.rhs, upper.lhs, lower.lhs) == (4.0, 4.0, 3.0)
        assert report.passed

    def test_geometric_mean_values(self):
        report = det_sandwich(geometric_mean_instance())
        upper = report.check("fisher_product_bound")
        lower = report.check("partial_trace_bound")
        assert upper.rhs == pytest.approx(200.0, rel=1e-12)
        assert upper.lhs == pytest.approx(66.0, rel=1e-12)
        assert lower.lhs == pytest.approx(66.0, rel=1e-12)
        assert report.passed

    @pytest.mark.parametrize("seed", range(15))
    def test_seeded_beta_four(self, seed):
        assert det_sandwich(block_instance(seed, alpha=4, n=2)).passed

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_right_bound_follows_from_dominance(self, alpha, seed):
        h = block_instance(seed, alpha=alpha, n=2)
        if hiroshima_check(h).passed:
            assert det_sandwich(h).check("partial_trace_bound").passed
            assert trace_concave_check(
                h.data, direct_sum(partial_trace(h), np.zeros(((alpha - 1) * 2, (alpha - 1) * 2))), "log1p"
            ).passed


class TestTraceConcave:
    def test_equal_inputs_margin_zero(self):
        s = np.diag([1.0, 2.0])
        report = trace_concave_check(s, s, "log1p")
        assert report.passed
        assert report.checks[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_spread_dominates(self):
        report = trace_concave_check(np.diag([1.0, 1.0]), np.diag([2.0, 0.0]), "log1p")
        check = report.checks[0]
        assert check.rhs == pytest.approx(2 * np.log(2.0))
        assert check.lhs == pytest.approx(np.log(3.0))
        assert report.passed

    @pytest.mark.parametrize("fid", ["log1p", "sqrt", "pow_0.25", "pow_0.5", "pow_0.75", "min"])
    def test_catalog_on_seeded_instance(self, fid):
        h = block_instance(3, alpha=2, n=3)
        padded = np.zeros_like(h.data)
        padded[:3, :3] = partial_trace(h)
        report = trace_concave_check(h.data, padded, fid)
        assert report.passed
        assert not report.warnings

    def test_reads_the_hermitian_part(self):
        # M and M* share a Hermitian part but not a lower triangle
        m = np.triu(np.ones((3, 3)))
        t = np.diag([3.0, 0.0, 0.0])
        report = trace_concave_check(m, t, "log1p")
        assert report == trace_concave_check(m.conj().T, t, "log1p")
        assert report == trace_concave_check(0.5 * (m + m.T), t, "log1p")

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            trace_concave_check(np.eye(2), np.eye(2), "cube")

    @pytest.mark.parametrize("which", ["s", "t"])
    def test_non_square_argument_is_the_kernels_usage_error(self, which):
        args = {"s": np.eye(3), "t": np.eye(3), which: np.ones((3, 2))}
        with pytest.raises(DomainError, match="^matrix must be square, got 3x2$"):
            trace_concave_check(args["s"], args["t"], "log1p")

    def test_weak_only_is_advisory(self):
        # traces differ: premise only weakly holds
        report = trace_concave_check(np.diag([1.0]), np.diag([5.0]), "log1p")
        assert report.warnings

    def test_broken_premise_is_advisory(self):
        report = trace_concave_check(np.diag([5.0]), np.diag([1.0]), "log1p")
        assert report.warnings


class TestWeylCheck:
    def test_identity_equality(self):
        report = weyl_check(np.eye(2), np.eye(2), 0, 0)
        assert report.passed
        assert report.checks[0].margin == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_diagonals(self):
        report = weyl_check(np.diag([3.0, 0.0]), np.diag([0.0, 3.0]), 0, 0)
        check = report.checks[0]
        assert check.lhs == pytest.approx(3.0)
        assert check.rhs == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(200))
    def test_seeded_pairs_all_offsets(self, seed):
        m = 2 + seed % 4
        y = random_hermitian(m, 2 * seed)
        z = random_hermitian(m, 2 * seed + 1)
        for r in range(m):
            for s in range(m - r):
                assert weyl_check(y, z, r, s).passed

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            weyl_check(np.eye(2), np.eye(2), 1, 1)
        with pytest.raises(ValueError):
            weyl_check(np.eye(2), np.eye(2), -1, 0)


class TestOperatorPairCheck:
    def test_zero_s_collapses(self):
        t = random_hermitian(3, 5)
        report = operator_pair_check(t, [np.zeros((3, 3))])
        assert report.passed
        assert report.check("eigenvalue_partial_sums").margin == pytest.approx(0.0, abs=1e-12)

    def test_identity_pair(self):
        report = operator_pair_check(np.eye(2), [np.eye(2)])
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["eigenvalue_partial_sums", "trace_equality", "stepped_eigenvalues", "gram_spectrum"]
        assert report.check("eigenvalue_partial_sums").margin == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_beta_two(self, seed):
        t = random_hermitian(4, 3 * seed)
        s = random_hermitian(4, 3 * seed + 1)
        report = operator_pair_check(t, [s])
        assert report.passed
        gram = report.check("gram_spectrum")
        assert gram.passed

    @pytest.mark.parametrize("beta", [3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_commuting_families(self, beta, seed):
        n = 2 + seed % 3
        t = random_hermitian(n, 7 * seed)
        family = random_commuting_family(beta, n, 7 * seed + 1)
        assert operator_pair_check(t, family).passed

    def test_commutation_required(self):
        # T invertible: T S_s S_t T is Hermitian only if S_s and S_t commute
        t = random_hermitian(3, 0)
        assert np.abs(hermitian_eigvalues(t)).min() > 1e-3
        family = [random_hermitian(3, k) for k in (1, 2, 3)]
        with pytest.raises(HypothesisError, match="not Hermitian at"):
            operator_pair_check(t, family)

    def test_singular_t_admits_non_commuting_family(self):
        # T S_s S_t T keeps only the (1,1) entry of S_s S_t: a real scalar
        t = np.diag([1.0, 0.0])
        family = [np.array(m, dtype=float) for m in ([[1, 2], [2, 0]], [[0, 1], [1, 3]], [[2, -1], [-1, 1]])]
        assert not np.allclose(family[0] @ family[1], family[1] @ family[0])
        report = operator_pair_check(t, family)
        assert report.passed
        assert report.check("gram_spectrum").passed

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
    def test_gram_spectrum_at_any_scale(self, scale):
        # the padded zeros of Y* Y meet eigenvalues of Y Y* that are zero
        # only up to rounding of ||Y||_2^2, so the item is judged at that scale
        report = operator_pair_check(scale * random_hermitian(4, 0), [random_hermitian(4, 1)])
        assert report.check("gram_spectrum").passed
        assert report.passed

    def test_family_size_checked(self):
        t = random_hermitian(2, 0)
        for size in (0, 2, 5):
            with pytest.raises(ValueError, match=f"got {size}"):
                operator_pair_check(t, [t] * size)


class TestReportConventions:
    def test_equality_counts_as_pass(self):
        report = weak_majorization([1.0, 1.0], [1.0, 1.0])
        assert report.passed

    def test_json_shape(self):
        h = block_instance(1, alpha=2, n=2)
        obj = report_to_json(run_inequality_suite(h))
        assert set(obj) == {"tolerance", "checks", "passed", "warnings"}
        assert obj["passed"] is True
        names = [c["name"] for c in obj["checks"]]
        assert "eigenvalue_partial_sums" in names
        assert "trace_concave_log1p" in names
        for item in obj["checks"]:
            assert set(item) == {"name", "lhs", "rhs", "margin", "passed"}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_side_is_numerical_error(self, bad):
        for lhs, rhs in ((bad, 1.0), (1.0, bad), ([0.0, bad], [1.0, 1.0]), ([0.0, 1.0], [bad, 1.0])):
            with pytest.raises(NumericalError):
                compare_le("x", lhs, rhs)
            with pytest.raises(NumericalError):
                compare_eq("x", lhs, rhs)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("partial_sums", lambda: weak_majorization([1e308] * 2, [1e308] * 2)),
            ("eigenvalue_partial_sums", lambda: hiroshima_check(BlockMatrix(np.diag([1e308, 0, 0, 1e308]), 2, 2))),
            ("_premise", lambda: trace_concave_check(np.diag([1e308] * 2), np.diag([1e308] * 2), "log1p")),
            ("eigenvalue_partial_sums", lambda: operator_pair_check(np.diag([1e154] * 2), [np.zeros((2, 2))])),
        ],
        ids=["weak_majorization", "hiroshima", "trace_concave", "operator_pair"],
    )
    def test_overflowing_partial_sums_are_numerical_error(self, name, call):
        # finite values whose partial sums pass the float limit: no numpy warning
        with pytest.raises(NumericalError, match=f"check '{name}' has a non-finite side"):
            call()

    @pytest.mark.parametrize(
        "lhs, rhs",
        [(-1.5e308, 1.5e308), (1.5e308, -1.5e308), ([0.0, 1.5e308], [1.0, -1.5e308])],
        ids=["positive", "negative", "vector"],
    )
    def test_overflowing_margin_is_numerical_error(self, lhs, rhs):
        # finite sides whose difference passes the float limit: no numpy
        # warning, and no infinite margin for a report to hold
        for compare in (compare_le, compare_eq):
            with pytest.raises(NumericalError, match="check 'x' has a margin beyond the float range"):
                compare("x", lhs, rhs)

    def test_one_overflowing_component_is_numerical_error(self):
        # the least margin is finite, but lhs - rhs overflows in the first
        # component: an excess that is not finite is never judged
        with pytest.raises(NumericalError, match="cannot judge an excess of -inf"):
            compare_le("x", [-1.5e308, 0.0], [1.5e308, 1.0])

    def test_undecided_component_names_the_check_and_its_scale(self):
        with pytest.raises(NumericalError) as exc:
            compare_le("x", [-1.5e308, 0.0], [1.5e308, 1.0])
        assert str(exc.value).startswith("x at scale 1.500000e+308: cannot judge an excess of -inf against a slack of ")

    @pytest.mark.parametrize(
        "lhs, rhs",
        [(1.0, 1.0 + 1e-9), (2.0, 1.0), (-3.0, 1e-12), ([1.0, 2.0, 0.0], [1.0, 1.5, 1e-11]), ([1e150, -1e-150], [1e150, 0.0])],
    )
    def test_stated_default_scale_is_the_default(self, lhs, rhs):
        scale = np.maximum(np.abs(lhs), np.abs(rhs))
        assert compare_le("x", lhs, rhs, scale=scale) == compare_le("x", lhs, rhs)
        assert compare_eq("x", lhs, rhs, scale=scale) == compare_eq("x", lhs, rhs)

    def test_stated_scale_decides(self):
        # 1e-9 above 0 is past the slack at scale 1e-9, inside it at scale 1e3
        assert not compare_le("x", 1e-9, 0.0).passed
        item = compare_le("x", 1e-9, 0.0, scale=1e3)
        assert item.passed and item.margin == -1e-9 and (item.lhs, item.rhs) == (1e-9, 0.0)
        assert not compare_eq("x", 0.0, 1e-9).passed
        assert compare_eq("x", 0.0, 1e-9, scale=1e3).passed

    def test_compare_eq_takes_a_scale_per_component(self):
        assert compare_eq("x", [1.0, 1e-9], [1.0, 0.0], scale=np.array([1.0, 1e3])).passed
        assert not compare_eq("x", [1.0, 1e-9], [1.0, 0.0], scale=np.array([1e3, 0.0])).passed

    def test_tolerance_override(self):
        strict = Tolerance(atol=0.0, rtol=0.0)
        report = weak_majorization([1.0 + 1e-12], [1.0], strict)
        assert not report.passed

    def test_suite_on_counterexample_fails(self):
        report = run_inequality_suite(nonhermitian_counterexample())
        assert not report.passed
        assert report.warnings

    @pytest.mark.parametrize("seed", range(8))
    def test_suite_passes_on_generated(self, seed):
        alpha = 2 + seed % 3
        report = run_inequality_suite(block_instance(seed, alpha=alpha, n=2))
        assert report.passed

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_suite_eigensolves_each_matrix_once(self, alpha, monkeypatch):
        # H and its partial trace once each, then every diagonal block once
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            shapes.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert run_inequality_suite(block_instance(alpha, alpha=alpha, n=2)).passed
        assert shapes == [(2 * alpha, 2 * alpha), (2, 2)] + [(2, 2)] * alpha

    @pytest.mark.parametrize("alpha", [2, 3, 4, 5])
    def test_suite_equals_its_checks_on_fresh_instances(self, alpha):
        h = block_instance(alpha, alpha=alpha, n=3)
        fresh = block_instance(alpha, alpha=alpha, n=3)
        expected = hiroshima_check(fresh).merged_with(det_sandwich(fresh))
        if alpha <= 4:
            expected = expected.merged_with(eigen_step_check(fresh))
        expected = expected.merged_with(
            trace_concave_check(fresh.data, partial_trace(fresh), "log1p")
        )
        assert report_to_json(run_inequality_suite(h)) == report_to_json(expected)

    def test_equality_case_margin_zero_at_rank(self):
        h = equality_case_instance(3, 5)
        report = hiroshima_check(h)
        sums = report.check("eigenvalue_partial_sums")
        # H has rank at most n, so the n-th partial sum already reaches the trace
        gap = np.asarray(sums.rhs) - np.asarray(sums.lhs)
        assert gap[2] == pytest.approx(0.0, abs=1e-9)
