"""Decomposition tests: corner routes, two-isometry average, quaternion
pipeline stages, certificate verification and serialization."""

import functools
import json
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import interleave_permutation, random_hermitian, random_psd, two_block_congruence

import psdblocks.decompose as decompose_module
from psdblocks import (
    BlockMatrix,
    DEFAULT_TOL,
    DecompositionCertificate,
    DomainError,
    GeneratorSpec,
    HypothesisError,
    MalformedCertificateError,
    NumericalError,
    Tolerance,
    certificate_from_json,
    certificate_to_json,
    corner_decomposition_general,
    corner_unitary,
    dagger,
    direct_sum,
    duplicate_blocks,
    frobenius,
    geometric_mean_instance,
    get_block,
    hermitian_eigvalues,
    measure_defects,
    nonhermitian_counterexample,
    partial_trace,
    psd_sqrt,
    quaternion_pipeline,
    quaternion_stage_defects,
    quaternion_units,
    random_block_psd,
    two_block_isometries,
    two_corner_decomposition,
    validate_hermitian_blocks,
    verify_certificate,
)


def embed(block, side, offset):
    out = np.zeros((side, side), dtype=complex)
    k = block.shape[0]
    out[offset : offset + k, offset : offset + k] = block
    return out


def block_instance(seed, alpha, n, rank=3):
    return random_block_psd(GeneratorSpec(seed=seed, alpha=alpha, n=n, rank=rank))


def dense_stage_defects(phi, omega, d):
    """``(equal, skew)`` by definition: the largest ``||phi_kk - d||_F`` and
    the largest ``||B + B*||_F`` over the off-diagonal blocks B of omega."""
    w = d.shape[0]

    def blk(m, s, t):
        return m[s * w : (s + 1) * w, t * w : (t + 1) * w]

    equal = max(frobenius(blk(phi, k, k) - d) for k in range(4))
    skew = max(frobenius(blk(omega, s, t) + dagger(blk(omega, s, t))) for s in range(4) for t in range(4) if s != t)
    return equal, skew


class TestQuaternionUnits:
    def test_exact_values(self):
        one, i, j, k = quaternion_units()
        assert np.array_equal(one, np.eye(2))
        assert np.array_equal(i, np.array([[1j, 0], [0, -1j]]))
        assert np.array_equal(j, np.array([[0, 1j], [1j, 0]]))
        assert np.array_equal(k, np.array([[0, -1], [1, 0]]))

    def test_square_identities_exact(self):
        one, i, j, k = quaternion_units()
        minus = -one
        assert np.array_equal(i @ i, minus)
        assert np.array_equal(j @ j, minus)
        assert np.array_equal(k @ k, minus)
        assert np.array_equal(i @ j @ k, minus)

    def test_cross_products_skew_hermitian_exact(self):
        units = quaternion_units()
        for s, es in enumerate(units):
            for t, et in enumerate(units):
                if s == t:
                    continue
                prod = es @ dagger(et)
                assert np.array_equal(prod, -dagger(prod))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inflated_blocks_are_unitary(self, n):
        for u in quaternion_units():
            e = np.kron(u, np.eye(n))
            assert np.array_equal(dagger(e) @ e, np.eye(2 * n))


class TestCornerUnitary:
    def test_basis_column_slot_one(self):
        m = np.array([[1.0], [0.0]], dtype=complex)
        u = corner_unitary(m, 0)
        target = m @ dagger(m)
        assert frobenius(target - u @ embed(dagger(m) @ m, 2, 0) @ dagger(u)) <= 1e-12

    def test_basis_column_needs_routing(self):
        m = np.array([[0.0], [1.0]], dtype=complex)
        u = corner_unitary(m, 0)
        assert frobenius(dagger(u) @ u - np.eye(2)) <= 1e-12
        recon = u @ embed(dagger(m) @ m, 2, 0) @ dagger(u)
        assert frobenius(m @ dagger(m) - recon) <= 1e-12

    @pytest.mark.parametrize(
        "seed, inner",
        [pytest.param(seed, 3, id=str(seed)) for seed in range(10)]
        + [pytest.param(10, 1, id="rank_one")],
    )
    def test_seeded_tall_factor(self, seed, inner):
        # inner = 1 builds the rank-one factor x @ y
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, inner)) + 1j * rng.standard_normal((6, inner))
        y = np.eye(3) if inner == 3 else rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        m = x @ y / np.sqrt(2)
        offset = int(rng.integers(0, 4))
        u = corner_unitary(m, offset)
        assert frobenius(dagger(u) @ u - np.eye(6)) <= 1e-9
        recon = u @ embed(dagger(m) @ m, 6, offset) @ dagger(u)
        assert frobenius(m @ dagger(m) - recon) <= 1e-9

    def test_offset_bounds(self):
        with pytest.raises(ValueError):
            corner_unitary(np.ones((3, 2)), 2)


class TestTwoCornerDecomposition:
    def test_block_diagonal_input(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        cert = two_corner_decomposition(h, 2, 3)
        assert cert.defects["reconstruction"] <= 1e-12
        assert max(cert.defects["isometry"]) <= 1e-12

    def test_rank_one_witness(self):
        cert = two_corner_decomposition(nonhermitian_counterexample().data, 2, 2)
        assert cert.defects["reconstruction"] <= 1e-12
        assert np.allclose(cert.cores[0], np.diag([1.0, 0.0]))
        assert np.allclose(cert.cores[1], np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        rank = int(rng.integers(1, n + m + 1))
        h = random_psd(n + m, rank=rank, seed=seed)
        cert = two_corner_decomposition(h, n, m)
        assert cert.defects["reconstruction"] <= 1e-9 * (1 + frobenius(h))
        assert max(cert.defects["isometry"]) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            two_corner_decomposition(np.diag([1.0, -1.0]), 1, 1)

    def test_unequal_widths(self):
        h = random_psd(7, rank=4, seed=77)
        cert = two_corner_decomposition(h, 2, 5)
        assert cert.slots == (2, 5)
        assert cert.defects["reconstruction"] <= 1e-9 * (1 + frobenius(h))

    def test_certificate_owns_its_target(self):
        # a writable input is copied: mutating it afterwards leaves the certificate valid
        a = np.array(block_instance(3, alpha=2, n=3).data)
        cert = two_corner_decomposition(a, 3, 3)
        assert cert.target is not a and not np.shares_memory(cert.target, a)
        a[0, 0] += 1
        assert verify_certificate(cert).passed

    def test_read_only_instance_data_is_not_copied(self):
        h = block_instance(3, alpha=2, n=3)
        assert corner_decomposition_general(h).target is h.data
        assert two_block_isometries(h).target is h.data


class TestCornerDecompositionGeneral:
    def test_block_diagonal_input(self):
        data = np.diag(np.arange(1.0, 9.0))
        h = BlockMatrix(data, block_dim=2, block_count=4)
        cert = corner_decomposition_general(h)
        assert cert.defects["reconstruction"] <= 1e-12

    def test_alpha_two_consistent_with_two_corner(self):
        h = block_instance(5, alpha=2, n=3)
        general = corner_decomposition_general(h)
        pair = two_corner_decomposition(h.data, 3, 3)
        assert general.defects["reconstruction"] <= 1e-10 * (1 + frobenius(h.data))
        assert pair.defects["reconstruction"] <= 1e-10 * (1 + frobenius(h.data))
        for g, p in zip(general.cores, pair.cores, strict=True):
            assert np.allclose(g, p, atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_alpha_four(self, seed):
        h = block_instance(seed, alpha=4, n=2)
        cert = corner_decomposition_general(h)
        assert cert.defects["reconstruction"] <= 1e-9 * (1 + frobenius(h.data))
        assert max(cert.defects["isometry"]) <= 1e-10

    def test_accepts_non_hermitian_blocks(self):
        cert = corner_decomposition_general(nonhermitian_counterexample())
        assert cert.defects["reconstruction"] <= 1e-12

    def test_rejects_non_hermitian_data(self):
        # blocks are 1x1 (trivially Hermitian) but the matrix is not
        h = BlockMatrix(np.array([[1.0, 0.5], [0.7, 1.0]]), block_dim=1, block_count=2)
        with pytest.raises(DomainError):
            corner_decomposition_general(h)


class TestTwoBlockCongruence:
    @pytest.mark.parametrize("seed", range(20))
    def test_diagonal_blocks_average(self, seed):
        h = block_instance(seed, alpha=2, n=3)
        w = two_block_congruence(h.block_dim)
        k = dagger(w) @ h.data @ w
        n = h.block_dim
        half_sum = np.asarray(get_block(h, 1, 1) + get_block(h, 2, 2)) / 2.0
        scale = 1 + frobenius(h.data)
        assert frobenius(k[:n, :n] - half_sum) <= 1e-12 * scale
        assert frobenius(k[n:, n:] - half_sum) <= 1e-12 * scale
        assert frobenius(dagger(w) @ w - np.eye(2 * n)) <= 1e-12


class TestTwoBlockIsometries:
    def test_scalar_identity_blocks(self):
        h = BlockMatrix(np.eye(2), block_dim=1, block_count=2)
        cert = two_block_isometries(h)
        u, v = cert.factors
        # u u* + v v* must rebuild I2 since the core is the scalar 2
        assert frobenius(np.outer(u[:, 0], u[:, 0].conj()) + np.outer(v[:, 0], v[:, 0].conj()) - np.eye(2)) <= 1e-12
        assert cert.defects["reconstruction"] <= 1e-12

    def test_geometric_mean_witness(self):
        h = geometric_mean_instance()
        cert = two_block_isometries(h)
        assert cert.defects["reconstruction"] <= 1e-12
        assert np.allclose(hermitian_eigvalues(h.data), [10.0, 5.0, 0.0, 0.0], atol=1e-9)
        assert all(np.allclose(core, np.diag([5.0, 10.0])) for core in cert.cores)
        assert cert.factors[0].shape == (4, 2)

    @pytest.mark.parametrize("seed", range(100))
    def test_seeded_reconstruction(self, seed):
        h = block_instance(seed, alpha=2, n=1 + seed % 6)
        cert = two_block_isometries(h)
        assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h.data))
        assert max(cert.defects["isometry"]) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_factors_match_dense_reference(self, seed):
        # full rank, so each column half of sqrt(H) W has a unique polar factor
        n = 1 + seed % 5
        h = block_instance(seed, alpha=2, n=n, rank=2 * n)
        cert = two_block_isometries(h)
        x = psd_sqrt(h.data) @ two_block_congruence(h.block_dim)
        scale = 1 + frobenius(h.data)
        for f, half in zip(cert.factors, (x[:, :n], x[:, n:])):
            left, _, right_h = np.linalg.svd(half, full_matrices=False)
            assert frobenius(f - left @ right_h) <= 1e-12 * scale

    def test_rejects_three_by_three_partition(self):
        with pytest.raises(ValueError, match="exactly 2x2 blocks"):
            two_block_isometries(block_instance(0, alpha=3, n=2))

    def test_rejects_non_hermitian_blocks(self):
        with pytest.raises(HypothesisError):
            two_block_isometries(nonhermitian_counterexample())

    def test_rejects_indefinite(self):
        x = np.eye(2) * 5.0
        data = np.block([[np.eye(2), x], [x, np.eye(2)]])
        with pytest.raises(DomainError):
            two_block_isometries(BlockMatrix(data, block_dim=2, block_count=2))


class TestQuaternionPipeline:
    def test_identity_four_blocks(self):
        h = BlockMatrix(np.eye(4), block_dim=1, block_count=4)
        _, cert = quaternion_pipeline(h, beta=4)
        # core is 4*I2, so the factors resolve the identity on C^8
        acc = sum(f @ dagger(f) for f in cert.factors)
        assert frobenius(acc - np.eye(8)) <= 1e-12
        assert cert.defects["reconstruction"] <= 1e-12

    @pytest.mark.parametrize("seed", range(25))
    def test_stage_invariants_beta_four(self, seed):
        h = block_instance(seed, alpha=4, n=1 + seed % 3)
        blocks, cert = quaternion_pipeline(h, beta=4)
        equal, skew = quaternion_stage_defects(blocks, cert)
        scale = 1 + frobenius(h.data)
        assert skew <= 1e-9 * scale
        assert equal <= 1e-9 * scale
        assert cert.defects["reconstruction"] <= 1e-8 * scale
        assert max(cert.defects["isometry"]) <= 1e-9
        n = h.block_dim
        assert all(f.shape == (8 * n, 2 * n) for f in cert.factors)

    def test_stage_defects_match_blockwise_definition(self):
        # random blocks are no construction's, so both stage identities
        # break and the defects are far from zero; omega is formed densely
        # as R2 phi R2 with R2 = kron(signs, I)/2
        _, cert = quaternion_pipeline(block_instance(5, alpha=4, n=2), beta=4)
        rng = np.random.default_rng(12)
        blocks = [rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4)) for _ in range(4)]
        x = np.hstack(blocks)
        phi = dagger(x) @ x
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        r2 = np.kron(signs, np.eye(4)) / 2.0
        expected = dense_stage_defects(phi, r2 @ phi @ r2, cert.cores[0] / 4.0)
        measured = quaternion_stage_defects(blocks, cert)
        assert measured == pytest.approx(expected, rel=1e-12)
        assert min(measured) > 1.0

    @pytest.mark.parametrize(
        "alpha, beta", [(3, 3), (4, 4), (3, 4)], ids=["beta3", "beta4", "beta4_padded"]
    )
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stages_match_dense_reference(self, alpha, beta, n):
        # M = R2 W P built densely: P the interleave permutation (whose
        # conjugation is duplicate_blocks), W the inflated units, R2 the signs
        h = block_instance(7 + n, alpha=alpha, n=n)
        blocks, cert = quaternion_pipeline(h, beta=beta)
        pad = (0, (4 - alpha) * n)
        padded = BlockMatrix(np.pad(h.data, pad), block_dim=n, block_count=4)
        doubled = direct_sum(padded.data, padded.data)
        p = np.zeros((8 * n, 8 * n))
        p[interleave_permutation(4, n), np.arange(8 * n)] = 1.0
        g = p @ doubled @ p.T
        assert np.array_equal(g, duplicate_blocks(padded).data)
        w = functools.reduce(direct_sum, [np.kron(u, np.eye(n)) for u in quaternion_units()])
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        r2 = np.kron(signs, np.eye(2 * n)) / 2.0
        m = r2 @ w @ p
        assert frobenius(m @ dagger(m) - np.eye(8 * n)) <= 1e-12
        scale = 1 + frobenius(h.data)
        # sqrt(padded H (+) padded H) is the direct sum of the padded roots;
        # x keeps beta*n rows of each copy
        root = np.pad(psd_sqrt(h.data), pad)
        x = (direct_sum(root, root) @ dagger(m)).reshape(2, 4 * n, 8 * n)[:, : beta * n].reshape(-1, 8 * n)
        assert frobenius(np.hstack(blocks) - x) <= 1e-12 * scale
        # both stage defects, measured on the dense phi = M (H (+) H) M* and omega = W G W*
        expected = dense_stage_defects(m @ doubled @ dagger(m), w @ g @ dagger(w), cert.cores[0] / 4.0)
        assert quaternion_stage_defects(blocks, cert) == pytest.approx(expected, abs=1e-12 * scale)

    @pytest.mark.parametrize("seed", range(25))
    def test_beta_three_trims_to_six_n(self, seed):
        n = 1 + seed % 3
        h = block_instance(seed, alpha=3, n=n)
        _, cert = quaternion_pipeline(h, beta=3)
        assert all(f.shape == (6 * n, 2 * n) for f in cert.factors)
        assert np.array_equal(cert.target, direct_sum(h.data, h.data))
        assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h.data))
        assert max(cert.defects["isometry"]) <= 1e-9

    def test_beta_three_zero_matrix(self):
        h = BlockMatrix(np.zeros((6, 6)), block_dim=2, block_count=3)
        _, cert = quaternion_pipeline(h, beta=3)
        assert max(cert.defects["isometry"]) <= 1e-9
        assert cert.defects["reconstruction"] <= 1e-12

    def test_beta_three_singular_partial_trace(self):
        # T singular and diagonal commuting factors force ker(Delta) != 0
        t = np.diag([1.0, 0.0]).astype(complex)
        family = [np.diag(d).astype(complex) for d in ([0.5, 2.0], [-1.0, 1.0], [2.0, 0.3])]
        stack = np.vstack([t @ s for s in family])
        h = BlockMatrix(stack @ dagger(stack), block_dim=2, block_count=3)
        delta = partial_trace(h)
        assert hermitian_eigvalues(delta)[-1] <= 1e-12
        _, cert = quaternion_pipeline(h, beta=3)
        assert max(cert.defects["isometry"]) <= 1e-9
        assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h.data))

    def test_beta_four_pads_three_blocks(self):
        h = block_instance(11, alpha=3, n=2)
        _, cert = quaternion_pipeline(h, beta=4)
        assert cert.factors[0].shape == (16, 4)
        assert cert.target.shape == (16, 16)
        assert cert.defects["reconstruction"] <= 1e-8 * (1 + frobenius(h.data))

    def test_parameter_validation(self):
        h = block_instance(0, alpha=4, n=1)
        with pytest.raises(ValueError, match="^beta must be 3 or 4$"):
            quaternion_pipeline(h, beta=5)
        with pytest.raises(ValueError):
            quaternion_pipeline(h, beta=3)  # beta=3 needs alpha=3
        two = block_instance(0, alpha=2, n=1)
        for beta in (4, 5):  # the partition is named before the beta
            with pytest.raises(ValueError, match="^partition must have 3 or 4 block rows, got 2$"):
                quaternion_pipeline(two, beta)

    def test_rejects_non_hermitian_blocks(self):
        data = np.zeros((6, 6), dtype=complex)
        v = np.array([1.0, 0, 0, 0, 0, 1.0])
        data += np.outer(v, v)
        h = BlockMatrix(data, block_dim=2, block_count=3)
        with pytest.raises(HypothesisError):
            quaternion_pipeline(h, beta=3)

    def test_rejects_indefinite(self):
        x = 9.0 * np.eye(2)
        data = np.block(
            [
                [np.eye(2), x, np.zeros((2, 2))],
                [x, np.eye(2), np.zeros((2, 2))],
                [np.zeros((2, 4)), np.eye(2)],
            ]
        )
        with pytest.raises(DomainError):
            quaternion_pipeline(BlockMatrix(data, block_dim=2, block_count=3), beta=3)


@pytest.mark.parametrize("beta", [2, 3, 4])
def test_rank_deficient_mid_size_round_trip(beta):
    # rank 3 at n = 16: most singular values behind each polar factor vanish
    n = 16
    h = block_instance(40 + beta, alpha=beta, n=n, rank=3)
    if beta == 2:
        cert = two_block_isometries(h)
        shape = (2 * n, n)
    else:
        _, cert = quaternion_pipeline(h, beta=beta)
        shape = (2 * beta * n, 2 * n)
    assert all(f.shape == shape for f in cert.factors)
    back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
    assert verify_certificate(back).passed


def near_violation(seed, alpha, n, multiple):
    """A generated rank-3 instance whose block (1, 2) gains a skew-Hermitian
    E and block (2, 1) ``E* = -E``, with ``||2E||_F``, each block's defect,
    ``multiple`` times the Hermitian-block slack: H stays Hermitian and,
    below 1x, inside the hypothesis."""
    h = block_instance(seed, alpha, n)
    skew = 1j * random_hermitian(n, seed)
    skew *= multiple * DEFAULT_TOL.slack(frobenius(h.data)) / frobenius(2 * skew)
    data = h.data.copy()
    data[:n, n : 2 * n] += skew
    data[n : 2 * n, :n] -= skew
    return BlockMatrix(data, block_dim=n, block_count=alpha)


def column_blocks(h, kind):
    """The certificate of ``kind`` on h, and the column blocks ``X_k`` of
    ``sqrt(target) C`` whose polar factors are its factors."""
    if kind == "two_block_isometry":
        r1, r2 = np.hsplit(psd_sqrt(h.data), 2)
        c = 1 / np.sqrt(2.0)
        return two_block_isometries(h), (r1 * (-1j * c) + r2 * c, r1 * (1j * c) + r2 * c)
    if kind == "corner_general":
        return corner_decomposition_general(h), np.hsplit(psd_sqrt(h.data), h.block_count)
    blocks, cert = quaternion_pipeline(h, beta=int(kind[-1]))
    return cert, blocks


def lapack_counts(calls):
    return dict(Counter(name for name, _ in calls))


class TestGramRoute:
    """Factor k is ``X_k (weight core_k)^(-1/2)`` from one ``eigh`` per
    distinct core; a core that is not positive definite, or a certificate
    outside its bounds, sends the construction to the thin-SVD polar factor."""

    @pytest.mark.parametrize(
        "alpha, n, kind",
        [(2, 64, "two_block_isometry"), (3, 32, "quaternion_b3"), (4, 32, "quaternion_b4"), (4, 16, "corner_general")],
    )
    def test_factors_are_the_svd_polar_factors(self, alpha, n, kind, lapack_calls):
        cert, blocks = column_blocks(block_instance(18, alpha, n), kind)
        assert "svd" not in lapack_counts(lapack_calls)  # the Gram route built them
        for f, x in zip(cert.factors, blocks, strict=True):
            assert frobenius(f - decompose_module._polar(x)) <= 1e-12

    @pytest.mark.parametrize(
        "alpha, n, build",
        [
            (2, 32, two_block_isometries),
            (3, 16, lambda h: quaternion_pipeline(h, beta=3)[1]),
            (4, 16, lambda h: quaternion_pipeline(h, beta=4)[1]),
        ],
        ids=["two_block", "quaternion_b3", "quaternion_b4"],
    )
    def test_generated_instance_takes_two_eigensolves(self, alpha, n, build, lapack_calls):
        # one of H in psd_sqrt, one of the shared core; no SVD
        h = block_instance(5, alpha, n)
        lapack_calls.clear()
        assert verify_certificate(build(h)).passed
        assert lapack_counts(lapack_calls) == {"eigh": 2}

    @pytest.mark.parametrize("alpha, n", [(2, 64), (2, 16), (4, 64)])
    @pytest.mark.parametrize("multiple", [0.5, 0.9])
    def test_near_violation_falls_back_to_svds(self, alpha, n, multiple, lapack_calls):
        # the skew inside the slack costs the Gram route an isometry defect
        # past its bound, divided by the core's smallest eigenvalue; the SVD
        # route keeps it in the reconstruction, whose bound is larger
        h = near_violation(180 + n, alpha, n, multiple)
        assert validate_hermitian_blocks(h) == ()
        kind = "two_block_isometry" if alpha == 2 else "quaternion_b4"
        cert, blocks = column_blocks(h, kind)
        assert verify_certificate(cert).passed
        counts = lapack_counts(lapack_calls)
        assert counts["svd"] == len(cert.factors)
        mu, q = np.linalg.eigh(float(cert.weight) * cert.cores[0])  # the shared core
        gram = replace(cert, factors=tuple(x @ (q / np.sqrt(mu)) @ dagger(q) for x in blocks))
        report = verify_certificate(gram)
        assert not report.passed and report.check("reconstruction_defect").passed

    @pytest.mark.parametrize("alpha, n, seed", [(2, 128, 14), (4, 64, 26)])
    def test_ill_conditioned_core_falls_back_to_svds(self, alpha, n, seed, lapack_calls):
        # gen --rank 1: the partial trace T (sum S_i^2) T squares the
        # conditioning of a Gaussian T; these seeds put it past 1e8
        h = block_instance(seed, alpha, n, rank=1)
        spectrum = h.partial_trace_eigenvalues
        assert spectrum[-1] > 0 and spectrum[0] / spectrum[-1] > 1e8
        cert = two_block_isometries(h) if alpha == 2 else quaternion_pipeline(h, beta=4)[1]
        assert verify_certificate(cert).passed
        assert lapack_counts(lapack_calls)["svd"] == len(cert.factors)

    @pytest.mark.parametrize("alpha", [2, 4])
    def test_singular_core_falls_back_to_svds(self, alpha, lapack_calls):
        # rank-one H = (c c^T) (x) (w w*) with Hermitian blocks: its core is
        # rank one, so its smallest eigenvalue is not positive
        rng = np.random.default_rng(12 + alpha)
        c, w = rng.standard_normal(alpha), rng.standard_normal(32) + 1j * rng.standard_normal(32)
        h = BlockMatrix(np.kron(np.outer(c, c), np.outer(w, w.conj())), block_dim=32, block_count=alpha)
        cert = two_block_isometries(h) if alpha == 2 else quaternion_pipeline(h, beta=4)[1]
        assert verify_certificate(cert).passed
        assert lapack_counts(lapack_calls) == {"eigh": 2, "svd": len(cert.factors)}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_looser_tolerance_still_passes_default_verify(self, seed):
        # judged under rtol 1e-6 alone, the Gram factors here keep isometry
        # defects of about 7e-8, past the default bound of 1.01e-8
        cert = two_block_isometries(near_violation(seed, 2, 64, 0.5), Tolerance(atol=1e-10, rtol=1e-6))
        assert verify_certificate(cert).passed

    def test_fallback_is_judged_under_the_callers_tolerance(self, lapack_calls):
        # the Gram certificate meets the default bounds, but no exact ones
        h = block_instance(5, 2, 8)
        corner_decomposition_general(h)
        assert lapack_counts(lapack_calls) == {"eigh": 3}
        lapack_calls.clear()
        corner_decomposition_general(h, Tolerance(atol=0.0, rtol=0.0))
        assert lapack_counts(lapack_calls) == {"eigh": 3, "svd": 2}


def padded_sorted(values, length):
    out = np.zeros(length)
    out[: values.size] = np.sort(values)[::-1]
    return out


class TestCertificates:
    def fresh(self, seed=4):
        h = block_instance(seed, alpha=2, n=3)
        return h, two_block_isometries(h)

    def test_verify_round_trip_passes(self):
        _, cert = self.fresh()
        assert verify_certificate(cert).passed

    def test_defect_is_judged_against_its_bound_alone(self):
        # the bound is the slack: a defect above it fails, with no second slack on top
        _, cert = self.fresh(seed=1)
        report = verify_certificate(cert, Tolerance(atol=3.81e-15, rtol=0.0))
        item = report.check("reconstruction_defect")
        assert item.rhs == 3.81e-15
        assert item.lhs > item.rhs and item.margin < 0
        assert not item.passed and not report.passed
        for item in report.checks:
            assert item.passed == (item.lhs <= item.rhs)

    def test_undecided_defect_names_its_check_and_scale(self):
        # ||target||_F past the float range makes the reconstruction bound inf
        huge = SimpleNamespace(target=np.full((2, 2), 1.5e308))
        with pytest.raises(NumericalError) as exc:
            decompose_module._judged(huge, {"reconstruction": 0.0, "isometry": [0.0]}, DEFAULT_TOL)
        assert str(exc.value) == "reconstruction_defect at scale inf: cannot judge an excess of 0.000000e+00 against a slack of inf: not finite"

    def test_zeroed_factor_column_fails_isometry(self):
        _, cert = self.fresh()
        broken_factor = cert.factors[0].copy()
        broken_factor[:, 0] = 0.0
        broken = replace(cert, factors=(broken_factor, cert.factors[1]))
        report = verify_certificate(broken)
        assert not report.passed
        assert not report.check("isometry_defect_1").passed

    def test_perturbed_target_fails_reconstruction(self):
        h, cert = self.fresh()
        n = h.block_dim
        # [0, 0] lies in a diagonal block, so the bump also moves the derived core
        bumped = cert.target.copy()
        bumped[0, 0] += 1e-3
        assert not verify_certificate(replace(cert, target=bumped)).passed
        # [0, n] lies outside the diagonal blocks: the cores stay put
        bumped = cert.target.copy()
        bumped[0, n] += 1e-3
        report = verify_certificate(replace(cert, target=bumped))
        assert not report.passed
        measured = report.check("reconstruction_defect").lhs
        assert measured == pytest.approx(1e-3, rel=1e-3)

    def test_quaternion_target_copies_must_agree(self):
        _, cert = quaternion_pipeline(block_instance(8, alpha=4, n=2), beta=4)
        bumped = cert.target.copy()
        bumped[-1, -1] += 1e-3
        with pytest.raises(MalformedCertificateError):
            replace(cert, target=bumped)

    @pytest.mark.parametrize("flaw", ["factor_count", "factor_shape"])
    def test_inconsistent_certificate_is_not_constructed(self, flaw):
        _, cert = self.fresh()
        u, v = cert.factors
        fields = {"kind": cert.kind, "target": cert.target, "factors": (u, v)}
        DecompositionCertificate(**fields)  # consistent as given
        changed = {
            "factor_count": {"factors": (u, v, u)},
            "factor_shape": {"factors": (u, v[:, :2])},
        }[flaw]
        with pytest.raises(MalformedCertificateError):
            DecompositionCertificate(**{**fields, **changed})

    def test_certificate_is_kind_target_and_factors(self):
        assert [f.name for f in fields(DecompositionCertificate)] == ["kind", "target", "factors"]
        corner = two_corner_decomposition(random_psd(5, rank=3, seed=5), 2, 3)
        _, two_block = self.fresh()
        _, quat = quaternion_pipeline(block_instance(8, alpha=4, n=2), beta=4)
        derived = [(c.weight, c.slots) for c in (corner, two_block, quat)]
        assert derived == [(Fraction(1), (2, 3)), (Fraction(1, 2), None), (Fraction(1, 4), None)]

    def test_defects_measured_once_on_first_read(self, monkeypatch):
        _, built = self.fresh()
        assert "defects" in vars(built)  # a construction measures them to choose its route
        cert = replace(built)
        assert "cores" in vars(cert)  # derived at construction, by the kind's rule
        assert "defects" not in vars(cert)
        calls = []
        measure = decompose_module.measure_defects
        monkeypatch.setattr(decompose_module, "measure_defects", lambda c: calls.append(c) or measure(c))
        assert cert.defects is cert.defects
        assert cert.defects == measure(cert)
        assert calls == [cert]

    def test_malformed_factor_shape(self):
        _, cert = self.fresh()
        with pytest.raises(MalformedCertificateError):
            verify_certificate(replace(cert, factors=(cert.factors[0][:, :2],)))

    def test_wrong_weight_is_malformed(self):
        obj = certificate_to_json(self.fresh()[1])
        obj["weight"] = "1/3"
        with pytest.raises(MalformedCertificateError, match="weight 1/3, expected 1/2"):
            certificate_from_json(obj)

    def test_weight_is_checked_before_decoding(self, monkeypatch):
        obj = certificate_to_json(self.fresh()[1])
        obj["weight"] = "1/3"
        decoded = []
        monkeypatch.setattr(decompose_module, "matrix_from_json", decoded.append)
        with pytest.raises(MalformedCertificateError, match="weight 1/3, expected 1/2"):
            certificate_from_json(obj)
        assert decoded == []

    def test_stated_defects_are_ignored(self):
        _, cert = self.fresh()
        obj = certificate_to_json(cert)
        obj["defects"] = 5
        back = certificate_from_json(obj)
        assert certificate_to_json(back) == certificate_to_json(cert)
        assert certificate_to_json(back)["defects"] == measure_defects(back)

    def test_payload_defects_are_a_copy(self):
        _, cert = self.fresh()
        measured = measure_defects(cert)
        obj = certificate_to_json(cert)
        obj["defects"]["reconstruction"] = 5.0
        obj["defects"]["isometry"][0] = 5.0
        obj["defects"]["isometry"].append(5.0)
        assert cert.defects == measured
        assert certificate_to_json(cert)["defects"] == measured

    @pytest.mark.parametrize("kind", ["two_corner", "corner_general", "two_block_isometry", "quaternion"])
    def test_json_key_order(self, kind):
        h = block_instance(3, alpha=4, n=2)
        cert = {
            "two_corner": lambda: two_corner_decomposition(h.data, 3, 5),
            "corner_general": lambda: corner_decomposition_general(h),
            "two_block_isometry": lambda: two_block_isometries(block_instance(3, alpha=2, n=2)),
            "quaternion": lambda: quaternion_pipeline(h, beta=4)[1],
        }[kind]()
        assert cert.kind == kind
        keys = ["kind", "weight", "target", "factors", "defects"]
        assert list(certificate_to_json(cert)) == keys + (["slots"] if kind in decompose_module.CORNER_KINDS else [])

    def test_json_round_trip(self):
        h = block_instance(8, alpha=4, n=2)
        _, cert = quaternion_pipeline(h, beta=4)
        blob = json.dumps(certificate_to_json(cert))
        back = certificate_from_json(json.loads(blob))
        assert back.kind == "quaternion"
        assert str(back.weight) == "1/4"
        assert np.allclose(back.target, cert.target)
        assert verify_certificate(back).passed

    def test_json_round_trip_with_slots(self):
        h = random_psd(5, rank=3, seed=5)
        cert = two_corner_decomposition(h, 2, 3)
        back = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert back.slots == (2, 3)
        assert verify_certificate(back).passed

    def test_truncated_json_rejected(self):
        with pytest.raises(MalformedCertificateError):
            certificate_from_json({"kind": "quaternion"})

    @pytest.mark.parametrize("weight", [True, 1.0, 1, None], ids=["bool", "float", "int", "null"])
    def test_weight_must_be_a_fraction_string(self, weight):
        obj = certificate_to_json(two_corner_decomposition(random_psd(5, rank=3, seed=5), 2, 3))
        assert obj["weight"] == "1"
        obj["weight"] = weight
        with pytest.raises(MalformedCertificateError, match="weight must be"):
            certificate_from_json(obj)

    @pytest.mark.parametrize("weight, got", [({"entries": (20, 31)}, "an object"), ([1, 4], "an array")], ids=["object", "array"])
    def test_object_or_array_weight_is_named_by_its_json_type(self, weight, got):
        # a skeleton's weight may hold an array's span, which the message must not show
        obj = {**certificate_to_json(two_corner_decomposition(random_psd(5, rank=3, seed=5), 2, 3)), "weight": weight}
        with pytest.raises(MalformedCertificateError, match=f"fraction string such as \"1/4\", got {got}$"):
            certificate_from_json(obj)

    @pytest.mark.parametrize("seed", range(10))
    def test_spectral_consequence(self, seed):
        """Eigenvalues of the target are weakly majorized by the
        weight-scaled sorted sums of the per-factor core spectra."""
        h = block_instance(seed, alpha=2, n=2)
        certs = [
            two_block_isometries(h),
            corner_decomposition_general(h),
        ]
        _, quat = quaternion_pipeline(block_instance(seed, alpha=4, n=2), beta=4)
        certs.append(quat)
        for cert in certs:
            side = cert.target.shape[0]
            lam_target = hermitian_eigvalues(cert.target)
            totals = float(cert.weight) * sum(
                padded_sorted(hermitian_eigvalues(core), side) for core in cert.cores
            )
            gaps = np.cumsum(totals) - np.cumsum(lam_target)
            assert gaps.min() >= -1e-8 * (1 + frobenius(cert.target))


class TestDefectHelpers:
    @pytest.mark.parametrize("kind", decompose_module.KINDS)
    def test_measured_defects_match_definitions(self, kind):
        # cores sliced or summed from the target's blocks, every term
        # scaled by the weight before it is added
        h = block_instance(2, alpha=4, n=2)
        cert = {
            "two_corner": lambda: two_corner_decomposition(h.data, 3, 5),
            "corner_general": lambda: corner_decomposition_general(h),
            "two_block_isometry": lambda: two_block_isometries(block_instance(2, alpha=2, n=2)),
            "quaternion": lambda: quaternion_pipeline(block_instance(2, alpha=3, n=2), beta=3)[1],
        }[kind]()
        t = cert.target
        if kind in decompose_module.CORNER_KINDS:
            edges = np.cumsum([0, *cert.slots])
            cores = [(t[a:b, a:b] + dagger(t[a:b, a:b])) / 2 for a, b in zip(edges[:-1], edges[1:])]
        elif kind == "two_block_isometry":
            half = t.shape[0] // 2
            core = t[:half, :half] + t[half:, half:]
            cores = [(core + dagger(core)) / 2] * 2
        else:
            n, copy = 2, t[:6, :6]
            delta = sum(copy[k * n : (k + 1) * n, k * n : (k + 1) * n] for k in range(3))
            cores = [direct_sum(delta, delta)] * 4
        acc = np.zeros_like(t)
        for f, core in zip(cert.factors, cores, strict=True):
            acc += float(cert.weight) * (f @ core @ dagger(f))
        isometry = [frobenius(dagger(f) @ f - np.eye(f.shape[1])) for f in cert.factors]
        measured = measure_defects(cert)
        assert measured["reconstruction"] == pytest.approx(frobenius(t - acc), abs=1e-15)
        assert measured["isometry"] == pytest.approx(isometry, abs=1e-15)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: two_corner_decomposition(block_instance(4, alpha=2, n=75).data, 70, 80),
            lambda: corner_decomposition_general(block_instance(4, alpha=3, n=50)),
            lambda: two_block_isometries(block_instance(4, alpha=2, n=75)),
            lambda: quaternion_pipeline(block_instance(4, alpha=3, n=25), beta=3)[1],
            lambda: quaternion_pipeline(block_instance(4, alpha=4, n=16), beta=4)[1],
        ],
        ids=["two_corner_150", "corner_general_150", "two_block_150", "quaternion_b3_150", "quaternion_b4_128"],
    )
    def test_row_blocks_sum_to_the_full_products(self, build):
        # each term added in blocks of rows gives the sum of the whole products, to the last bit,
        # also where the last block is short (side 150 against 64 rows a block)
        cert = build()
        assert cert.target.shape[0] > decompose_module._SUM_ROWS
        acc = np.zeros_like(cert.target)
        for f, core in zip(cert.factors, cert.cores, strict=True):
            acc += (f @ (float(cert.weight) * core)) @ dagger(f)
        assert measure_defects(cert)["reconstruction"] == frobenius(cert.target - acc)
