"""Block structure tests: views, partial trace, duplication, interleaving."""

import numpy as np
import pytest

from psdblocks import (
    BlockMatrix,
    block_matrix_from_json,
    block_matrix_to_json,
    dagger,
    direct_sum,
    duplicate_blocks,
    frobenius,
    get_block,
    hermitian_eigvalues,
    interleave_permutation,
    partial_trace,
    random_block_psd,
    GeneratorSpec,
    nonhermitian_counterexample,
    validate_hermitian_blocks,
)


def seeded_instance(seed, alpha=2, n=2, rank=3):
    return random_block_psd(GeneratorSpec(seed=seed, alpha=alpha, n=n, rank=rank))


class TestBlockMatrix:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlockMatrix(np.eye(5), block_dim=2, block_count=2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            BlockMatrix(np.ones((4, 2)), block_dim=2, block_count=2)

    def test_data_is_frozen(self):
        h = BlockMatrix(np.eye(4), block_dim=2, block_count=2)
        with pytest.raises(ValueError):
            h.data[0, 0] = 5.0

    def test_block_views_are_read_only(self):
        h = BlockMatrix(np.eye(4), block_dim=2, block_count=2)
        blk = get_block(h, 1, 2)
        with pytest.raises(ValueError):
            blk[0, 0] = 1.0

    def test_spectra_cached_and_read_only(self):
        h = seeded_instance(3, alpha=3, n=2)
        assert np.array_equal(h.eigenvalues, hermitian_eigvalues(h.data))
        assert np.array_equal(h.partial_trace_eigenvalues, hermitian_eigvalues(partial_trace(h)))
        assert h.eigenvalues is h.eigenvalues
        assert h.partial_trace_eigenvalues is h.partial_trace_eigenvalues
        with pytest.raises(ValueError):
            h.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            h.partial_trace_eigenvalues[0] = 0.0


class TestGetBlock:
    def test_identity_off_diagonal_is_zero(self):
        h = BlockMatrix(np.eye(4), block_dim=2, block_count=2)
        assert np.array_equal(get_block(h, 1, 2), np.zeros((2, 2)))

    def test_reads_the_constructed_block(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        x = np.array([[0.0, 5.0], [5.0, 0.0]])
        h = BlockMatrix(np.block([[a, x], [x, b]]), block_dim=2, block_count=2)
        assert np.array_equal(get_block(h, 2, 1), x)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_data_pairs_blocks(self, seed):
        h = seeded_instance(seed, alpha=3, n=2)
        for s in range(1, 4):
            for t in range(1, 4):
                assert np.allclose(
                    get_block(h, s, t), dagger(get_block(h, t, s)), atol=1e-12
                )

    def test_out_of_range(self):
        h = BlockMatrix(np.eye(4), block_dim=2, block_count=2)
        with pytest.raises(IndexError):
            get_block(h, 0, 1)
        with pytest.raises(IndexError):
            get_block(h, 1, 3)


class TestPartialTrace:
    def test_identity(self):
        h = BlockMatrix(np.eye(6), block_dim=2, block_count=3)
        assert np.array_equal(partial_trace(h), 3.0 * np.eye(2))

    def test_diagonal_blocks_add(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        x = np.ones((2, 2))
        h = BlockMatrix(np.block([[a, x], [x, b]]), block_dim=2, block_count=2)
        assert np.array_equal(partial_trace(h), np.diag([4.0, 6.0]))

    @pytest.mark.parametrize("seed", range(100))
    def test_trace_preserved(self, seed):
        h = seeded_instance(seed, alpha=2 + seed % 3, n=1 + seed % 3)
        delta = partial_trace(h)
        assert abs(np.trace(h.data) - np.trace(delta)) <= 1e-9
        assert hermitian_eigvalues(delta)[-1] >= -1e-10

    def test_linearity(self):
        h1 = seeded_instance(1, alpha=3, n=2)
        h2 = seeded_instance(2, alpha=3, n=2)
        combined = BlockMatrix(h1.data + h2.data, block_dim=2, block_count=3)
        assert (
            frobenius(partial_trace(combined) - partial_trace(h1) - partial_trace(h2))
            <= 1e-12
        )


class TestValidateHermitianBlocks:
    def test_hermitian_instance_passes(self):
        a = np.diag([1.0, 2.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = BlockMatrix(np.block([[a, x], [x, a]]), block_dim=2, block_count=2)
        assert validate_hermitian_blocks(h) == ()

    def test_counterexample_flags_nilpotent_block(self):
        offending = validate_hermitian_blocks(nonhermitian_counterexample())
        assert offending
        assert (1, 2) in [(s, t) for s, t, _ in offending]

    def test_zero_matrix_passes(self):
        h = BlockMatrix(np.zeros((4, 4)), block_dim=2, block_count=2)
        assert validate_hermitian_blocks(h) == ()

    @pytest.mark.parametrize("seed", range(20))
    def test_sampler_outputs_pass(self, seed):
        h = seeded_instance(seed, alpha=2 + seed % 3, n=1 + seed % 4)
        assert validate_hermitian_blocks(h) == ()


class TestInterleavePermutation:
    def test_degenerate_single_block(self):
        assert np.array_equal(interleave_permutation(1, 1), [0, 1])

    def test_two_blocks_scalar(self):
        assert np.array_equal(interleave_permutation(2, 1), [0, 2, 1, 3])

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_duplicate_blocks(self, alpha, n):
        h = seeded_instance(alpha * 10 + n, alpha=max(alpha, 2), n=n)
        if alpha == 1:
            h = BlockMatrix(np.asarray(get_block(h, 1, 1)), block_dim=n, block_count=1)
        image = interleave_permutation(h.block_count, n)
        pi = np.zeros((image.size, image.size))
        pi[image, np.arange(image.size)] = 1.0
        expected = pi @ direct_sum(h.data, h.data) @ pi.T
        assert np.array_equal(duplicate_blocks(h).data, expected)

    def test_output_is_permutation_of_range(self):
        image = interleave_permutation(3, 2)
        assert np.array_equal(np.sort(image), np.arange(12))

    def test_argsort_round_trip(self):
        image = interleave_permutation(3, 2)
        inv = np.argsort(image)
        assert np.array_equal(image[inv], np.arange(image.size))
        assert np.array_equal(inv[image], np.arange(image.size))


class TestDuplicateBlocks:
    def test_identity_doubles(self):
        h = BlockMatrix(np.eye(4), block_dim=1, block_count=4)
        g = duplicate_blocks(h)
        assert np.array_equal(g.data, np.eye(8))
        assert g.block_dim == 2 and g.block_count == 4

    def test_scalar_block_duplicates(self):
        data = np.array([[1.0, 7.0], [7.0, 2.0]])
        h = BlockMatrix(data, block_dim=1, block_count=2)
        g = duplicate_blocks(h)
        assert np.array_equal(get_block(g, 1, 2), np.diag([7.0, 7.0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_preserves_positivity(self, seed):
        h = seeded_instance(seed, alpha=4, n=2)
        g = duplicate_blocks(h)
        assert hermitian_eigvalues(g.data)[-1] >= -1e-10


class TestDirectSum:
    def test_diagonal(self):
        assert np.array_equal(
            direct_sum(np.diag([1.0]), np.diag([2.0])), np.diag([1.0, 2.0])
        )

    def test_zero(self):
        out = direct_sum(np.zeros((2, 2)), np.zeros((3, 3)))
        assert np.array_equal(out, np.zeros((5, 5)))

    def test_spectrum_is_multiset_union(self):
        a = seeded_instance(1, alpha=2, n=2).data
        b = seeded_instance(2, alpha=2, n=1).data
        merged = np.sort(np.concatenate([hermitian_eigvalues(a), hermitian_eigvalues(b)]))
        assert np.allclose(np.sort(hermitian_eigvalues(direct_sum(a, b))), merged, atol=1e-12)


class TestBlockMatrixJson:
    def test_round_trip(self):
        h = seeded_instance(9, alpha=3, n=2)
        back = block_matrix_from_json(block_matrix_to_json(h))
        assert np.array_equal(back.data, h.data)
        assert back.block_dim == 2 and back.block_count == 3

    def test_missing_metadata(self):
        obj = block_matrix_to_json(seeded_instance(1))
        del obj["block_dim"]
        with pytest.raises(ValueError):
            block_matrix_from_json(obj)

    @pytest.mark.parametrize(
        "metadata",
        [
            pytest.param({"block_dim": 1.5, "block_count": "2"}, id="float_and_string"),
            pytest.param({"block_dim": 1.0, "block_count": 2}, id="integral_float"),
            pytest.param({"block_dim": True, "block_count": 2}, id="bool"),
            pytest.param({"block_dim": 1, "block_count": None}, id="null"),
        ],
    )
    def test_metadata_must_be_integers(self, metadata):
        # side 2: the first three used to load as block_dim 1, block_count 2
        obj = {**block_matrix_to_json(seeded_instance(1, n=1)), **metadata}
        with pytest.raises(ValueError, match="must be integers"):
            block_matrix_from_json(obj)
