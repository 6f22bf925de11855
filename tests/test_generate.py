"""Generator tests: determinism, structural guarantees, named instances."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import gram_schmidt_unitary, random_commuting_family, random_hermitian

from psdblocks import generate
from psdblocks import (
    GeneratorSpec,
    block_matrix_to_json,
    dagger,
    det_sandwich,
    equality_case_instance,
    frobenius,
    geometric_mean_instance,
    get_block,
    hermitian_eigvalues,
    hiroshima_check,
    nonhermitian_counterexample,
    partial_trace,
    random_block_psd,
    two_corner_decomposition,
    validate_hermitian_blocks,
)


class TestRandomHermitian:
    @pytest.mark.parametrize("seed", range(10))
    def test_exactly_hermitian(self, seed):
        m = random_hermitian(5, seed)
        assert np.array_equal(m, dagger(m))

    def test_deterministic(self):
        assert np.array_equal(random_hermitian(4, 123), random_hermitian(4, 123))

    def test_distinct_seeds_differ(self):
        assert frobenius(random_hermitian(4, 1) - random_hermitian(4, 2)) > 0

    def test_norm_capped(self):
        for seed in range(20):
            assert frobenius(random_hermitian(3, seed, scale=0.5)) <= 0.5 * 3 + 1e-12


class TestRandomUnitary:
    @staticmethod
    def draw_and_reference(n, seed):
        q = generate._random_unitary(n, generate._stream(seed, "unitary"))
        g = generate._crandn(generate._stream(seed, "unitary"), (n, n))
        return q, gram_schmidt_unitary(g)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 128])
    def test_matches_reference_and_is_unitary(self, n, seed):
        q, ref = self.draw_and_reference(n, seed)
        assert np.abs(q - ref).max() <= 1e-12
        assert np.abs(dagger(q) @ q - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize(
        "make_draw",
        [
            lambda g: np.column_stack([g[:, 0], g[:, 0], g[:, 2:]]),
            np.zeros_like,
        ],
        ids=["repeated_column", "zero"],
    )
    def test_dependent_draw_falls_back_to_basis_vectors(self, monkeypatch, make_draw):
        n = 5
        g = make_draw(generate._crandn(np.random.default_rng(3), (n, n)))
        monkeypatch.setattr(generate, "_crandn", lambda rng, shape: g.copy())
        q = generate._random_unitary(n, np.random.default_rng(0))
        assert np.abs(q - gram_schmidt_unitary(g)).max() <= 1e-12
        assert np.abs(dagger(q) @ q - np.eye(n)).max() <= 1e-12

    def test_instances_do_not_depend_on_blas_threads(self, tmp_path):
        src = str(Path(generate.__file__).resolve().parents[1])
        payloads = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            argv = [sys.executable, "-m", "psdblocks.cli", "gen", "--alpha", "2", "--n", "128",
                    "--rank", "3", "--seed", "11", "-o", str(out)]
            subprocess.run(argv, env=env, check=True, capture_output=True)
            payload = json.loads(out.read_text(encoding="utf-8"))
            del payload["config"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestRandomCommutingFamily:
    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_side_rejected(self, n):
        with pytest.raises(ValueError, match="n must be positive"):
            random_commuting_family(2, n, 0)

    def test_single_member(self):
        (s,) = random_commuting_family(1, 3, 0)
        assert np.array_equal(s, dagger(s))

    def test_all_pairs_commute(self):
        family = random_commuting_family(4, 3, 11)
        assert len(family) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                comm = family[i] @ family[j] - family[j] @ family[i]
                assert frobenius(comm) <= 1e-12

    def test_shared_eigenbasis(self):
        family = random_commuting_family(3, 4, 2)
        # simultaneous diagonalization: eigenvectors of the first member
        # diagonalize the others up to degeneracy; spot-check commutation
        # against a random member combination instead of exact vectors
        mix = sum(family)
        for s in family:
            assert frobenius(mix @ s - s @ mix) <= 1e-12


class TestRandomBlockPsd:
    def test_rank_zero_is_zero(self):
        h = random_block_psd(GeneratorSpec(seed=1, alpha=3, n=2, rank=0))
        assert np.array_equal(h.data, np.zeros((6, 6)))

    @pytest.mark.parametrize("seed", range(30))
    def test_structural_guarantees(self, seed):
        spec = GeneratorSpec(seed=seed, alpha=2 + seed % 3, n=1 + seed % 3, rank=1 + seed % 4, scale=2.0)
        h = random_block_psd(spec)
        assert hermitian_eigvalues(h.data)[-1] >= -1e-10 * spec.scale
        assert validate_hermitian_blocks(h) == ()
        worst = max(
            frobenius(np.asarray(get_block(h, s, t)) - dagger(get_block(h, s, t)))
            for s in range(1, h.block_count + 1)
            for t in range(1, h.block_count + 1)
        )
        assert worst <= 1e-12 * spec.scale

    def test_blocks_are_gram_products(self):
        h = random_block_psd(GeneratorSpec(seed=5, alpha=2, n=2, rank=1))
        # single Gram summand: diagonal blocks PSD, trace matches partial trace
        for s in (1, 2):
            blk = np.asarray(get_block(h, s, s))
            assert hermitian_eigvalues(blk)[-1] >= -1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_outputs_satisfy_dominance(self, seed):
        h = random_block_psd(GeneratorSpec(seed=seed, alpha=4, n=2, rank=3))
        assert hiroshima_check(h).passed

    def test_peak_memory(self, traced_peak):
        # about 2.7x the matrix: its Hermitian part made beside it, then the instance's own copy; each Gram term
        # made whole and the Hermitian part's sum reached 3.4x
        h, peak = traced_peak(lambda: random_block_psd(GeneratorSpec(seed=1, alpha=4, n=96, rank=3)))
        assert peak < 3.3 * h.data.nbytes

    def test_bit_identical_serialization(self):
        spec = GeneratorSpec(seed=99, alpha=3, n=2, rank=2)
        a = json.dumps(block_matrix_to_json(random_block_psd(spec)), sort_keys=True)
        b = json.dumps(block_matrix_to_json(random_block_psd(spec)), sort_keys=True)
        assert a == b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(seed=0, alpha=1, n=2, rank=1)
        with pytest.raises(ValueError):
            GeneratorSpec(seed=0, alpha=2, n=0, rank=1)
        with pytest.raises(ValueError):
            GeneratorSpec(seed=0, alpha=2, n=2, rank=-1)
        with pytest.raises(ValueError):
            GeneratorSpec(seed=0, alpha=2, n=2, rank=1, scale=0.0)
        for scale in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"scale must be finite and positive, got {scale}"):
                GeneratorSpec(seed=0, alpha=2, n=2, rank=1, scale=scale)


    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # these seeds used to alias 2**64 - 1, 0 and 1
        with pytest.raises(ValueError, match=f"seed must be in \\[0, 2\\*\\*64\\), got {seed}"):
            GeneratorSpec(seed=seed, alpha=2, n=2, rank=1)
        with pytest.raises(ValueError, match="seed must be in"):
            random_hermitian(2, seed)

    def test_largest_seed_accepted(self):
        h = random_block_psd(GeneratorSpec(seed=2**64 - 1, alpha=2, n=2, rank=1))
        assert not np.array_equal(h.data, random_block_psd(GeneratorSpec(seed=0, alpha=2, n=2, rank=1)).data)


class TestEqualityCase:
    def test_concrete_diagonal_witness(self):
        h = geometric_mean_instance()
        assert np.allclose(np.asarray(get_block(h, 1, 2)), np.diag([2.0, 3.0]))
        report = det_sandwich(h)
        assert report.check("partial_trace_bound").margin == pytest.approx(0.0, abs=1e-9)

    def test_identity_corners(self):
        # A = B = I gives X = I and det(I+H) = 3^n = det(I+A+B)
        n = 3
        ident = np.eye(n)
        h = equality_case_instance(n, 0)
        lam = hermitian_eigvalues(np.block([[ident, ident], [ident, ident]]))
        assert np.allclose(np.sort(lam)[::-1][:n], 2 * np.ones(n))

    @pytest.mark.parametrize("seed", range(25))
    def test_right_equality_attained(self, seed):
        n = 1 + seed % 4
        h = equality_case_instance(n, seed)
        assert hermitian_eigvalues(h.data)[-1] >= -1e-10
        delta = partial_trace(h)
        det_h = float(np.prod(1 + np.clip(hermitian_eigvalues(h.data), 0, None)))
        det_delta = float(np.prod(1 + np.clip(hermitian_eigvalues(delta), 0, None)))
        assert abs(det_h - det_delta) <= 1e-8 * det_delta

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_equality_margin(self, seed):
        h = equality_case_instance(3, seed)
        report = hiroshima_check(h)
        sums = report.check("eigenvalue_partial_sums")
        gap = np.asarray(sums.rhs) - np.asarray(sums.lhs)
        assert gap[2] == pytest.approx(0.0, abs=1e-9)


class TestCounterexample:
    def test_layout(self):
        h = nonhermitian_counterexample()
        assert h.block_dim == 2 and h.block_count == 2
        assert np.allclose(np.asarray(get_block(h, 1, 1)), np.diag([1.0, 0.0]))
        assert np.allclose(np.asarray(get_block(h, 1, 2)), [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(np.asarray(get_block(h, 2, 2)), np.diag([0.0, 1.0]))

    def test_flags_offending_block(self):
        offending = validate_hermitian_blocks(nonhermitian_counterexample())
        assert (1, 2) in [(s, t) for s, t, _ in offending]

    def test_dominance_fails_at_top(self):
        report = hiroshima_check(nonhermitian_counterexample())
        assert not report.passed
        sums = report.check("eigenvalue_partial_sums")
        assert sums.lhs[0] == pytest.approx(2.0, abs=1e-12)
        assert sums.rhs[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_corner_decomposition_still_works(self):
        h = nonhermitian_counterexample()
        cert = two_corner_decomposition(h.data, 2, 2)
        assert cert.defects["reconstruction"] <= 1e-9
        assert max(cert.defects["isometry"]) <= 1e-9
