"""Certificates move with their instance under block-diagonal unitary congruence.

For a unitary U of side n, ``V = I (x) U`` maps H to ``V H V*``: block
(s, t) becomes ``U H_st U*``, so Hermitian blocks stay Hermitian, the partial
trace becomes ``U D U*`` and every core ``U core U*``. A certificate
``T = w sum_k F_k core_k F_k*`` therefore moves to one of ``V T V*`` with
factors ``V F_k U_k*``: ``U_k = U`` for the corner and two-block kinds, and
``U (+) U``, on both column halves, for a quaternion factor, whose target
``H (+) H`` moves on both copies. Each construction commutes with the map
as well: ``sqrt(V H V*) = V sqrt(H) V*``, and the fixed unitaries that cut
the column blocks ``X_k`` act on block indices only, so building on the moved
instance gives the moved factors, up to rounding, wherever they are unique.
"""

import numpy as np
import pytest

from psdblocks import (
    BlockMatrix,
    DecompositionCertificate,
    GeneratorSpec,
    corner_decomposition_general,
    direct_sum,
    frobenius,
    quaternion_pipeline,
    random_block_psd,
    two_block_isometries,
    two_corner_decomposition,
    verify_certificate,
)
from psdblocks.generate import _random_unitary

# kind: (block count, construction)
BUILDS = {
    "two_corner": (2, lambda h: two_corner_decomposition(h.data, h.block_dim, h.block_dim)),
    "corner_general": (3, corner_decomposition_general),
    "two_block_isometry": (2, two_block_isometries),
    "quaternion_b3": (3, lambda h: quaternion_pipeline(h, beta=3)[1]),
    "quaternion_b4": (4, lambda h: quaternion_pipeline(h, beta=4)[1]),
    "quaternion_b4_padded": (3, lambda h: quaternion_pipeline(h, beta=4)[1]),
}


def congruence(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``(I (x) U) m (I (x) U)*`` for a matrix m of n x n blocks: each block B becomes ``U B U*``."""
    n = len(u)
    p, q = m.shape[0] // n, m.shape[1] // n
    blocks = m.reshape(p, n, q, n).transpose(0, 2, 1, 3)
    return (u @ blocks @ u.conj().T).transpose(0, 2, 1, 3).reshape(m.shape)


def moved(cert: DecompositionCertificate, u: np.ndarray) -> DecompositionCertificate:
    """The certificate carried by ``V = I (x) U``; a quaternion target's two copies are moved as one, so they stay equal."""
    if cert.kind == "quaternion":
        half = len(cert.target) // 2
        copy = congruence(cert.target[:half, :half], u)
        target = direct_sum(copy, copy)
    else:
        target = congruence(cert.target, u)
    return DecompositionCertificate(cert.kind, target, tuple(congruence(f, u) for f in cert.factors))


def instance(seed: int, alpha: int, n: int, rank: int) -> BlockMatrix:
    return random_block_psd(GeneratorSpec(seed=seed, alpha=alpha, n=n, rank=rank))


GRID = pytest.mark.parametrize("kind", BUILDS)
SEEDS = pytest.mark.parametrize("seed, n", [(0, 2), (1, 7), (2, 16)])


@GRID
@SEEDS
@pytest.mark.parametrize("rank", ["one", "three", "full"])
def test_moved_certificate_verifies(kind, seed, n, rank):
    alpha, build = BUILDS[kind]
    h = instance(220 + seed, alpha, n, {"one": 1, "three": 3, "full": alpha * n}[rank])
    u = _random_unitary(n, np.random.default_rng(seed))
    cert = build(h)
    carried = moved(cert, u)
    assert verify_certificate(carried).passed
    scale = 1 + frobenius(h.data)
    for core, before in zip(carried.cores, cert.cores, strict=True):
        assert frobenius(core - congruence(before, u)) <= 1e-12 * scale
    assert max(carried.defects["isometry"]) <= 1e-9


@GRID
@SEEDS
def test_construction_commutes_with_the_map(kind, seed, n):
    # full rank, so each X_k has full column rank and its polar factor is unique
    alpha, build = BUILDS[kind]
    h = instance(230 + seed, alpha, n, alpha * n)
    u = _random_unitary(n, np.random.default_rng(10 + seed))
    carried = moved(build(h), u)
    built = build(BlockMatrix(congruence(h.data, u), block_dim=n, block_count=alpha))
    assert frobenius(built.target - carried.target) <= 1e-12 * (1 + frobenius(h.data))
    for f, g in zip(built.factors, carried.factors, strict=True):
        assert frobenius(f - g) <= 1e-10
