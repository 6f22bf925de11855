"""Block partition layer.

A :class:`BlockMatrix` is a square complex matrix carved into
``block_count`` x ``block_count`` blocks of equal side ``block_dim``,
with the partial trace (sum of diagonal blocks) and the block
duplication / coordinate interleaving machinery the quaternion
decomposition route relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "BlockHermiticityReport",
    "BlockMatrix",
    "block_matrix_from_json",
    "block_matrix_to_json",
    "direct_sum",
    "duplicate_blocks",
    "get_block",
    "interleave_permutation",
    "partial_trace",
    "validate_hermitian_blocks",
]


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """Square complex matrix plus partition metadata.

    Only the shape relation ``side == block_dim * block_count`` is
    enforced here; positivity and block Hermiticity are properties of the
    *instance*, checked by the validation helpers so that counterexample
    inputs remain representable. ``data`` is frozen (read-only), so block
    views handed out later cannot be mutated either.
    """

    data: np.ndarray
    block_dim: int
    block_count: int

    def __post_init__(self) -> None:
        a = as_matrix(self.data).copy()
        n = int(self.block_dim)
        alpha = int(self.block_count)
        if n < 1 or alpha < 1:
            raise ValueError("block_dim and block_count must be positive")
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"block matrix must be square, got {a.shape}")
        if a.shape[0] != n * alpha:
            raise ValueError(
                f"side {a.shape[0]} does not match block_dim*block_count = {n * alpha}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "block_dim", n)
        object.__setattr__(self, "block_count", alpha)

    @property
    def side(self) -> int:
        return self.block_dim * self.block_count


def get_block(h: BlockMatrix, s: int, t: int) -> np.ndarray:
    """Block at 1-based position (s, t), as a read-only view."""
    alpha, n = h.block_count, h.block_dim
    if not (1 <= s <= alpha and 1 <= t <= alpha):
        raise IndexError(f"block index ({s}, {t}) out of range for {alpha}x{alpha} blocks")
    return h.data[(s - 1) * n : s * n, (t - 1) * n : t * n]


def partial_trace(h: BlockMatrix) -> np.ndarray:
    """Sum of the diagonal blocks."""
    n = h.block_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for s in range(1, h.block_count + 1):
        out += get_block(h, s, s)
    return out


@dataclass(frozen=True)
class BlockHermiticityReport:
    """Outcome of the Hermitian-block hypothesis check.

    ``offending`` lists 1-based (s, t, defect) triples with
    ``defect = ||A_st - A_st*||_F`` above the slack."""

    ok: bool
    offending: tuple[tuple[int, int, float], ...]


def validate_hermitian_blocks(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> BlockHermiticityReport:
    """Check every block against its own conjugate transpose."""
    scale = frobenius(h.data)
    bad = []
    for s in range(1, h.block_count + 1):
        for t in range(1, h.block_count + 1):
            blk = get_block(h, s, t)
            defect = frobenius(blk - dagger(blk))
            if not tol.allows(defect, scale):
                bad.append((s, t, defect))
    return BlockHermiticityReport(ok=not bad, offending=tuple(bad))


def interleave_permutation(alpha: int, n: int) -> np.ndarray:
    """Permutation aligning two stacked copies block-by-block.

    Coordinate (copy c, block s, inner j), stored at ``c*alpha*n + s*n + j``
    in a direct sum of two copies, is sent to ``s*2n + c*n + j`` so both
    copies of block s become adjacent. Returns the integer index array
    ``image`` with ``image[i]`` the destination of coordinate i.
    Conjugating ``H (+) H`` by the matrix P with ``P[image[i], i] = 1``
    yields exactly :func:`duplicate_blocks`.
    """
    if alpha < 1 or n < 1:
        raise ValueError("alpha and n must be positive")
    return np.arange(2 * alpha * n).reshape(alpha, 2, n).transpose(1, 0, 2).ravel()


def duplicate_blocks(h: BlockMatrix) -> BlockMatrix:
    """Replace each block A_st by A_st (+) A_st.

    Pure index shuffling (no arithmetic): equals the conjugation of
    ``H (+) H`` by the interleave permutation, entry for entry.
    """
    n, alpha = h.block_dim, h.block_count
    idx = np.argsort(interleave_permutation(alpha, n))
    g = direct_sum(h.data, h.data)[np.ix_(idx, idx)]
    return BlockMatrix(g, block_dim=2 * n, block_count=alpha)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal stacking of two matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def block_matrix_to_json(h: BlockMatrix) -> dict:
    obj = matrix_to_json(h.data)
    obj["block_dim"] = h.block_dim
    obj["block_count"] = h.block_count
    return obj


def block_matrix_from_json(obj) -> BlockMatrix:
    if not isinstance(obj, dict):
        raise ValueError("block matrix JSON must be an object")
    data = matrix_from_json(obj)
    try:
        n = int(obj["block_dim"])
        alpha = int(obj["block_count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed block matrix JSON: {exc}") from exc
    return BlockMatrix(data, block_dim=n, block_count=alpha)
