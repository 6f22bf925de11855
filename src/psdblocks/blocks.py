"""Block partition layer.

A :class:`BlockMatrix` is a square complex matrix carved into
``block_count`` x ``block_count`` blocks of equal side ``block_dim``
(its spectrum and its partial trace's computed once), with the partial
trace (sum of diagonal blocks), direct sums and block duplication.
:func:`validate_hermitian_blocks` alone decides the Hermitian-block
hypothesis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    _skew_defect,
    as_matrix,
    as_square,
    frobenius,
    hermitian_eigvalues,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "BlockMatrix",
    "block_matrix_from_json",
    "block_matrix_to_json",
    "direct_sum",
    "duplicate_blocks",
    "get_block",
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
        a = as_square(self.data).copy()
        n, alpha = int(self.block_dim), int(self.block_count)
        if n < 1 or alpha < 1:
            raise ValueError("block_dim and block_count must be positive")
        if a.shape[0] != n * alpha:
            raise ValueError(f"side {a.shape[0]} does not match block_dim*block_count = {n * alpha}")
        a.setflags(write=False)
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "block_dim", n)
        object.__setattr__(self, "block_count", alpha)

    @property
    def side(self) -> int:
        return self.block_dim * self.block_count

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of ``data``, non-increasing (read-only, computed once)."""
        return _frozen(hermitian_eigvalues(self.data))

    @functools.cached_property
    def partial_trace_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the partial trace, non-increasing (read-only, computed once)."""
        return _frozen(hermitian_eigvalues(partial_trace(self)))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def get_block(h: BlockMatrix, s: int, t: int) -> np.ndarray:
    """Block at 1-based position (s, t), as a read-only view."""
    alpha, n = h.block_count, h.block_dim
    if not (1 <= s <= alpha and 1 <= t <= alpha):
        raise IndexError(f"block index ({s}, {t}) out of range for {alpha}x{alpha} blocks")
    return h.data[(s - 1) * n : s * n, (t - 1) * n : t * n]


def partial_trace(h: BlockMatrix) -> np.ndarray:
    """Sum of the diagonal blocks; a sum that overflows raises
    :class:`NumericalError`."""
    n = h.block_dim
    out = np.zeros((n, n), dtype=np.complex128)
    try:
        with np.errstate(over="raise"):
            for s in range(1, h.block_count + 1):
                out += get_block(h, s, s)
    except FloatingPointError as exc:
        raise NumericalError(f"partial trace of {h.block_count} blocks of side {n} is not finite: {exc}") from exc
    return out


def validate_hermitian_blocks(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> tuple[tuple[int, int, float], ...]:
    """The 1-based (s, t, defect) triples, row-major, of the blocks whose
    ``defect = ||A_st - A_st*||_F`` :meth:`Tolerance.allows` rejects at
    scale ``||H||_F``; an empty tuple means the hypothesis holds."""
    pairs = [(s, t) for s in range(1, h.block_count + 1) for t in range(1, h.block_count + 1)]
    defects = [_skew_defect(get_block(h, s, t)) for s, t in pairs]
    allowed = tol.allows(np.array(defects), frobenius(h.data), "Hermitian-block test")
    return tuple((s, t, d) for (s, t), d, ok in zip(pairs, defects, allowed) if not ok)


def duplicate_blocks(h: BlockMatrix) -> BlockMatrix:
    """Replace each block A_st by A_st (+) A_st.

    Pure placement (no arithmetic): both copies of ``A_st`` go on the
    diagonal of output block (s, t), so the result equals the conjugation
    of ``H (+) H`` by the permutation that makes the two copies of every
    block adjacent, entry for entry.
    """
    n, alpha = h.block_dim, h.block_count
    g = np.zeros((alpha, 2, n, alpha, 2, n), dtype=np.complex128)
    for c in (0, 1):
        g[:, c, :, :, c, :] = h.data.reshape(alpha, n, alpha, n)
    return BlockMatrix(g.reshape(2 * h.side, 2 * h.side), block_dim=2 * n, block_count=alpha)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal stacking of two matrices."""
    a = as_matrix(a)
    b = as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.complex128)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def block_matrix_to_json(h: BlockMatrix, encode=matrix_to_json) -> dict:
    """The block matrix's wire payload, its matrix written by ``encode``
    (:func:`matrix_to_json`, or :func:`matrix_to_wire` for :func:`dump_json`)."""
    obj = encode(h.data)
    obj["block_dim"] = h.block_dim
    obj["block_count"] = h.block_count
    return obj


def block_matrix_from_json(obj) -> BlockMatrix:
    """Parse the block matrix wire format: the matrix's, plus integer
    ``block_dim`` and ``block_count`` that must fit its side."""
    if not isinstance(obj, dict):
        raise ValueError("block matrix JSON must be an object")
    data = matrix_from_json(obj)
    try:
        n, alpha = obj["block_dim"], obj["block_count"]
    except KeyError as exc:
        raise ValueError(f"malformed block matrix JSON: missing {exc}") from exc
    if type(n) is not int or type(alpha) is not int:
        raise ValueError(f"block_dim and block_count must be integers, got {n!r:.20} and {alpha!r:.20}")
    return BlockMatrix(data, block_dim=n, block_count=alpha)
