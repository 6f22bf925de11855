"""Deterministic, seeded instance generation.

Every sampler derives an independent stream from (seed, call-site label)
and fills values in a fixed order, so equal seeds reproduce identical
instances byte for byte. Random unitaries come from right-looking
modified Gram-Schmidt on a complex Gaussian draw, computed with numpy's
own reductions and no LAPACK or BLAS-threaded kernel, so ``gen`` writes
the same bytes whatever the BLAS thread count. Exactness of the Haar
measure matters less here than reproducibility.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix
from .errors import NumericalError
from .kernel import _blocks, as_matrix, dagger, hermitian_part

__all__ = [
    "GeneratorSpec",
    "equality_case_instance",
    "geometric_mean_instance",
    "nonhermitian_counterexample",
    "random_block_psd",
]


def _check_seed(seed: int) -> None:
    """Seeds are the unsigned 64-bit integers: no two seeds share a stream,
    and every seed an artifact echoes fits a JSON encoder's integers."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _stream(seed: int, label: str) -> np.random.Generator:
    _check_seed(seed)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _hermitian_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    return hermitian_part(_crandn(rng, (n, n)))


def _norm(v: np.ndarray) -> float:
    return np.sqrt(np.sum(v.real**2 + v.imag**2))


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Right-looking modified Gram-Schmidt on a Gaussian draw.

    Row j of ``w`` holds column j of the draw. Step j normalizes it and
    projects it out of every later row in one numpy sweep, so each column
    gets the updates of left-to-right MGS in the same order. A column
    left with norm below 1e-12 is replaced by e_j, projected the same way.
    Only numpy's own reductions run, never BLAS or LAPACK, so Q does not
    depend on the BLAS thread count.
    """
    w = np.ascontiguousarray(_crandn(rng, (n, n)).T)
    # one buffer for every sweep: fresh (n-j) x n temporaries per step
    # made n = 128 2.6x slower (19.7 ms against 7.7 ms)
    scratch = np.empty_like(w)
    for j in range(n):
        v = w[j]
        norm = _norm(v)
        if norm < 1e-12:
            # essentially dependent draw; fall back to a basis vector
            v[:] = 0.0
            v[j] = 1.0
            for q in w[:j]:
                v -= np.sum(q.conj() * v) * q
            norm = _norm(v)
        v /= norm
        rest, buf = w[j + 1 :], scratch[j + 1 :]
        np.multiply(rest, v.conj(), out=buf)
        np.multiply.outer(buf.sum(axis=1), v, out=buf)
        rest -= buf
    return w.T


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters pinning one block-matrix instance.

    ``rank`` counts the Gram summands; equal specs produce identical
    instances. The seed must lie in ``[0, 2**64)``."""

    seed: int
    alpha: int
    n: int
    rank: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if self.alpha < 2:
            raise ValueError("alpha must be at least 2")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if not 0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and positive, got {self.scale}")


def random_block_psd(spec: GeneratorSpec) -> BlockMatrix:
    """PSD matrix with Hermitian blocks, as a sum of Gram stacks.

    Each summand stacks T S_1, ..., T S_alpha for a Hermitian T and a
    commuting family S_i; the product of the stack with its own adjoint
    has blocks T S_s S_t T, Hermitian because the S_i commute. rank = 0
    yields the zero matrix. A scale that overflows an entry raises
    :class:`NumericalError`.
    """
    rng = _stream(spec.seed, "block_psd")
    side = spec.alpha * spec.n
    h = np.zeros((side, side), dtype=np.complex128)
    for _ in range(spec.rank):
        t = _hermitian_draw(rng, spec.n)
        q = _random_unitary(spec.n, rng)
        diags = rng.uniform(-1.0, 1.0, size=(spec.alpha, spec.n))
        stack = np.vstack([t @ hermitian_part((q * d) @ dagger(q)) for d in diags])
        right = dagger(stack)
        for rows in _blocks(side):  # no full-size product: each entry is the whole product's (_blocks)
            h[rows] += stack[rows] @ right
    with np.errstate(over="ignore"):
        h = hermitian_part(h)
        h *= spec.scale
    if not np.isfinite(h).all():
        raise NumericalError(f"scale {spec.scale} overflows the {side}x{side} instance")
    return BlockMatrix(h, block_dim=spec.n, block_count=spec.alpha)


def equality_case_instance(n: int, seed: int) -> BlockMatrix:
    """2x2-block instance with commuting PSD corners and the geometric
    half-product as off-diagonal block, so the lower determinant bound is
    attained: det(I+H) = det(I+A+B)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _stream(seed, "equality_case")
    q = _random_unitary(n, rng)
    a = rng.uniform(0.0, 2.0, size=n)
    b = rng.uniform(0.0, 2.0, size=n)
    top = hermitian_part((q * a) @ dagger(q))
    bottom = hermitian_part((q * b) @ dagger(q))
    cross = hermitian_part((q * np.sqrt(a * b)) @ dagger(q))
    h = hermitian_part(np.block([[top, cross], [cross, bottom]]))
    return BlockMatrix(h, block_dim=n, block_count=2)


def geometric_mean_instance() -> BlockMatrix:
    """The concrete commuting equality witness with corners diag(4, 1)
    and diag(1, 9) and off-diagonal diag(2, 3); eigenvalues (10, 5, 0, 0)."""
    a = np.diag([4.0, 1.0])
    b = np.diag([1.0, 9.0])
    x = np.diag([2.0, 3.0])
    h = np.block([[a, x], [x, b]]).astype(np.complex128)
    return BlockMatrix(h, block_dim=2, block_count=2)


def nonhermitian_counterexample() -> BlockMatrix:
    """Rank-one 4x4 witness that the Hermitian-block hypothesis is needed.

    H = v v* for v = (1, 0, 0, 1): its off-diagonal block is nilpotent,
    and the top eigenvalue 2 of H exceeds the top eigenvalue 1 of the
    partial trace."""
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128)
    h = np.outer(v, v.conj())
    return BlockMatrix(as_matrix(h), block_dim=2, block_count=2)
