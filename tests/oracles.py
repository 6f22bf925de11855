"""Independent desk-scale oracles used by the test suite.

The characteristic polynomial is built by brute-force Laplace expansion
by minors (memoized over column subsets, still the plain cofactor sum)
in high-precision arithmetic, and its roots come from a general
polynomial root finder. Nothing here shares code with the package's
LAPACK-backed spectral routines. The unitary reference is plain
left-looking Gram-Schmidt, one column and one projection at a time.
The dense forms of the constructions' fixed maps (the interleave
permutation and the two-block balancing unitary), which the package
never forms, live here too, as do the seeded samplers, the singular
values and the majorization helpers that only the tests call.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from psdblocks import DEFAULT_TOL, BlockMatrix, CheckReport, Tolerance, dagger, frobenius, hermitian_part
from psdblocks.checks import _partial_sums_le
from psdblocks.generate import _crandn, _hermitian_draw, _random_unitary, _stream
from psdblocks.kernel import _lapack, as_matrix


def charpoly_coefficients(m: np.ndarray, dps: int = 120) -> list:
    """Coefficients of det(xI - M), ascending in x, as mpmath numbers."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    with mp.workdps(dps):
        def entry(i: int, j: int) -> list:
            z = mp.mpc(a[i, j])
            if i == j:
                return [-z, mp.mpf(1)]
            return [-z]

        minors = {0: [mp.mpf(1)]}
        for mask in range(1, 1 << n):
            cols = [j for j in range(n) if mask >> j & 1]
            row = len(cols) - 1
            acc = [mp.mpf(0)] * (len(cols) + 1)
            for pos, j in enumerate(cols):
                sub = minors[mask ^ (1 << j)]
                sign = 1 if (row + pos) % 2 == 0 else -1
                for d1, c1 in enumerate(entry(row, j)):
                    for d2, c2 in enumerate(sub):
                        acc[d1 + d2] += sign * c1 * c2
            minors[mask] = acc
        return minors[(1 << n) - 1]


def charpoly_eigenvalues(m: np.ndarray, dps: int = 120) -> np.ndarray:
    """Roots of the brute-force characteristic polynomial, sorted
    non-increasingly, as real floats (imaginary residue is checked).

    Roots come from the QR eigenvalues of the companion matrix, which
    copes with multiple roots where iterative root polishing stalls.
    """
    with mp.workdps(dps):
        ascending = charpoly_coefficients(m, dps)
        lead = ascending[-1]
        monic = [c / lead for c in ascending[:-1]]
        n = len(monic)
        companion = mp.zeros(n)
        for i in range(1, n):
            companion[i, i - 1] = mp.mpf(1)
        for i in range(n):
            companion[i, n - 1] = -monic[i]
        roots = mp.eig(companion, left=False, right=False)
        if isinstance(roots, tuple):  # 1x1 matrices come back as (E, EL, ER)
            roots = roots[0]
        scale = 1.0 + max(abs(complex(r)) for r in roots)
        worst_imag = max(abs(float(mp.im(r))) for r in roots)
        if worst_imag > 1e-9 * scale:
            raise AssertionError(
                f"characteristic polynomial produced non-real roots (imag {worst_imag:.3e})"
            )
        values = sorted((float(mp.re(r)) for r in roots), reverse=True)
    return np.array(values)


def cofactor_determinant(m: np.ndarray) -> complex:
    """Plain recursive cofactor expansion, float arithmetic."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    rest = a[1:, :]
    for j in range(n):
        minor = np.delete(rest, j, axis=1)
        sign = 1.0 if j % 2 == 0 else -1.0
        total += sign * complex(a[0, j]) * cofactor_determinant(minor)
    return total


def gram_schmidt_unitary(g: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``g`` left to right, subtracting one
    projection at a time; a column left with norm below 1e-12 is replaced
    by the matching basis vector, projected the same way."""
    n = g.shape[0]
    q = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        v = g[:, j].astype(np.complex128)
        for i in range(j):
            v -= np.vdot(q[:, i], v) * q[:, i]
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            v = np.zeros(n, dtype=np.complex128)
            v[j] = 1.0
            for i in range(j):
                v -= np.vdot(q[:, i], v) * q[:, i]
            norm = np.linalg.norm(v)
        q[:, j] = v / norm
    return q


def interleave_permutation(alpha: int, n: int) -> np.ndarray:
    """Permutation aligning two stacked copies block-by-block.

    Coordinate (copy c, block s, inner j), stored at ``c*alpha*n + s*n + j``
    in a direct sum of two copies, is sent to ``s*2n + c*n + j`` so both
    copies of block s become adjacent. Returns the integer index array
    ``image`` with ``image[i]`` the destination of coordinate i.
    Conjugating ``H (+) H`` by the matrix P with ``P[image[i], i] = 1``
    duplicates every block of H.
    """
    if alpha < 1 or n < 1:
        raise ValueError("alpha and n must be positive")
    return np.arange(2 * alpha * n).reshape(alpha, 2, n).transpose(1, 0, 2).ravel()


def two_block_congruence(n: int) -> np.ndarray:
    """The balancing unitary ``W = [[-iI, iI], [I, I]]/sqrt(2)`` of the
    two-isometry construction, I of side n, as a dense 2n x 2n matrix.

    When the off-diagonal block of a 2x2-block H is Hermitian, both
    diagonal n x n blocks of ``W* H W`` equal ``(A+B)/2``; complex
    entries in W are what makes this work even for real H.
    """
    eye = np.eye(n)
    return np.block([[-1j * eye, 1j * eye], [eye, eye]]) / np.sqrt(2.0)


def random_hermitian(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Hermitian matrix with Gaussian entries, Frobenius norm capped at scale*n."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _stream(seed, "hermitian")
    m = _hermitian_draw(rng, n) * scale
    cap = scale * n
    norm = frobenius(m)
    if norm > cap:
        m *= cap / norm
    return m


def random_commuting_family(count: int, n: int, seed: int, scale: float = 1.0) -> list[np.ndarray]:
    """Hermitian matrices sharing one random eigenbasis, hence commuting
    up to roundoff."""
    if count < 1:
        raise ValueError("count must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    rng = _stream(seed, "commuting_family")
    q = _random_unitary(n, rng)
    family = []
    for _ in range(count):
        diag = rng.uniform(-scale, scale, size=n)
        family.append(hermitian_part((q * diag) @ dagger(q)))
    return family


def random_psd(side: int, rank: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """PSD matrix of the given side as a Gram product of a side x rank draw."""
    if side < 1 or rank < 0:
        raise ValueError("side must be positive and rank nonnegative")
    rng = _stream(seed, "psd")
    g = _crandn(rng, (side, max(rank, 1)))
    if rank == 0:
        return np.zeros((side, side), dtype=np.complex128)
    return hermitian_part(g @ dagger(g)) * scale


def rank_one_instance(seed: int, alpha: int, n: int) -> BlockMatrix:
    """``(c c^T) (x) (w w*)`` for real c and complex w: rank one, and
    block (s, t) is the Hermitian ``c_s c_t w w*``. The diagonal of the
    computed ``w w*`` may carry imaginary rounding, so its blocks need not
    be Hermitian bit for bit."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(alpha)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return BlockMatrix(np.kron(np.outer(c, c), np.outer(w, w.conj())), block_dim=n, block_count=alpha)


def singular_values(m) -> np.ndarray:
    """Singular values, non-increasing, through the kernel's LAPACK wrapper."""
    return _lapack("svd", as_matrix(m), compute_uv=False)


def ky_fan_norm(m, k: int) -> float:
    """Sum of the k largest singular values."""
    sv = singular_values(m)
    if not 1 <= k <= sv.size:
        raise ValueError(f"k must lie in [1, {sv.size}], got {k}")
    return float(sv[:k].sum())


def _descending(seq) -> np.ndarray:
    return np.sort(np.asarray(seq, dtype=float))[::-1]


def weak_majorization(s, t, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Partial-sum dominance of t over s, one sub-inequality per length.

    Inputs are sorted non-increasingly and zero-padded to a common
    length; the check passes iff every partial sum of s stays below the
    matching partial sum of t.
    """
    item = _partial_sums_le("partial_sums", _descending(s), _descending(t), tol)
    return CheckReport(checks=(item,), tolerance=tol)
