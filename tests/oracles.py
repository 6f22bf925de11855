"""Independent desk-scale oracles used by the test suite.

The characteristic polynomial is built by brute-force Laplace expansion
by minors (memoized over column subsets, still the plain cofactor sum)
in high-precision arithmetic, and its roots come from a general
polynomial root finder. Nothing here shares code with the package's
LAPACK-backed spectral routines. The unitary reference is plain
left-looking Gram-Schmidt, one column and one projection at a time.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np


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
