"""Dense complex-matrix kernel shared by every other module.

Matrices are plain numpy arrays with dtype complex128. All functions are
pure: arguments are never mutated and outputs are freshly allocated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "DEFAULT_TOL",
    "PsdClass",
    "Spectrum",
    "Tolerance",
    "as_matrix",
    "dagger",
    "frobenius",
    "hermitian_eig",
    "hermitian_eigvalues",
    "hermitian_part",
    "matrix_from_json",
    "matrix_to_json",
    "psd_sqrt",
    "singular_values",
    "validate_hermitian_psd",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm as a Python float."""
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative slack.

    A defect ``d`` measured on a quantity of scale ``s`` is acceptable iff
    ``d <= atol + rtol * s``.
    """

    atol: float = 1e-10
    rtol: float = 1e-8

    def __post_init__(self) -> None:
        if not (self.atol >= 0.0 and self.rtol >= 0.0):
            raise ValueError("tolerance components must be nonnegative reals")

    def slack(self, scale: float = 0.0) -> float:
        return self.atol + self.rtol * abs(scale)

    def allows(self, defect: float, scale: float = 0.0) -> bool:
        return defect <= self.slack(scale)


DEFAULT_TOL = Tolerance()


class PsdClass(enum.Enum):
    """Outcome of :func:`validate_hermitian_psd`."""

    NOT_SQUARE = "not_square"
    NOT_HERMITIAN = "not_hermitian"
    NOT_PSD = "not_psd"
    PSD = "psd"


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def validate_hermitian_psd(m, tol: Tolerance = DEFAULT_TOL) -> PsdClass:
    """Classify a matrix as PSD, or report which hypothesis breaks first.

    Hermiticity is measured by ``||M - M*||_F`` against the scale
    ``||M||_F``; positivity by the smallest eigenvalue of the Hermitian
    part against the same scale.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return PsdClass.NOT_SQUARE
    scale = frobenius(a)
    if frobenius(a - dagger(a)) > tol.slack(scale):
        return PsdClass.NOT_HERMITIAN
    lo = float(hermitian_eigvalues(hermitian_part(a))[-1])
    if lo < -tol.slack(scale):
        return PsdClass.NOT_PSD
    return PsdClass.PSD


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in non-increasing order; ``vectors`` columns, when
    present, are the matching orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def hermitian_eig(m) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    The caller is responsible for Hermiticity (only one triangle is read).
    Eigenvalues come out non-increasing, eigenvector columns in matching
    order.
    """
    a = as_matrix(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver did not converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}"
        ) from exc
    return Spectrum(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def hermitian_eigvalues(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, non-increasing, no vectors."""
    a = as_matrix(m)
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver did not converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}"
        ) from exc
    return w[::-1].copy()


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a PSD matrix.

    Eigenvalues in ``[-(atol + rtol*||M||_F), 0)`` are clamped to zero
    before rooting; anything more negative raises :class:`DomainError`.
    """
    a = as_matrix(m)
    spectrum = hermitian_eig(hermitian_part(a))
    floor = -tol.slack(frobenius(a))
    smallest = float(spectrum.values[-1])
    if smallest < floor:
        raise DomainError(
            f"matrix is not PSD within tolerance: min eigenvalue {smallest:.6e} < {floor:.6e}"
        )
    roots = np.sqrt(np.clip(spectrum.values, 0.0, None))
    v = spectrum.vectors
    return hermitian_part((v * roots) @ dagger(v))


def singular_values(m) -> np.ndarray:
    """Singular values, non-increasing."""
    a = as_matrix(m)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on shape {a.shape}: {exc}") from exc


def matrix_to_json(m) -> dict:
    """Wire format: {"rows", "cols", "entries": [[re, im], ...]} row-major."""
    a = as_matrix(m)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format, validating shape and finiteness."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    flat = np.empty(rows * cols, dtype=np.complex128)
    try:
        for i, pair in enumerate(entries):
            re, im = pair
            flat[i] = complex(float(re), float(im))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix entry at index {i}: {exc}") from exc
    return as_matrix(flat.reshape(rows, cols))
