"""Dense complex-matrix kernel shared by every other module.

Matrices are plain numpy arrays with dtype complex128. All functions are
pure: arguments are never mutated and outputs are freshly allocated.

:func:`validate_hermitian_psd` is the one PSD acceptance rule, and every
LAPACK call goes through ``_lapack``, the one place a LAPACK failure
becomes a :class:`NumericalError`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "dagger",
    "frobenius",
    "hermitian_eigvalues",
    "hermitian_part",
    "matrix_from_json",
    "matrix_object_hook",
    "matrix_to_json",
    "matrix_to_wire",
    "psd_sqrt",
    "singular_values",
    "validate_hermitian_psd",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm as a Python float.

    ``np.linalg.norm`` squares the entries, so above about 1e154 it
    overflows; only then is the norm recomputed on the matrix scaled by a
    power of two (exact), so the common path is unchanged.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if norm == np.inf:
            a = np.asarray(m)
            exponent = np.frexp(np.max(np.abs(a)))[1]
            norm = float(np.ldexp(np.linalg.norm(a * np.ldexp(1.0, -exponent)), exponent))
    return norm


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(M + M*)/2``, or ``M/2 + M*/2`` when the sum overflows, so every
    finite M gives a finite result."""
    try:
        with np.errstate(over="raise"):
            return 0.5 * (m + dagger(m))
    except FloatingPointError:
        return 0.5 * m + 0.5 * dagger(m)


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative slack.

    A defect ``d`` measured on a quantity of scale ``s`` is acceptable iff
    ``d <= atol + rtol * s``.
    """

    atol: float = 1e-10
    rtol: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 <= self.atol < np.inf and 0.0 <= self.rtol < np.inf):
            raise ValueError(f"tolerance components must be finite nonnegative reals, got atol={self.atol}, rtol={self.rtol}")

    def slack(self, scale: float = 0.0) -> float:
        return self.atol + self.rtol * abs(scale)

    def allows(self, defect: float, scale: float = 0.0) -> bool:
        return defect <= self.slack(scale)


DEFAULT_TOL = Tolerance()


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


def _lapack(routine: str, a: np.ndarray, **kwargs):
    """``numpy.linalg.<routine>(a, **kwargs)``, looked up at call time; a
    LAPACK failure raises :class:`NumericalError`."""
    try:
        return getattr(np.linalg, routine)(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{routine} did not converge on a {a.shape[0]}x{a.shape[1]} matrix: {exc}") from exc


def as_square(m) -> np.ndarray:
    """:func:`as_matrix` of a square matrix; another shape raises :class:`DomainError`."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got {a.shape[0]}x{a.shape[1]}")
    return a


def validate_hermitian_psd(m, tol: Tolerance = DEFAULT_TOL, values=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The eigenpairs ``(values, vectors)`` of a PSD matrix, values
    non-increasing; a non-square, non-Hermitian or non-PSD input raises
    :class:`DomainError`. Given ``values``, M's spectrum as above, no
    eigensolve runs and ``vectors`` is None.

    Hermiticity is ``||M - M*||_F`` within the slack ``atol + rtol*||M||_F``;
    positivity is the smallest eigenvalue of the Hermitian part at least
    ``-slack`` (it is returned as measured, not clamped).
    """
    a = as_square(m)
    slack = tol.slack(frobenius(a))
    skew = frobenius(a - dagger(a))
    if skew > slack:
        raise DomainError(f"matrix is not Hermitian within tolerance: ||M - M*||_F {skew:.6e} > {slack:.6e}")
    v = None
    if values is None:
        w, v = _lapack("eigh", hermitian_part(a))
        # non-increasing order, copied contiguous: the roots stay bit-for-bit stable
        values, v = w[::-1].copy(), v[:, ::-1].copy()
    smallest = float(values[-1])
    if smallest < -slack:
        raise DomainError(f"matrix is not PSD within tolerance: min eigenvalue {smallest:.6e} < {-slack:.6e}")
    return values, v


def hermitian_eigvalues(m) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, non-increasing, no vectors.

    Only the lower triangle is read; a caller whose matrix may not be
    Hermitian passes its :func:`hermitian_part`."""
    return _lapack("eigvalsh", as_square(m))[::-1].copy()


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a matrix :func:`validate_hermitian_psd`
    accepts; eigenvalues within the slack below zero are clamped to zero
    before rooting."""
    values, v = validate_hermitian_psd(m, tol)
    roots = np.sqrt(np.clip(values, 0.0, None))
    return hermitian_part((v * roots) @ dagger(v))


def singular_values(m) -> np.ndarray:
    """Singular values, non-increasing."""
    return _lapack("svd", as_matrix(m), compute_uv=False)


def matrix_to_wire(m) -> dict:
    """Wire format: {"rows", "cols", "entries": [[re, im], ...]} row-major,
    with the entries as the matrix's own C-contiguous ``(rows*cols, 2)``
    float64 view, which orjson writes with ``OPT_SERIALIZE_NUMPY`` without
    building a Python float per entry."""
    a = np.ascontiguousarray(as_matrix(m))
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": a.view(np.float64).reshape(-1, 2)}


def matrix_to_json(m) -> dict:
    """:func:`matrix_to_wire` with the entries as plain lists, for stdlib
    ``json`` and ``==``."""
    obj = matrix_to_wire(m)
    obj["entries"] = obj["entries"].tolist()
    return obj


_NUMBER = {int, float}  # by exact type, so bool and str entries are rejected


def _malformed_entry(entries: list) -> ValueError:
    """The error naming the first bad entry; built on the rejection path only."""
    for i, pair in enumerate(entries):
        if not (type(pair) is list and len(pair) == 2 and {type(pair[0]), type(pair[1])} <= _NUMBER):
            return ValueError(f"malformed matrix entry at index {i}: expected a pair of numbers [re, im], got {pair!r:.60}")
        try:
            complex(pair[0], pair[1])
        except OverflowError as exc:
            return ValueError(f"malformed matrix entry at index {i}: {exc}")
    return ValueError("malformed matrix entries")


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format, validating shape and finiteness (an
    array, as :func:`matrix_object_hook` leaves one, is :func:`as_matrix`'d)."""
    if isinstance(obj, np.ndarray):
        return as_matrix(obj)
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ValueError(f"malformed matrix JSON: missing {exc}") from exc
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"matrix rows and cols must be integers, got {rows!r:.20} and {cols!r:.20}")
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries) if isinstance(entries, list) else type(entries).__name__}")
    # exact-type checks in C-level passes, then one preallocated fill: np.array
    # over the nested lists would coerce [1.0, false] and peak at three times
    # the result's memory
    if (
        set(map(type, entries)) != {list}
        or set(map(len, entries)) != {2}
        or not set(map(type, chain.from_iterable(entries))) <= _NUMBER
    ):
        raise _malformed_entry(entries)
    try:
        flat = np.fromiter(chain.from_iterable(entries), np.float64, count=2 * rows * cols)
    except OverflowError:
        raise _malformed_entry(entries) from None
    return as_matrix(flat.view(np.complex128).reshape(rows, cols))


def matrix_object_hook(obj: dict):
    """``json.loads`` object hook: an object whose keys are exactly rows, cols
    and entries becomes its :func:`matrix_from_json` array as the parser closes
    it; one that does not decode stays a dict, for its reader to reject in order."""
    if obj.keys() == {"rows", "cols", "entries"}:
        with contextlib.suppress(ValueError):
            return matrix_from_json(obj)
    return obj
