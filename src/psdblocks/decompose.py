"""Constructive decompositions of PSD block matrices.

Three families, all emitting replayable certificates of one shape,
``target = weight * sum_k F_k core_k F_k*`` with isometries F_k:

* corner decompositions: a PSD matrix as a sum of isometry conjugates of
  its diagonal blocks (two slots of free widths, or alpha equal slots);
  ``F_s`` is the polar factor of slot s's columns of ``sqrt(H)``, that
  is, the slot columns of the corner lemma's unitary
  :func:`corner_unitary`;
* the two-isometry average for Hermitian-block 2x2 partitions, where the
  matrix becomes half of ``U (A+B) U* + V (A+B) V*``;
* the quaternion-unit route for 3 or 4 Hermitian blocks, decomposing
  ``H (+) H`` into a quarter of four isometry conjugates of the doubled
  partial trace.

The two isometry routes are one construction. Take a target T and a
fixed unitary C whose column blocks satisfy ``C_k* T C_k = core / count``:
for two blocks T = H and C is the balancing unitary of
:func:`two_block_congruence`; for the quaternion route T = H (+) H (H
padded to four blocks) and C = M* with ``M = R2 W P``. With
``X_k = sqrt(T) C_k`` the ``X_k X_k*`` sum to T and every ``X_k* X_k``
is ``core / count``, so factor k is the isometric polar factor of X_k,
whatever the rank.

A certificate stores the target, the factor list and its measured
defects. The cores are not stored: each is a function of the target
(its diagonal blocks, or their sum), so a certificate cannot pair
factors with a core of its own choosing. :func:`verify_certificate`
derives the cores and recomputes the defects from scratch so third
parties can replay acceptance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .blocks import (
    BlockMatrix,
    direct_sum,
    duplicate_blocks,
    interleave_permutation,
    partial_trace,
    validate_hermitian_blocks,
)
from .checks import CheckReport, compare_le
from .errors import (
    DomainError,
    HypothesisError,
    MalformedCertificateError,
    NumericalError,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    frobenius,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    psd_sqrt,
)

__all__ = [
    "CORNER_KINDS",
    "DecompositionCertificate",
    "KINDS",
    "QuaternionStageTrace",
    "certificate_from_json",
    "certificate_to_json",
    "corner_decomposition_general",
    "corner_unitary",
    "isometry_defects",
    "measure_defects",
    "quaternion_pipeline",
    "quaternion_unit_blocks",
    "quaternion_units",
    "reconstruction_residual",
    "two_block_congruence",
    "two_block_isometries",
    "two_corner_decomposition",
    "verify_certificate",
]

KINDS = ("two_corner", "corner_general", "two_block_isometry", "quaternion")
CORNER_KINDS = ("two_corner", "corner_general")

_EXPECTED_WEIGHT = {
    "two_corner": Fraction(1),
    "corner_general": Fraction(1),
    "two_block_isometry": Fraction(1, 2),
    "quaternion": Fraction(1, 4),
}


def quaternion_units() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 2x2 complex representations of the quaternion units 1, i, j, k.

    Entries are exact complex integers, so the unit identities
    ``i^2 = j^2 = k^2 = ijk = -1`` hold with zero floating-point defect.
    """
    one = np.array([[1, 0], [0, 1]], dtype=np.complex128)
    i = np.array([[1j, 0], [0, -1j]], dtype=np.complex128)
    j = np.array([[0, 1j], [1j, 0]], dtype=np.complex128)
    k = np.array([[0, -1], [1, 0]], dtype=np.complex128)
    return one, i, j, k


def quaternion_unit_blocks(n: int) -> tuple[np.ndarray, ...]:
    """The unit matrices inflated to 2n x 2n (each scalar becomes that
    multiple of the n x n identity)."""
    eye = np.eye(n)
    return tuple(np.kron(u, eye) for u in quaternion_units())


def _psd_root(a: np.ndarray, tol: Tolerance, what: str) -> np.ndarray:
    """PSD square root of a validated input, from one eigensolve.

    Hermiticity is judged as in :func:`validate_hermitian_psd`;
    :func:`psd_sqrt` then rejects a too-negative spectrum at the same
    threshold with :class:`DomainError`.
    """
    if frobenius(a - dagger(a)) > tol.slack(frobenius(a)):
        raise DomainError(f"{what} must be PSD, classified 'not_hermitian'")
    return psd_sqrt(a, tol)


def _polar(x: np.ndarray) -> np.ndarray:
    """Isometric polar factor ``U V*`` of a tall matrix ``X = U diag(s) V*``."""
    try:
        left, _, right_h = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {x.shape[0]}x{x.shape[1]} factor: {exc}") from exc
    return left @ right_h


def corner_unitary(m, offset: int) -> np.ndarray:
    """Unitary U with ``M M* = U embed(M*M, offset) U*`` for tall M.

    ``embed(X, offset)`` places the q x q matrix X on the diagonal of a
    p x p zero matrix starting at ``offset``. From the full SVD
    ``M = P diag(s) Q*``, the slot columns of U are the polar factor
    ``P[:, :q] Q*`` and the remaining columns of P fill the other
    coordinates in order. Handles rank deficiency for free since the SVD
    basis is complete.
    """
    a = as_matrix(m)
    p, q = a.shape
    if p < q:
        raise ValueError(f"corner factor must be tall, got shape {p}x{q}")
    if not 0 <= offset <= p - q:
        raise ValueError(f"slot [{offset}, {offset + q}) does not fit in side {p}")
    try:
        left, _, right_h = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {p}x{q} corner factor: {exc}") from exc
    rest = left[:, q:]
    return np.hstack([rest[:, :offset], left[:, :q] @ right_h, rest[:, offset:]])


@dataclass(frozen=True, eq=False)
class DecompositionCertificate:
    """Replayable decomposition: ``target ~= weight * sum_k F_k core_k F_k*``.

    Every factor is a ``side x w_k`` isometry, where ``w_k`` is the side
    of ``core_k``. The cores are derived from the target, never stored
    (see :attr:`cores`): for the corner kinds ``core_k`` is the
    Hermitian part of diagonal slot k (slot widths in ``slots``) and
    ``F_k`` holds the slot columns of the corner lemma's unitary; the
    two-block kind has ``A + B`` for both factors; the quaternion kind
    has the doubled partial trace for all four. ``defects`` holds the
    measured reconstruction residual and per-factor isometry defects.
    """

    kind: str
    target: np.ndarray
    weight: Fraction
    factors: tuple[np.ndarray, ...]
    defects: dict | None = None
    slots: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise MalformedCertificateError(f"unknown certificate kind {self.kind!r}")
        object.__setattr__(self, "target", as_matrix(self.target))
        object.__setattr__(self, "weight", Fraction(self.weight))
        object.__setattr__(self, "factors", tuple(as_matrix(f) for f in self.factors))
        if self.slots is not None:
            object.__setattr__(self, "slots", tuple(int(w) for w in self.slots))

    @functools.cached_property
    def cores(self) -> tuple[np.ndarray, ...]:
        """Per-factor cores, derived from the target; raises
        :class:`MalformedCertificateError` when the target does not have
        the structure its kind requires."""
        return _derive_cores(self)


def _derive_cores(cert: DecompositionCertificate) -> tuple[np.ndarray, ...]:
    t = cert.target
    side = t.shape[0]
    if t.shape[1] != side:
        raise MalformedCertificateError("target must be square")
    if cert.kind in CORNER_KINDS:
        if cert.slots is None:
            raise MalformedCertificateError("corner certificates need slot widths")
        if sum(cert.slots) != side or min(cert.slots) < 1:
            raise MalformedCertificateError("slot widths must tile the target side")
        edges = np.cumsum((0,) + cert.slots)
        return tuple(hermitian_part(t[a:b, a:b]) for a, b in zip(edges[:-1], edges[1:]))
    if cert.kind == "two_block_isometry":
        if side % 2:
            raise MalformedCertificateError(f"two-block target side {side} must be even")
        n = side // 2
        core = hermitian_part(t[:n, :n] + t[n:, n:])
        return core, core
    # quaternion: the target is t (+) t, t of 3 or 4 blocks of side q/2
    half, n = side // 2, (cert.factors[0].shape[1] // 2 if cert.factors else 0)
    if side % 2 or n < 1 or half % n or half // n not in (3, 4):
        raise MalformedCertificateError(
            f"quaternion target of side {side} does not fit 3 or 4 doubled blocks of the factor width"
        )
    copy = t[:half, :half]
    if t[:half, half:].any() or t[half:, :half].any() or not np.array_equal(t[half:, half:], copy):
        raise MalformedCertificateError("quaternion target must be two equal diagonal copies")
    delta = partial_trace(BlockMatrix(copy, block_dim=n, block_count=half // n))
    return (direct_sum(delta, delta),) * 4


def _validate_certificate(cert: DecompositionCertificate) -> None:
    if cert.weight != _EXPECTED_WEIGHT[cert.kind]:
        raise MalformedCertificateError(
            f"kind {cert.kind!r} carries weight {cert.weight}, expected {_EXPECTED_WEIGHT[cert.kind]}"
        )
    cores = cert.cores
    if len(cert.factors) != len(cores):
        raise MalformedCertificateError(
            f"kind {cert.kind!r} needs {len(cores)} factors, got {len(cert.factors)}"
        )
    side = cert.target.shape[0]
    for f, core in zip(cert.factors, cores):
        if f.shape != (side, core.shape[0]):
            raise MalformedCertificateError(
                f"factors must be {side}x{core.shape[0]} isometries, got {f.shape}"
            )


def reconstruction_residual(cert: DecompositionCertificate) -> float:
    """``||target - weight * sum_k F_k core_k F_k*||_F``, recomputed."""
    _validate_certificate(cert)
    acc = np.zeros_like(cert.target)
    for f, core in zip(cert.factors, cert.cores):
        acc += f @ core @ dagger(f)
    return frobenius(cert.target - float(cert.weight) * acc)


def isometry_defects(cert: DecompositionCertificate) -> tuple[float, ...]:
    """``||F*F - I||_F`` for each factor."""
    _validate_certificate(cert)
    return tuple(
        frobenius(dagger(f) @ f - np.eye(f.shape[1])) for f in cert.factors
    )


def measure_defects(cert: DecompositionCertificate) -> dict:
    return {
        "reconstruction": reconstruction_residual(cert),
        "isometry": list(isometry_defects(cert)),
    }


def _certified(cert: DecompositionCertificate) -> DecompositionCertificate:
    return replace(cert, defects=measure_defects(cert))


def two_corner_decomposition(
    h, n: int, m: int, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Write a PSD matrix of side n+m as ``U A U* + V B V*``.

    A and B are the diagonal corners of H; no hypothesis is placed on the
    off-diagonal block. Realization: column-split the PSD square root
    ``S = [M N]`` (so ``M*M = A``, ``N*N = B`` and ``H = MM* + NN*``);
    U and V are the polar factors of M and N, the slot columns of the
    unitaries :func:`corner_unitary` builds.
    """
    a = as_matrix(h)
    if n < 1 or m < 1:
        raise ValueError("corner widths must be positive")
    if a.shape[0] != a.shape[1] or a.shape[0] != n + m:
        raise ValueError(f"expected a square matrix of side {n + m}, got {a.shape}")
    root = _psd_root(a, tol, "corner decomposition input")
    cert = DecompositionCertificate(
        kind="two_corner",
        target=a,
        weight=Fraction(1),
        factors=(_polar(root[:, :n]), _polar(root[:, n:])),
        slots=(n, m),
    )
    return _certified(cert)


def corner_decomposition_general(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Columnwise corner decomposition over all alpha diagonal slots:
    ``H = sum_s F_s A_ss F_s*`` with ``F_s`` the polar factor of slot s's
    columns of ``sqrt(H)``, a ``side x n`` isometry.

    Hermitian blocks are not required, only positivity.
    """
    n, alpha = h.block_dim, h.block_count
    root = _psd_root(h.data, tol, "corner decomposition input")
    cert = DecompositionCertificate(
        kind="corner_general",
        target=h.data.copy(),
        weight=Fraction(1),
        factors=tuple(_polar(root[:, s * n : (s + 1) * n]) for s in range(alpha)),
        slots=(n,) * alpha,
    )
    return _certified(cert)


def two_block_congruence(h: BlockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The balancing congruence of the two-isometry construction.

    Returns ``(W, K)`` with W unitary and ``K = W* H W``. When the
    off-diagonal block of H is Hermitian, both diagonal n x n blocks of K
    equal ``(A+B)/2``; complex entries in W are what makes this work even
    for real H.
    """
    if h.block_count != 2:
        raise ValueError("two-block congruence needs exactly 2x2 blocks")
    n = h.block_dim
    eye = np.eye(n)
    w = np.block([[-1j * eye, 1j * eye], [eye, eye]]) / np.sqrt(2.0)
    k = hermitian_part(dagger(w) @ h.data @ w)
    return w, k


def two_block_isometries(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Average of two isometry conjugates of A+B reconstructing a PSD
    2x2-block matrix with Hermitian blocks.

    With W the balancing congruence of :func:`two_block_congruence`, both
    diagonal blocks of ``W* H W`` equal (A+B)/2, so the polar factors of
    ``sqrt(H) W[:, :n]`` and ``sqrt(H) W[:, n:]`` are 2n x n isometries
    U, V with ``H = (U (A+B) U* + V (A+B) V*)/2``.
    """
    if h.block_count != 2:
        raise ValueError("two-block decomposition needs exactly 2x2 blocks")
    report = validate_hermitian_blocks(h, tol)
    if not report.ok:
        raise HypothesisError(
            f"off-diagonal blocks must be Hermitian; offending (s, t, defect): {report.offending}"
        )
    root = _psd_root(h.data, tol, "two-block decomposition input")
    n = h.block_dim
    w, _ = two_block_congruence(h)
    x = root @ w
    cert = DecompositionCertificate(
        kind="two_block_isometry",
        target=h.data.copy(),
        weight=Fraction(1, 2),
        factors=(_polar(x[:, :n]), _polar(x[:, n:])),
    )
    return _certified(cert)


_SIGN4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


@dataclass(frozen=True, eq=False)
class QuaternionStageTrace:
    """Intermediate matrices of the quaternion route, kept for stage checks.

    ``g`` is the block-duplicated (zero-padded) input, ``w`` the direct
    sum of the four inflated quaternion units and ``r2`` the sign-pattern
    unitary. ``omega = w @ g @ w*`` has skew-Hermitian off-diagonal
    2n-blocks; ``phi = r2 @ omega @ r2*`` has all four diagonal 2n-blocks
    equal to ``d``, a quarter of the doubled partial trace. Both are
    computed on first access only.
    """

    g: np.ndarray
    w: np.ndarray
    r2: np.ndarray
    d: np.ndarray

    @functools.cached_property
    def omega(self) -> np.ndarray:
        return hermitian_part(self.w @ self.g @ dagger(self.w))

    @functools.cached_property
    def phi(self) -> np.ndarray:
        return hermitian_part(self.r2 @ self.omega @ dagger(self.r2))


def quaternion_pipeline(
    h: BlockMatrix, beta: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[QuaternionStageTrace, DecompositionCertificate]:
    """Decompose ``H (+) H`` as a quarter of four isometry conjugates of
    the doubled partial trace, for 3 or 4 Hermitian blocks.

    With H zero-padded to four blocks, let ``M = R2 W P``: P duplicates
    every block, W is the direct sum of the four inflated quaternion
    units and R2 the sign-pattern unitary. Every diagonal 2n-block of
    ``M (H (+) H) M*`` is a quarter of the doubled partial trace, so
    factor k is the polar factor of ``sqrt(H (+) H)`` times column block
    k of ``M*``. M* is assembled from signed unit blocks and a row
    gather, never as a matrix product. For beta = 3 the padded rows of
    ``sqrt(H (+) H)`` are zero and are left out, giving 6n x 2n factors;
    beta = 4 with a 3x3 partition keeps the padded target instead.

    Returns the stage trace alongside the certificate.
    """
    alpha, n = h.block_count, h.block_dim
    if beta not in (3, 4):
        raise ValueError("beta must be 3 or 4")
    if alpha not in (3, 4):
        raise ValueError("partition must have 3 or 4 block rows")
    if beta == 3 and alpha != 3:
        raise ValueError("beta = 3 requires a 3x3 partition")
    report = validate_hermitian_blocks(h, tol)
    if not report.ok:
        raise HypothesisError(
            f"all blocks must be Hermitian; offending (s, t, defect): {report.offending}"
        )
    root = _psd_root(h.data, tol, "quaternion decomposition input")
    rows = beta * n
    padded_root = np.zeros((rows, 4 * n), dtype=np.complex128)
    padded_root[: h.side, : h.side] = root
    units = quaternion_unit_blocks(n)
    m_star = np.vstack(
        [np.kron(_SIGN4[a : a + 1] / 2.0, dagger(unit)) for a, unit in enumerate(units)]
    )[interleave_permutation(4, n)]
    x = np.vstack([padded_root @ m_star[: 4 * n], padded_root @ m_star[4 * n :]])
    padded = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    padded[: h.side, : h.side] = h.data
    cert = _certified(
        DecompositionCertificate(
            kind="quaternion",
            target=direct_sum(padded[:rows, :rows], padded[:rows, :rows]),
            weight=Fraction(1, 4),
            factors=tuple(_polar(x[:, 2 * n * k : 2 * n * (k + 1)]) for k in range(4)),
        )
    )
    trace = QuaternionStageTrace(
        g=duplicate_blocks(BlockMatrix(padded, block_dim=n, block_count=4)).data,
        w=functools.reduce(direct_sum, units),
        r2=np.kron(_SIGN4, np.eye(2 * n)).astype(np.complex128) / 2.0,
        d=cert.cores[0] / 4.0,
    )
    return trace, cert


def verify_certificate(
    cert: DecompositionCertificate, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Recompute both certificate defects from scratch and judge them.

    The reconstruction bound scales with ``1 + ||target||_F``; isometry
    defects are judged at unit scale.
    """
    residual = reconstruction_residual(cert)
    bound = tol.slack(1.0 + frobenius(cert.target))
    items = [compare_le("reconstruction_defect", residual, bound, tol)]
    for k, defect in enumerate(isometry_defects(cert), start=1):
        items.append(compare_le(f"isometry_defect_{k}", defect, tol.slack(1.0), tol))
    return CheckReport(checks=tuple(items), tolerance=tol)


def certificate_to_json(cert: DecompositionCertificate) -> dict:
    obj = {
        "kind": cert.kind,
        "weight": str(cert.weight),
        "target": matrix_to_json(cert.target),
        "factors": [matrix_to_json(f) for f in cert.factors],
        "defects": {
            "reconstruction": float(cert.defects["reconstruction"]),
            "isometry": [float(d) for d in cert.defects["isometry"]],
        }
        if cert.defects is not None
        else None,
    }
    if cert.slots is not None:
        obj["slots"] = list(cert.slots)
    return obj


def certificate_from_json(obj) -> DecompositionCertificate:
    if not isinstance(obj, dict):
        raise MalformedCertificateError("certificate JSON must be an object")
    try:
        kind = obj["kind"]
        weight = Fraction(obj["weight"])
        target = matrix_from_json(obj["target"])
        factors = tuple(matrix_from_json(f) for f in obj["factors"])
    except MalformedCertificateError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedCertificateError(f"malformed certificate JSON: {exc}") from exc
    defects = obj.get("defects")
    slots = tuple(int(w) for w in obj["slots"]) if "slots" in obj else None
    cert = DecompositionCertificate(
        kind=kind,
        target=target,
        weight=weight,
        factors=factors,
        defects=defects,
        slots=slots,
    )
    _validate_certificate(cert)
    return cert
