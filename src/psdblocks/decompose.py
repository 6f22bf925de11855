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

All four kinds are one construction, built by ``_isometry_average``.
Take a target T and a fixed unitary C whose column blocks satisfy
``C_k* T C_k = weight * core_k``: C is the identity, cut into the
slots, for the corner kinds; for two blocks T = H and C is the
balancing unitary ``W = [[-iI, iI], [I, I]]/sqrt(2)``; for the quaternion
route T = H (+) H (H padded to four blocks) and C = M* with
``M = R2 W P``. With ``X_k = sqrt(T) C_k`` the ``X_k X_k*`` sum to T and
every ``X_k* X_k`` is ``weight * core_k``, so factor k is the isometric
polar factor ``X_k (weight * core_k)^(-1/2)``, one eigensolve per
distinct core, or a thin SVD's where that Gram route fails its bounds.
Each X_k is a closed-form sum of column blocks of ``sqrt(H)`` times
fixed entries of C, so C is never formed; :func:`quaternion_stage_defects`
reads the quaternion stages off those same blocks. Positivity is decided
by :func:`validate_hermitian_psd` (through :func:`psd_sqrt`), block
Hermiticity by :func:`validate_hermitian_blocks`.

A certificate is its kind, its target and its factors; the paper fixes
everything else. The weight is one over the number of conjugates
averaged (1, 1/2 or 1/4), the slots of a corner certificate are its
factor widths, and one rule per kind checks the target's structure and
derives the cores from it (the Hermitian parts of its diagonal blocks,
or of their sum) at construction, so a certificate cannot pair factors
with a core of its own choosing. :func:`verify_certificate` recomputes
the defects from scratch so third parties can replay acceptance.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocks import (
    BlockMatrix,
    direct_sum,
    partial_trace,
    validate_hermitian_blocks,
)
from .checks import Check, CheckReport
from .errors import (
    HypothesisError,
    MalformedCertificateError,
    NumericalError,
)
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    _blocks,
    _lapack,
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
    "certificate_from_json",
    "certificate_to_json",
    "corner_decomposition_general",
    "corner_unitary",
    "measure_defects",
    "quaternion_pipeline",
    "quaternion_stage_defects",
    "quaternion_units",
    "two_block_isometries",
    "two_corner_decomposition",
    "verify_certificate",
]

# one over the number of conjugates each kind averages
_WEIGHT = {
    "two_corner": Fraction(1),
    "corner_general": Fraction(1),
    "two_block_isometry": Fraction(1, 2),
    "quaternion": Fraction(1, 4),
}
KINDS = tuple(_WEIGHT)
CORNER_KINDS = ("two_corner", "corner_general")


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


def _polar(x: np.ndarray) -> np.ndarray:
    """Isometric polar factor ``U V*`` of a tall matrix ``X = U diag(s) V*``."""
    left, _, right_h = _lapack("svd", x, full_matrices=False)
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
    left, _, right_h = _lapack("svd", a, full_matrices=True)
    rest = left[:, q:]
    return np.hstack([rest[:, :offset], left[:, :q] @ right_h, rest[:, offset:]])


def _cores(kind: str, t: np.ndarray, widths: list[int]) -> tuple[np.ndarray, ...]:
    """The one rule of each kind: check the target's structure against the
    factor widths and derive the cores from it, the Hermitian part of each
    diagonal slot (corner kinds), of ``A + B`` (two blocks), or of the
    partial trace, doubled (quaternion). Every core is thus exactly
    Hermitian. A sum that overflows raises :class:`NumericalError`."""
    side = t.shape[0]
    if t.shape[1] != side:
        raise MalformedCertificateError("target must be square")
    if kind in CORNER_KINDS:
        if sum(widths) != side:
            raise MalformedCertificateError(f"factor widths {widths} must tile the target side {side}")
        edges = np.cumsum([0, *widths])
        return tuple(hermitian_part(t[a:b, a:b]) for a, b in zip(edges[:-1], edges[1:]))
    if kind == "two_block_isometry":
        if side % 2:
            raise MalformedCertificateError(f"two-block target side {side} must be even")
        core = hermitian_part(partial_trace(BlockMatrix(t, block_dim=side // 2, block_count=2)))
        return core, core
    # quaternion: the target is t (+) t, t of 3 or 4 blocks of side q/2
    half, n = side // 2, (widths[0] // 2 if widths else 0)
    if side % 2 or n < 1 or half % n or half // n not in (3, 4):
        raise MalformedCertificateError(f"quaternion target of side {side} does not fit 3 or 4 doubled blocks of the factor width")
    copy = t[:half, :half]
    if t[:half, half:].any() or t[half:, :half].any() or not np.array_equal(t[half:, half:], copy):
        raise MalformedCertificateError("quaternion target must be two equal diagonal copies")
    delta = hermitian_part(partial_trace(BlockMatrix(copy, block_dim=n, block_count=half // n)))
    return (direct_sum(delta, delta),) * 4


@dataclass(frozen=True, eq=False)
class DecompositionCertificate:
    """Replayable decomposition: ``target ~= weight * sum_k F_k core_k F_k*``.

    Only the kind, target and factors are stored. Construction derives
    the cores, which checks the target's structure, and requires factor k
    to be ``side x w_k``, ``w_k`` the side of ``core_k``. ``weight``
    follows from the kind, ``slots`` (corner kinds) are the factor
    widths, and ``defects`` are measured on first read.
    """

    kind: str
    target: np.ndarray
    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise MalformedCertificateError(f"unknown certificate kind {self.kind!r:.60}")
        object.__setattr__(self, "target", as_matrix(self.target))
        object.__setattr__(self, "factors", tuple(as_matrix(f) for f in self.factors))
        expected = [(self.target.shape[0], core.shape[0]) for core in self.cores]
        shapes = [f.shape for f in self.factors]
        if shapes != expected:
            raise MalformedCertificateError(f"kind {self.kind!r} needs isometries of shapes {expected}, got {shapes}")

    @property
    def weight(self) -> Fraction:
        return _WEIGHT[self.kind]

    @property
    def slots(self) -> tuple[int, ...] | None:
        return tuple(f.shape[1] for f in self.factors) if self.kind in CORNER_KINDS else None

    @functools.cached_property
    def cores(self) -> tuple[np.ndarray, ...]:
        """Per-factor cores, derived from the target by its kind's rule."""
        return _cores(self.kind, self.target, [f.shape[1] for f in self.factors])

    @functools.cached_property
    def defects(self) -> dict:
        """The measured defects, :func:`measure_defects` of this certificate."""
        return measure_defects(self)


def measure_defects(cert: DecompositionCertificate) -> dict:
    """``||target - weight * sum_k F_k core_k F_k*||_F`` and each
    ``||F_k* F_k - I||_F``, recomputed, with no array of the target's size.
    Each Gram ``F_k* F_k`` is made whole, so its bits do not depend on how
    the BLAS splits a product among its threads, and 1 is taken off its
    diagonal in place. Then, for each block of rows (:func:`_blocks`),
    ``left = F_k[rows] (weight * core_k)`` is made for every k, and for each
    block of columns the k products ``left F_k[cols]*`` are added into a
    block-sized part, in order. Only the output dimensions are blocked, so
    each part is that block of the whole sum, bit for bit. The part's
    residual against the target's block is measured at once, and the
    reconstruction defect is the :func:`math.hypot` of these norms, in loop
    order. Every core is Hermitian, so the sum is: only the parts on and
    below the diagonal are made, and each is measured also against the
    target's mirror block, through the part's conjugate transpose. The
    target is read whole, never assumed Hermitian. Each distinct core is
    scaled once by the power-of-two weight (exact in the normal range), so
    no term overflows sooner than the target. A defect that overflows
    raises :class:`NumericalError`."""
    target, blocks = cert.target, _blocks(len(cert.target))
    with np.errstate(over="ignore", invalid="ignore"):
        isometry = []
        for f in cert.factors:
            gram = dagger(f) @ f
            gram.flat[:: len(gram) + 1] -= 1
            isometry.append(frobenius(gram))
        scaled = {id(core): float(cert.weight) * core for core in cert.cores}
        norms = []
        for i, rows in enumerate(blocks):
            lefts = [f[rows] @ scaled[id(core)] for f, core in zip(cert.factors, cert.cores)]
            for j, cols in enumerate(blocks[: i + 1]):
                part = sum(left @ dagger(f[cols]) for f, left in zip(cert.factors, lefts))
                norms.append(frobenius(target[rows, cols] - part))
                if j < i:
                    norms.append(frobenius(target[cols, rows] - dagger(part)))
            del lefts  # not held while the next are made
        residual = math.hypot(*norms)
    if not np.isfinite([residual, *isometry]).all():
        raise NumericalError(f"{cert.kind} defects are not finite: reconstruction {residual}, isometry {isometry}")
    return {"reconstruction": residual, "isometry": isometry}


def _isometry_average(kind: str, target: np.ndarray, blocks, tol: Tolerance) -> DecompositionCertificate:
    """The one construction, defects measured: factor k is the polar factor
    ``X_k Q diag(mu^(-1/2)) Q*`` of ``X_k = blocks[k]``, ``weight * core_k =
    Q diag(mu) Q*``. This Gram route squares the condition number and moves
    a Hermitian-block defect into the isometry defect, over ``min(mu)``
    (Higham, SIAM J. Sci. Stat. Comput. 7, 1986): where a core is not
    positive definite, or the certificate fails :func:`verify_certificate`'s
    bounds under ``tol`` or the default, whichever is tighter in each
    component (so a default ``verify`` passes it), thin SVDs give the factors."""
    strict = Tolerance(min(tol.atol, DEFAULT_TOL.atol), min(tol.rtol, DEFAULT_TOL.rtol))
    cores = _cores(kind, target, [x.shape[1] for x in blocks])
    roots: dict[int, np.ndarray] = {}
    with contextlib.suppress(NumericalError, ValueError):
        for core in cores:
            if id(core) not in roots:
                mu, q = _lapack("eigh", float(_WEIGHT[kind]) * core)
                if not mu[0] > 0:
                    raise NumericalError(f"{kind} core is not positive definite")
                roots[id(core)] = (q / np.sqrt(mu)) @ dagger(q)
                del q  # not held through the factors and their defects
        with np.errstate(over="ignore", invalid="ignore"):  # a factor that overflows fails as_matrix
            cert = DecompositionCertificate(kind, target, tuple(x @ roots[id(c)] for x, c in zip(blocks, cores)))
        if _judged(cert, cert.defects, strict).passed:
            return cert
    cert = DecompositionCertificate(kind, target, tuple(_polar(x) for x in blocks))
    cert.defects  # measured on either route
    return cert


def _hermitian_block_root(h: BlockMatrix, tol: Tolerance, what: str) -> np.ndarray:
    """:func:`psd_sqrt` of an input that must also have Hermitian blocks."""
    offending = validate_hermitian_blocks(h, tol)
    if offending:
        raise HypothesisError(f"{what} needs Hermitian blocks; offending (s, t, defect): {offending}")
    return psd_sqrt(h.data, tol)


def two_corner_decomposition(
    h, n: int, m: int, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Write a PSD matrix of side n+m as ``U A U* + V B V*``.

    A and B are the diagonal corners of H; no hypothesis is placed on the
    off-diagonal block. Realization: column-split the PSD square root
    ``S = [M N]`` (so ``M*M = A``, ``N*N = B`` and ``H = MM* + NN*``);
    U and V are the polar factors of M and N, the slot columns of the
    unitaries :func:`corner_unitary` builds: ``M A^(-1/2)`` and
    ``N B^(-1/2)``, or thin SVDs (``_isometry_average``); defects measured.
    """
    a = as_matrix(h).copy()  # the certificate keeps the target: not the caller's array
    if n < 1 or m < 1:
        raise ValueError("corner widths must be positive")
    if a.shape[0] != a.shape[1] or a.shape[0] != n + m:
        raise ValueError(f"expected a square matrix of side {n + m}, got {a.shape}")
    root = psd_sqrt(a, tol)
    return _isometry_average("two_corner", a, np.hsplit(root, [n]), tol)


def corner_decomposition_general(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Columnwise corner decomposition over all alpha diagonal slots:
    ``H = sum_s F_s A_ss F_s*`` with ``F_s`` the polar factor of slot s's
    columns of ``sqrt(H)``, a ``side x n`` isometry, from one eigensolve
    of ``A_ss`` as in :func:`two_corner_decomposition`.

    Hermitian blocks are not required, only positivity.
    """
    root = psd_sqrt(h.data, tol)
    return _isometry_average("corner_general", h.data, np.hsplit(root, h.block_count), tol)


def two_block_isometries(
    h: BlockMatrix, tol: Tolerance = DEFAULT_TOL
) -> DecompositionCertificate:
    """Average of two isometry conjugates of A+B reconstructing a PSD
    2x2-block matrix with Hermitian blocks.

    With the balancing unitary ``W = [[-iI, iI], [I, I]]/sqrt(2)``, both
    diagonal blocks of ``W* H W`` equal (A+B)/2, so the polar factors of
    the column halves ``-ic R1 + c R2`` and ``ic R1 + c R2`` of
    ``sqrt(H) W`` (R1, R2 the column halves of ``sqrt(H)``,
    ``c = 1/sqrt(2)``) are 2n x n isometries U, V with ``H = (U (A+B) U*
    + V (A+B) V*)/2``, from one eigensolve of (A+B)/2 or thin SVDs
    (``_isometry_average``), defects measured.
    """
    if h.block_count != 2:
        raise ValueError("two-block decomposition needs exactly 2x2 blocks")
    root = _hermitian_block_root(h, tol, "two-block decomposition input")
    r1, r2 = np.hsplit(root, 2)
    c = 1 / np.sqrt(2.0)
    halves = (r1 * (-1j * c) + r2 * c, r1 * (1j * c) + r2 * c)
    return _isometry_average("two_block_isometry", h.data, halves, tol)


_SIGN4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def quaternion_pipeline(
    h: BlockMatrix, beta: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[tuple[np.ndarray, ...], DecompositionCertificate]:
    """Decompose ``H (+) H`` as a quarter of four isometry conjugates of
    the doubled partial trace, for 3 or 4 Hermitian blocks.

    With H zero-padded to four blocks, let ``M = R2 W P``: P duplicates
    every block, W is the direct sum of the four inflated quaternion
    units and R2 the sign-pattern unitary. Every diagonal 2n-block of
    ``M (H (+) H) M*`` is a quarter of the doubled partial trace, so
    factor k is the polar factor of column block k of
    ``x = sqrt(H (+) H) M*``, which is ``1/2 sum_a s_ak kron(u_a*, R_a)``
    over the blocks a of H: R_a is column block a of ``sqrt(H)``, u_a
    the units of :func:`quaternion_units` and s the signs of R2; neither
    M nor P is formed. For beta = 3 the zero rows that the padding adds
    to ``sqrt(H)`` are left out, giving 6n x 2n factors; beta = 4 with a
    3x3 partition keeps them, and the padded target. Returns the four
    column blocks ``X_k`` of x and the certificate: factors from one
    eigensolve of ``(D (+) D)/4`` or thin SVDs, defects measured.
    """
    alpha, n = h.block_count, h.block_dim
    if alpha not in (3, 4):
        raise ValueError(f"partition must have 3 or 4 block rows, got {alpha}")
    if beta not in (3, 4):
        raise ValueError("beta must be 3 or 4")
    if beta == 3 and alpha != 3:
        raise ValueError("beta = 3 requires a 3x3 partition")
    rows = beta * n
    padded_root = np.pad(_hermitian_block_root(h, tol, "quaternion decomposition input"), ((0, rows - h.side), (0, 0)))
    terms = [np.kron(dagger(u) / 2.0, r) for u, r in zip(quaternion_units(), np.hsplit(padded_root, alpha))]
    blocks = [sum(_SIGN4[a, k] * t for a, t in enumerate(terms)) for k in range(4)]
    del padded_root, terms  # the terms are as large as the four blocks: not held through the construction
    # the padded copy of H lives only as direct_sum's two arguments, not through the construction
    cert = _isometry_average("quaternion", direct_sum(*[np.pad(h.data, (0, rows - h.side))] * 2), blocks, tol)
    return tuple(blocks), cert


def quaternion_stage_defects(blocks, cert: DecompositionCertificate) -> tuple[float, float]:
    """``(equal, skew)``, the quaternion route's two stage defects on the
    column blocks of ``x = sqrt(H (+) H) M*`` from :func:`quaternion_pipeline`.

    ``phi = x* x = M (H (+) H) M*`` has four diagonal 2n-blocks equal to
    ``d = (D (+) D)/4``, a quarter of the core: ``equal`` is the largest
    ``||phi_kk - d||_F``. R2 is real, symmetric and its own inverse, so
    ``omega = R2 phi R2 = W P (H (+) H) P* W*``, whose off-diagonal
    2n-blocks B are skew-Hermitian: ``skew`` is the largest ``||B + B*||_F``.
    """
    x = np.hstack(blocks)
    d = cert.cores[0] / 4.0
    w = d.shape[0]
    phi = hermitian_part(dagger(x) @ x).reshape(4, w, 4, w)  # phi[s, :, t] is 2n-block (s, t)
    # R2 = kron(_SIGN4, I)/2, so 2n-block (s, t) of omega is a quarter
    # of the signed sum of phi's blocks (a, b) with signs s_sa s_bt
    signed = np.einsum("sa,aibj,bt->sitj", _SIGN4, phi, _SIGN4, optimize=True)
    omega = hermitian_part(signed.reshape(4 * w, 4 * w) / 4.0).reshape(4, w, 4, w)
    equal = max(frobenius(phi[k, :, k] - d) for k in range(4))
    skew = max(frobenius(omega[s, :, t] + dagger(omega[s, :, t])) for s in range(4) for t in range(4) if s != t)
    return equal, skew


def _judged(cert: DecompositionCertificate, defects: dict, tol: Tolerance) -> CheckReport:
    """Each defect ``d`` judged by ``tol.allows(d, s)`` at its scale ``s``:
    ``1 + ||target||_F`` for the reconstruction, 1 for each isometry. The
    item's rhs is the bound ``tol.slack(s)`` and its margin ``rhs - d``, so
    no second slack is added."""
    named = [("reconstruction_defect", defects["reconstruction"], 1.0 + frobenius(cert.target))]
    named += [(f"isometry_defect_{k}", d, 1.0) for k, d in enumerate(defects["isometry"], 1)]
    items = [Check(name, d, tol.slack(s), tol.slack(s) - d, bool(tol.allows(d, s, name))) for name, d, s in named]
    return CheckReport(checks=tuple(items), tolerance=tol)


def verify_certificate(cert: DecompositionCertificate, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Recompute both certificate defects from scratch and judge them (:func:`_judged`)."""
    return _judged(cert, measure_defects(cert), tol)


def certificate_to_json(cert: DecompositionCertificate, encode=matrix_to_json) -> dict:
    """The certificate's wire payload, each matrix written by ``encode``
    (:func:`matrix_to_json`, or :func:`matrix_to_wire` for :func:`dump_json`)."""
    obj = {
        "kind": cert.kind,
        "weight": str(cert.weight),
        "target": encode(cert.target),
        "factors": [encode(f) for f in cert.factors],
        "defects": {**cert.defects, "isometry": list(cert.defects["isometry"])},
    }
    if cert.slots is not None:
        obj["slots"] = list(cert.slots)
    return obj


def _certificate_header(obj) -> None:
    """What a certificate states before its matrices: an object whose weight is the exact fraction string its kind fixes
    (an unknown kind is rejected on construction). :func:`certificate_from_json` judges it first, ``verify`` before any decode."""
    if not isinstance(obj, dict):
        raise MalformedCertificateError("certificate JSON must be an object")
    try:
        kind, weight = obj["kind"], obj["weight"]
        if type(weight) is not str:  # an object or an array by its JSON type, whose parts a skeleton has yet to read
            got = {dict: "an object", list: "an array"}.get(type(weight)) or f"{weight!r:.20}"
            raise ValueError(f"weight must be an exact fraction string such as \"1/4\", got {got}")
        weight = Fraction(weight)
        if kind in KINDS and weight != _WEIGHT[kind]:
            raise ValueError(f"kind {kind!r} carries weight {weight}, expected {_WEIGHT[kind]}")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MalformedCertificateError(f"malformed certificate JSON: {exc}") from exc


def certificate_from_json(obj) -> DecompositionCertificate:
    """Parse and validate a certificate file. The stated weight, and a corner certificate's slots, must equal what the
    kind and the factors fix, and no other kind may state slots; stated ``"defects"`` (and an earlier ``"core"``) are
    ignored. The header is judged (:func:`_certificate_header`) before any matrix is read."""
    _certificate_header(obj)
    try:
        target = matrix_from_json(obj["target"])
        factors = tuple(matrix_from_json(f) for f in obj["factors"])
        slots = obj.get("slots")
        if "slots" in obj and not (isinstance(slots, list) and all(type(w) is int for w in slots)):
            raise ValueError(f"slots must be a list of integers, got {slots!r:.60}")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"malformed certificate JSON: {exc}") from exc
    cert = DecompositionCertificate(kind=obj["kind"], target=target, factors=factors)
    if cert.slots is None and "slots" in obj:
        raise MalformedCertificateError(f"{cert.kind} certificate must not state slots, got {slots!s:.60}")
    if cert.slots is not None and slots != list(cert.slots):
        raise MalformedCertificateError(f"corner certificate slots {slots!s:.60} must equal the factor widths {list(cert.slots)}")
    return cert
