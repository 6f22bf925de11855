"""Norm, eigenvalue, trace and determinant inequality checks.

Every check returns a :class:`CheckReport` whose items carry the computed
left and right sides plus a margin. Every verdict is
:meth:`~.kernel.Tolerance.allows` at a stated scale: an inequality
``lhs <= rhs`` passes iff ``lhs - rhs <= atol + rtol * scale``
componentwise, the scale ``max(|lhs|, |rhs|)`` unless the check states
another, so the exact equality cases pass by construction. Spectra of
different sizes are compared after padding the shorter one with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix, get_block, partial_trace, validate_hermitian_blocks
from .errors import HypothesisError, NumericalError
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_square,
    dagger,
    hermitian_eigvalues,
    hermitian_part,
)

__all__ = [
    "Check",
    "CheckReport",
    "CONCAVE_IDS",
    "compare_eq",
    "compare_le",
    "det_sandwich",
    "eigen_step_check",
    "hiroshima_check",
    "operator_pair_check",
    "report_to_json",
    "run_inequality_suite",
    "trace_concave_check",
    "weyl_check",
]


@dataclass(frozen=True)
class Check:
    """One named (possibly vector-valued) inequality with its margin."""

    name: str
    lhs: float | tuple[float, ...]
    rhs: float | tuple[float, ...]
    margin: float
    passed: bool


@dataclass(frozen=True)
class CheckReport:
    """A bundle of checks under one tolerance; passes iff every item does."""

    checks: tuple[Check, ...]
    tolerance: Tolerance
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r}")

    def merged_with(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(self.checks + other.checks, self.tolerance, self.warnings + other.warnings)


def compare_le(name: str, lhs, rhs, tol: Tolerance = DEFAULT_TOL, scale=None) -> Check:
    """Judge ``lhs <= rhs`` componentwise as ``tol.allows(lhs - rhs, scale)``, the
    scale (a number or one per component) ``max(|lhs|, |rhs|)`` by default.

    A non-finite side cannot be judged, nor a difference or a slack that
    overflows: each raises :class:`NumericalError` instead of yielding a
    NaN or infinite margin.
    """
    lv = np.atleast_1d(np.asarray(lhs, dtype=float))
    rv = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lv.shape != rv.shape:
        raise ValueError(f"lhs/rhs shape mismatch in check {name!r}: {lv.shape} vs {rv.shape}")
    if not (np.all(np.isfinite(lv)) and np.all(np.isfinite(rv))):
        raise NumericalError(f"check {name!r} has a non-finite side: lhs {lhs}, rhs {rhs}")
    with np.errstate(over="ignore"):
        margins, excess = rv - lv, lv - rv
    margin = float(margins.min())
    if not np.isfinite(margin):
        raise NumericalError(f"check {name!r} has a margin beyond the float range: lhs {lhs}, rhs {rhs}")
    passed = tol.allows(excess, np.maximum(np.abs(lv), np.abs(rv)) if scale is None else scale, name)
    scalar = np.ndim(lhs) == 0
    return Check(
        name=name,
        lhs=float(lv[0]) if scalar else tuple(float(x) for x in lv),
        rhs=float(rv[0]) if scalar else tuple(float(x) for x in rv),
        margin=margin,
        passed=bool(np.all(passed)),
    )


def compare_eq(name: str, a, b, tol: Tolerance = DEFAULT_TOL, scale=None) -> Check:
    """Judge ``a == b`` as the two-sided inequality, same rule and scale
    (non-finite sides raise :class:`NumericalError`)."""
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    scale = None if scale is None else np.concatenate([np.broadcast_to(scale, av.shape)] * 2)
    return compare_le(name, np.concatenate([av, bv]), np.concatenate([bv, av]), tol, scale)


def _partial_sums_le(name: str, s: np.ndarray, t: np.ndarray, tol: Tolerance) -> Check:
    """:func:`compare_le` of the partial sums of s and t, the shorter one
    zero-padded; a sum that overflows raises :class:`NumericalError`."""
    length = max(s.size, t.size)
    with np.errstate(over="ignore"):
        lhs, rhs = (np.cumsum(np.pad(v, (0, length - v.size))) for v in (s, t))
    return compare_le(name, lhs, rhs, tol)


def hiroshima_check(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Eigenvalue partial sums of H against those of its partial trace,
    plus the trace-equality identity.

    Works for any block count. When the Hermitian-block hypothesis fails
    the check still runs (so counterexamples are observable) and a
    warning records the offending blocks.
    """
    warnings: tuple[str, ...] = ()
    bad = validate_hermitian_blocks(h, tol)
    if bad:
        offending = ", ".join(f"({s},{t})" for s, t, _ in bad)
        warnings = (
            f"Hermitian-block hypothesis violated at blocks {offending}; dominance may fail",
        )
    delta = partial_trace(h)
    sums = _partial_sums_le("eigenvalue_partial_sums", h.eigenvalues, h.partial_trace_eigenvalues, tol)
    traces = compare_eq(
        "trace_equality",
        float(np.trace(h.data).real),
        float(np.trace(delta).real),
        tol,
    )
    return CheckReport(checks=(sums, traces), tolerance=tol, warnings=warnings)


def eigen_step_check(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Stepped eigenvalue dominance: the (1 + step*k)-th eigenvalue of H
    below the (1 + k)-th of the partial trace, k = 0..n-1, eigenvalues
    beyond the spectrum counting as zero. The block count fixes the
    step: 2 for 2 blocks, 4 for 3 or 4 blocks."""
    if h.block_count not in (2, 3, 4):
        raise ValueError(f"stepped eigenvalues apply to 2 to 4 blocks, got {h.block_count}")
    step = 2 if h.block_count == 2 else 4
    lam_h = np.pad(h.eigenvalues[::step], (0, h.block_dim))[: h.block_dim]
    item = compare_le("stepped_eigenvalues", lam_h, h.partial_trace_eigenvalues, tol)
    return CheckReport(checks=(item,), tolerance=tol)


def _det_one_plus(values: np.ndarray) -> float:
    try:
        with np.errstate(over="raise", invalid="raise"):
            return float(np.prod(1.0 + values))
    except FloatingPointError as exc:
        raise NumericalError(f"det(I + X) over {values.size} eigenvalues is not finite: {exc}") from exc


def det_sandwich(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Determinant sandwich for I+H between the product of the diagonal
    blocks' determinants and the determinant of I plus the partial trace.

    Determinants are evaluated through spectra (products of 1 + eigenvalue)
    so margins stay meaningful near singularity.
    """
    block_product = 1.0
    for s in range(1, h.block_count + 1):
        lam = hermitian_eigvalues(hermitian_part(np.asarray(get_block(h, s, s))))
        block_product *= _det_one_plus(lam)
    det_h = _det_one_plus(h.eigenvalues)
    det_delta = _det_one_plus(h.partial_trace_eigenvalues)
    upper = compare_le("fisher_product_bound", det_h, block_product, tol)
    lower = compare_le("partial_trace_bound", det_delta, det_h, tol)
    return CheckReport(checks=(upper, lower), tolerance=tol)


_CONCAVE = {
    "log1p": np.log1p,
    "sqrt": np.sqrt,
    "pow_0.25": lambda t: np.power(t, 0.25),
    "pow_0.5": lambda t: np.power(t, 0.5),
    "pow_0.75": lambda t: np.power(t, 0.75),
    "min": lambda t: np.minimum(t, 1.0),
}
CONCAVE_IDS = tuple(_CONCAVE)


def trace_concave_check(s_mat, t_mat, fid: str, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Trace of f(S) above trace of f(T) for a concave catalog function,
    valid when the spectrum of S is majorized by that of T.

    The spectra are those of the Hermitian parts, as in :func:`weyl_check`.
    The majorization premise is checked; if only the partial sums hold
    but not trace equality (or not even those), the result is advisory
    and a warning says so. The ``min`` entry is ``min(t, 1)``.
    """
    lam_s = hermitian_eigvalues(hermitian_part(as_square(s_mat)))
    lam_t = hermitian_eigvalues(hermitian_part(as_square(t_mat)))
    return _trace_concave(lam_s, lam_t, fid, tol)


def _trace_concave(lam_s, lam_t, fid: str, tol: Tolerance) -> CheckReport:
    """:func:`trace_concave_check` on the two non-increasing spectra."""
    if fid not in _CONCAVE:
        raise ValueError(f"unknown concave catalog id {fid!r}; known ids: {CONCAVE_IDS}")
    f = _CONCAVE[fid]
    lam_s = np.clip(lam_s, 0.0, None)
    lam_t = np.clip(lam_t, 0.0, None)
    warnings: tuple[str, ...] = ()
    partial = _partial_sums_le("_premise", lam_s, lam_t, tol)
    total = compare_eq("_premise_trace", float(lam_s.sum()), float(lam_t.sum()), tol)
    if not partial.passed:
        warnings = ("majorization premise fails; trace-concave conclusion is advisory",)
    elif not total.passed:
        warnings = (
            "only weak majorization holds (traces differ); trace-concave conclusion is advisory",
        )
    item = compare_le(
        f"trace_concave_{fid}", float(f(lam_t).sum()), float(f(lam_s).sum()), tol
    )
    return CheckReport(checks=(item,), tolerance=tol, warnings=warnings)


def weyl_check(y, z, r: int, s: int, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Additive eigenvalue bound for Hermitian Y, Z: the (r+s+1)-th
    eigenvalue of Y+Z below the sum of the (r+1)-th of Y and (s+1)-th of Z."""
    ya = as_matrix(y)
    za = as_matrix(z)
    if ya.shape != za.shape or ya.shape[0] != ya.shape[1]:
        raise ValueError("Y and Z must be square matrices of equal side")
    side = ya.shape[0]
    if r < 0 or s < 0 or r + s > side - 1:
        raise ValueError(f"need r, s >= 0 and r+s <= {side - 1}, got r={r}, s={s}")
    lam_sum = hermitian_eigvalues(hermitian_part(ya + za))
    lam_y = hermitian_eigvalues(hermitian_part(ya))
    lam_z = hermitian_eigvalues(hermitian_part(za))
    item = compare_le(
        f"weyl_r{r}_s{s}",
        float(lam_sum[r + s]),
        float(lam_y[r] + lam_z[s]),
        tol,
    )
    return CheckReport(checks=(item,), tolerance=tol)


def operator_pair_check(t_mat, s_list, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Compare sum_i S_i T^2 S_i against sum_i T S_i^2 T (T^2 joining both
    sides for a single S) in all Ky Fan norms and in stepped eigenvalues.

    The pair is the block theorem on a Gram matrix: with the stack
    ``Y = [T S_1; ...; T S_beta]``, or ``Y = [T; T S]`` for a single S,
    ``Y* Y`` is the left side and the partial trace of ``Y Y*`` (blocks
    ``T S_s S_t T``) the right one. Families of 1, 3 or 4 matrices are
    accepted; blocks that are not Hermitian raise
    :class:`HypothesisError`. The ``gram_spectrum`` item checks that the
    zero-padded spectrum of ``Y* Y`` is that of ``Y Y*``, at the
    spectrum's scale: the padding meets eigenvalues of ``Y Y*`` that are
    zero only up to rounding of ``||Y||_2^2``, so each component's scale
    is ``||Y||_2^2 + max(|a|, |b|)``.
    """
    if len(s_list) not in (1, 3, 4):
        raise ValueError(f"operator pairs take 1, 3 or 4 S matrices, got {len(s_list)}")
    t = as_matrix(t_mat)
    y = np.vstack(([t] if len(s_list) == 1 else []) + [t @ as_matrix(s) for s in s_list])
    h = BlockMatrix(hermitian_part(y @ dagger(y)), t.shape[0], max(len(s_list), 2))
    bad = validate_hermitian_blocks(h, tol)
    if bad:
        offending = ", ".join(f"({i},{j})" for i, j, _ in bad)
        raise HypothesisError(f"Gram blocks T S_s S_t T are not Hermitian at {offending}")
    report = hiroshima_check(h, tol).merged_with(eigen_step_check(h, tol))
    lam_small = np.pad(hermitian_eigvalues(hermitian_part(dagger(y) @ y)), (0, h.side - y.shape[1]))
    with np.errstate(over="ignore"):  # a scale that overflows fails in compare_eq
        scale = h.eigenvalues[0] + np.maximum(np.abs(lam_small), np.abs(h.eigenvalues))
    gram = compare_eq("gram_spectrum", lam_small, h.eigenvalues, tol, scale)
    return report.merged_with(CheckReport(checks=(gram,), tolerance=tol))


def run_inequality_suite(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Every inequality check that applies to a block matrix, merged.

    Stepped eigenvalue checks join in for 2 to 4 blocks; the
    trace-concave route (log1p of H against the partial trace, whose
    shorter spectrum :func:`trace_concave_check` pads with zeros) always
    runs, mirroring the right determinant bound. The checks share the
    spectra cached on ``h``.
    """
    report = hiroshima_check(h, tol).merged_with(det_sandwich(h, tol))
    if h.block_count in (2, 3, 4):
        report = report.merged_with(eigen_step_check(h, tol))
    return report.merged_with(_trace_concave(h.eigenvalues, h.partial_trace_eigenvalues, "log1p", tol))


def report_to_json(report: CheckReport) -> dict:
    """The report's wire payload: tolerance, each check's sides, margin
    and verdict, the overall verdict and the warnings."""
    def _value(v):
        return list(v) if isinstance(v, tuple) else v

    return {
        "tolerance": {"atol": report.tolerance.atol, "rtol": report.tolerance.rtol},
        "checks": [
            {
                "name": c.name,
                "lhs": _value(c.lhs),
                "rhs": _value(c.rhs),
                "margin": c.margin,
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "warnings": list(report.warnings),
    }
