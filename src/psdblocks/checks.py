"""Norm, eigenvalue, trace and determinant inequality checks.

Every check returns a :class:`CheckReport` whose items carry the computed
left and right sides plus a margin. One slack convention throughout: an
inequality ``lhs <= rhs`` passes iff
``rhs - lhs >= -(atol + rtol * max(|lhs|, |rhs|))`` componentwise, so the
exact equality cases pass by construction. Spectra of different sizes are
compared after padding the shorter one with zeros.
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
    dagger,
    frobenius,
    hermitian_eigvalues,
    hermitian_part,
    singular_values,
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
    "ky_fan_norm",
    "operator_pair_check",
    "report_to_json",
    "run_inequality_suite",
    "trace_concave_check",
    "weak_majorization",
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
        return CheckReport(
            checks=self.checks + other.checks,
            tolerance=self.tolerance,
            warnings=self.warnings + other.warnings,
        )


def compare_le(name: str, lhs, rhs, tol: Tolerance = DEFAULT_TOL) -> Check:
    """Judge ``lhs <= rhs`` componentwise under the shared slack rule.

    A non-finite side cannot be judged: it raises :class:`NumericalError`
    instead of yielding a NaN margin.
    """
    lv = np.atleast_1d(np.asarray(lhs, dtype=float))
    rv = np.atleast_1d(np.asarray(rhs, dtype=float))
    if lv.shape != rv.shape:
        raise ValueError(f"lhs/rhs shape mismatch in check {name!r}: {lv.shape} vs {rv.shape}")
    if not (np.all(np.isfinite(lv)) and np.all(np.isfinite(rv))):
        raise NumericalError(f"check {name!r} has a non-finite side: lhs {lhs}, rhs {rhs}")
    margins = rv - lv
    slacks = tol.atol + tol.rtol * np.maximum(np.abs(lv), np.abs(rv))
    scalar = np.ndim(lhs) == 0
    return Check(
        name=name,
        lhs=float(lv[0]) if scalar else tuple(float(x) for x in lv),
        rhs=float(rv[0]) if scalar else tuple(float(x) for x in rv),
        margin=float(margins.min()),
        passed=bool(np.all(margins >= -slacks)),
    )


def compare_eq(name: str, a, b, tol: Tolerance = DEFAULT_TOL) -> Check:
    """Judge ``a == b`` as the two-sided inequality, same slack rule
    (non-finite sides raise :class:`NumericalError`)."""
    av = np.atleast_1d(np.asarray(a, dtype=float))
    bv = np.atleast_1d(np.asarray(b, dtype=float))
    return compare_le(name, np.concatenate([av, bv]), np.concatenate([bv, av]), tol)


def _descending(seq) -> np.ndarray:
    return np.sort(np.asarray(seq, dtype=float))[::-1]


def _pad_pair(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    length = max(s.size, t.size)
    return (
        np.pad(s, (0, length - s.size)),
        np.pad(t, (0, length - t.size)),
    )


def ky_fan_norm(m, k: int) -> float:
    """Sum of the k largest singular values."""
    sv = singular_values(m)
    if not 1 <= k <= sv.size:
        raise ValueError(f"k must lie in [1, {sv.size}], got {k}")
    return float(sv[:k].sum())


def weak_majorization(s, t, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Partial-sum dominance of t over s, one sub-inequality per length.

    Inputs are sorted non-increasingly and zero-padded to a common
    length; the check passes iff every partial sum of s stays below the
    matching partial sum of t.
    """
    sd, td = _pad_pair(_descending(s), _descending(t))
    item = compare_le("partial_sums", np.cumsum(sd), np.cumsum(td), tol)
    return CheckReport(checks=(item,), tolerance=tol)


def hiroshima_check(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Eigenvalue partial sums of H against those of its partial trace,
    plus the trace-equality identity.

    Works for any block count. When the Hermitian-block hypothesis fails
    the check still runs (so counterexamples are observable) and a
    warning records the offending blocks.
    """
    warnings: tuple[str, ...] = ()
    blocks_report = validate_hermitian_blocks(h, tol)
    if not blocks_report.ok:
        offending = ", ".join(f"({s},{t})" for s, t, _ in blocks_report.offending)
        warnings = (
            f"Hermitian-block hypothesis violated at blocks {offending}; dominance may fail",
        )
    lam_h = hermitian_eigvalues(h.data)
    delta = partial_trace(h)
    lam_d = hermitian_eigvalues(delta)
    sd, td = _pad_pair(lam_h, lam_d)
    sums = compare_le("eigenvalue_partial_sums", np.cumsum(sd), np.cumsum(td), tol)
    traces = compare_eq(
        "trace_equality",
        float(np.trace(h.data).real),
        float(np.trace(delta).real),
        tol,
    )
    return CheckReport(checks=(sums, traces), tolerance=tol, warnings=warnings)


def eigen_step_check(h: BlockMatrix, step: int, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Stepped eigenvalue dominance: the (1 + step*k)-th eigenvalue of H
    below the (1 + k)-th of the partial trace, k = 0..n-1, eigenvalues
    beyond the spectrum counting as zero."""
    if step == 2:
        if h.block_count != 2:
            raise ValueError("step 2 applies to 2x2 block partitions")
    elif step == 4:
        if h.block_count not in (3, 4):
            raise ValueError("step 4 applies to 3x3 or 4x4 block partitions")
    else:
        raise ValueError("step must be 2 or 4")
    n = h.block_dim
    lam_h = hermitian_eigvalues(h.data)
    lam_d = hermitian_eigvalues(partial_trace(h))
    lhs = [float(lam_h[step * k]) if step * k < lam_h.size else 0.0 for k in range(n)]
    rhs = [float(lam_d[k]) for k in range(n)]
    item = compare_le("stepped_eigenvalues", lhs, rhs, tol)
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
    det_h = _det_one_plus(hermitian_eigvalues(h.data))
    det_delta = _det_one_plus(hermitian_eigvalues(partial_trace(h)))
    upper = compare_le("fisher_product_bound", det_h, block_product, tol)
    lower = compare_le("partial_trace_bound", det_delta, det_h, tol)
    return CheckReport(checks=(upper, lower), tolerance=tol)


CONCAVE_IDS = ("log1p", "sqrt", "pow_0.25", "pow_0.5", "pow_0.75", "min")


def _concave_function(fid: str, cap: float):
    if fid == "log1p":
        return np.log1p
    if fid == "sqrt":
        return np.sqrt
    if fid in ("pow_0.25", "pow_0.5", "pow_0.75"):
        power = float(fid.split("_")[1])
        return lambda t: np.power(t, power)
    if fid == "min":
        return lambda t: np.minimum(t, cap)
    raise ValueError(f"unknown concave catalog id {fid!r}; known ids: {CONCAVE_IDS}")


def trace_concave_check(
    s_mat,
    t_mat,
    fid: str,
    tol: Tolerance = DEFAULT_TOL,
    cap: float = 1.0,
) -> CheckReport:
    """Trace of f(S) above trace of f(T) for a concave catalog function,
    valid when the spectrum of S is majorized by that of T.

    The majorization premise is checked; if only the partial sums hold
    but not trace equality (or not even those), the result is advisory
    and a warning says so. ``cap`` parameterizes the ``min`` entry.
    """
    f = _concave_function(fid, cap)
    lam_s = np.clip(hermitian_eigvalues(as_matrix(s_mat)), 0.0, None)
    lam_t = np.clip(hermitian_eigvalues(as_matrix(t_mat)), 0.0, None)
    warnings: tuple[str, ...] = ()
    sd, td = _pad_pair(lam_s, lam_t)
    partial = compare_le("_premise", np.cumsum(sd), np.cumsum(td), tol)
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


def operator_pair_check(
    t_mat, s_list, beta: int, tol: Tolerance = DEFAULT_TOL
) -> CheckReport:
    """Compare sum_i S_i T^2 S_i against sum_i T S_i^2 T in all Ky Fan
    norms (partial sums) and in stepped eigenvalues.

    beta = 2 takes a single S with no commutation requirement and uses
    step 2; beta in {3, 4} requires a pairwise-commuting family of that
    size and uses step 4. For beta = 2 the underlying Gram identity
    (nonzero spectra of X X* and X* X agree for X = [T  ST]) is asserted
    as an extra check.
    """
    if beta not in (2, 3, 4):
        raise ValueError("beta must be 2, 3 or 4")
    t = as_matrix(t_mat)
    mats = [as_matrix(s) for s in s_list]
    expected = 1 if beta == 2 else beta
    if len(mats) != expected:
        raise ValueError(f"beta={beta} needs {expected} S matrices, got {len(mats)}")
    if beta >= 3:
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                commutator = frobenius(mats[i] @ mats[j] - mats[j] @ mats[i])
                scale = frobenius(mats[i]) * frobenius(mats[j])
                if not tol.allows(commutator, scale):
                    raise HypothesisError(
                        f"S_{i + 1} and S_{j + 1} do not commute: ||[S_i, S_j]||_F = {commutator:.6e}"
                    )
    t2 = t @ t
    left = np.zeros_like(t)
    right = np.zeros_like(t)
    for s in mats:
        left += s @ t2 @ s
        right += t @ (s @ s) @ t
    if beta == 2:
        left += t2
        right += t2
    left = hermitian_part(left)
    right = hermitian_part(right)
    lam_l = hermitian_eigvalues(left)
    lam_r = hermitian_eigvalues(right)
    sums = compare_le("pair_partial_sums", np.cumsum(lam_l), np.cumsum(lam_r), tol)
    step = 2 if beta == 2 else 4
    n = t.shape[0]
    stepped = compare_le(
        "pair_stepped_eigenvalues",
        [float(lam_l[step * k]) if step * k < lam_l.size else 0.0 for k in range(n)],
        [float(lam_r[k]) for k in range(n)],
        tol,
    )
    items = [sums, stepped]
    if beta == 2:
        x = np.hstack([t, mats[0] @ t])
        lam_big = hermitian_eigvalues(hermitian_part(dagger(x) @ x))
        small, big = _pad_pair(lam_l, lam_big)
        items.append(compare_eq("gram_spectrum", small, big, tol))
    return CheckReport(checks=tuple(items), tolerance=tol)


def run_inequality_suite(h: BlockMatrix, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Every inequality check that applies to a block matrix, merged.

    Stepped eigenvalue checks join in for 2 to 4 blocks; the
    trace-concave route (log1p against the zero-padded partial trace)
    always runs, mirroring the right determinant bound.
    """
    report = hiroshima_check(h, tol).merged_with(det_sandwich(h, tol))
    if h.block_count == 2:
        report = report.merged_with(eigen_step_check(h, 2, tol))
    elif h.block_count in (3, 4):
        report = report.merged_with(eigen_step_check(h, 4, tol))
    delta = partial_trace(h)
    padded = np.zeros_like(h.data)
    padded[: h.block_dim, : h.block_dim] = delta
    report = report.merged_with(trace_concave_check(h.data, padded, "log1p", tol))
    return report


def report_to_json(report: CheckReport) -> dict:
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
