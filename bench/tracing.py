"""In-memory span tracer for the traced benchmark run.

The package is not edited. Instead the tracer rebinds, for the length of
a run, the names that each ``psdblocks`` module looks up at call time
(``psdblocks.cli.quaternion_pipeline``,
``psdblocks.decompose.corner_decomposition_general``, ...), plus
``numpy.linalg.{eigh,eigvalsh,svd}``, ``json.{dumps,loads}`` and
``pathlib.Path.{write_text,read_text}``. Every wrapped call records a
span ``[name, start, end, parent, op]``; self time is a span's duration
minus the durations of its direct children. Counts that repeat exactly
(LAPACK calls and sides, JSON entries, bytes, validations) are recorded
at the same boundaries. Only calls made inside an op's root ``cli`` span
are recorded, so the benchmark's own correctness gate stays out.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

# (span name, defining module, attribute). Every module of the package
# that binds the same function object gets the wrapper.
PACKAGE_TARGETS = (
    ("kernel.validate_hermitian_psd", "psdblocks.kernel", "validate_hermitian_psd"),
    ("kernel.matrix_to_json", "psdblocks.kernel", "matrix_to_json"),
    ("kernel.matrix_from_json", "psdblocks.kernel", "matrix_from_json"),
    ("blocks.validate_hermitian_blocks", "psdblocks.blocks", "validate_hermitian_blocks"),
    ("blocks.duplicate_blocks", "psdblocks.blocks", "duplicate_blocks"),
    ("blocks.block_matrix_to_json", "psdblocks.blocks", "block_matrix_to_json"),
    ("blocks.block_matrix_from_json", "psdblocks.blocks", "block_matrix_from_json"),
    ("decompose.quaternion_pipeline", "psdblocks.decompose", "quaternion_pipeline"),
    ("decompose.two_block_isometries", "psdblocks.decompose", "two_block_isometries"),
    ("decompose.corner_decomposition_general", "psdblocks.decompose", "corner_decomposition_general"),
    ("decompose.corner_unitary", "psdblocks.decompose", "corner_unitary"),
    ("decompose.measure_defects", "psdblocks.decompose", "measure_defects"),
    ("decompose.certificate_to_json", "psdblocks.decompose", "certificate_to_json"),
    ("decompose.certificate_from_json", "psdblocks.decompose", "certificate_from_json"),
    ("decompose.verify_certificate", "psdblocks.decompose", "verify_certificate"),
    ("checks.run_inequality_suite", "psdblocks.checks", "run_inequality_suite"),
    ("checks.hiroshima_check", "psdblocks.checks", "hiroshima_check"),
    ("checks.det_sandwich", "psdblocks.checks", "det_sandwich"),
    ("checks.eigen_step_check", "psdblocks.checks", "eigen_step_check"),
    ("checks.trace_concave_check", "psdblocks.checks", "trace_concave_check"),
    ("checks.report_to_json", "psdblocks.checks", "report_to_json"),
    ("generate.random_block_psd", "psdblocks.generate", "random_block_psd"),
)

# The package calls svd only with full U and V or for singular values only.
LAPACK_FLOP_FORMULA = (
    "computed, not measured: real flops per call, times 4 for complex input "
    "(m >= n are the sides): eigh 9n^3, eigvalsh 4n^3/3, svd with full U and V "
    "4m^2n + 8mn^2 + 9n^3, singular values only 4mn^2 - 4n^3/3"
)


def _lapack_flops(name: str, a, args, kwargs) -> Fraction:
    """Exact, so a run's per-op total does not depend on summation order."""
    a = np.asarray(a)
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    if name == "kernel.eigh":
        flops = Fraction(9 * n**3)
    elif name == "kernel.eigvalsh":
        flops = Fraction(4 * n**3, 3)
    elif kwargs.get("compute_uv", args[1] if len(args) > 1 else True):
        flops = Fraction(4 * m**2 * n + 8 * m * n**2 + 9 * n**3)
    else:
        flops = 4 * m * n**2 - Fraction(4 * n**3, 3)
    return flops * (4 if np.iscomplexobj(a) else 1)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside an op, e.g. the correctness gate
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package_modules) -> None:
        """Wrap every target in every module of the package that binds it."""
        for name, home, attr in PACKAGE_TARGETS:
            fn = getattr(package_modules[home], attr)
            observe = self._count_entries if name == "kernel.matrix_to_json" else None
            wrapper = self.wrap(name, fn, observe)
            for mod in package_modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)
        for short in ("eigh", "eigvalsh", "svd"):
            name = f"kernel.{short}"
            wrapper = self.wrap(name, getattr(np.linalg, short), self._lapack_observer(name))
            self._rebind(np.linalg, short, wrapper)
        self._rebind(json, "dumps", self.wrap("cli.json_encode", json.dumps))
        self._rebind(json, "loads", self.wrap("cli.json_decode", json.loads))
        write_text, read_text = pathlib.Path.write_text, pathlib.Path.read_text
        counts, stack = self.counts, self._stack

        def counted_write(path, *args, **kwargs):
            written = write_text(path, *args, **kwargs)
            if stack:
                counts["cli.bytes_written"] += path.stat().st_size
            return written

        def counted_read(path, *args, **kwargs):
            if stack:
                counts["cli.bytes_read"] += path.stat().st_size
            return read_text(path, *args, **kwargs)

        self._rebind(pathlib.Path, "write_text", counted_write)
        self._rebind(pathlib.Path, "read_text", counted_read)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def _count_entries(self, args, kwargs, result) -> None:
        self.counts["kernel.matrix_to_json.entries"] += result["rows"] * result["cols"]

    def _lapack_observer(self, name: str):
        counts, maxima = self.counts, self.maxima

        def observe(args, kwargs, result):
            a = args[0]
            counts["kernel.lapack.flops"] += _lapack_flops(name, a, args[1:], kwargs)
            maxima[name] = max(maxima[name], max(np.shape(a)[-2:]))

        return observe

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and call count per span name."""
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child_time[idx]
            calls[name] += 1
        return inclusive, own, calls


def per_layer_metrics(names, tracer: Tracer, ops: int, timed_s: float, false_fails: int) -> dict:
    """Derive the named per-layer metrics, per op, from one traced run.

    A name ``<span>.ms``, ``.self_ms`` or ``.calls`` is the inclusive
    time, self time or call count of that span; ``<span>.max_side`` the
    largest matrix side it saw; the others are derived below.
    """
    inclusive, own, calls = tracer.totals()
    certs = calls["decompose.certificate_to_json"]
    derived = {
        "kernel.lapack.computed_gflop": float(tracer.counts["kernel.lapack.flops"] / ops) / 1e9,
        "kernel.matrix_to_json.entries": tracer.counts["kernel.matrix_to_json.entries"] / ops,
        "decompose.measure_defects.calls_per_cert": (
            calls["decompose.measure_defects"] / certs if certs else 0.0
        ),
        "checks.false_fail.count": false_fails / ops,
        "cli.bytes_written": tracer.counts["cli.bytes_written"] / ops,
        "cli.bytes_read": tracer.counts["cli.bytes_read"] / ops,
        "trace.ops_per_s": ops / timed_s,
    }
    values = {}
    for metric in names:
        span, _, field = metric.rpartition(".")
        if metric in derived:
            values[metric] = derived[metric]
        elif field == "ms":
            values[metric] = 1e3 * inclusive.get(span, 0.0) / ops
        elif field == "self_ms":
            values[metric] = 1e3 * own.get(span, 0.0) / ops
        elif field == "calls":
            values[metric] = calls[span] / ops
        elif field == "max_side":
            values[metric] = tracer.maxima[span]
        else:
            raise ValueError(f"no derivation for per-layer metric {metric!r}")
    return values
