#!/usr/bin/env python3
"""Benchmark of the psdblocks command line, driven in-process.

Usage, from the root of a source checkout (nothing to install; the
package is imported from ``src/``):

    python3 bench/run.py --workload produce --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one client, one process, one BLAS thread):

* ``produce``: each op is ``gen`` then ``decompose``, cycling through
  quaternion beta 4 (alpha 4, n 64), quaternion beta 3 (alpha 3, n 64)
  and ``--two-block`` (alpha 2, n 128).
* ``replay``: each op is ``verify cert.json -o report.json`` on a
  certificate set produced during set-up, including one tampered
  certificate (must exit 1) and one malformed one (must exit 2).
* ``check_sweep``: each op is ``check --trials T``, cycling through
  small tiers at T = 10 and large tiers at T = 1.

A run is made of whole cycles and lasts until ``--seconds`` of op time
and the workload's minimum op count (``workloads.MIN_OPS``) are reached.
Every op then passes a correctness gate outside the timed region, in a
forked child process so that its memory stays out of ``peak_rss_mb``:
exit codes, report contents, and a reload and re-verification of every
produced certificate. An op that fails the gate counts in ``failed``;
``correct`` turns false only when an op claimed success with a wrong
output, or a certificate that must be rejected was accepted.

Set-up runs in child processes: a fresh interpreter imports the package
and writes the workload's inputs, at least three times; ``setup_s`` is
the median. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload with every layer wrapped (see ``tracing.py``) and
prints the per-layer metrics, per op. Metric names, their order and
units are those listed in ``BENCHMARK.json``. The last line of standard output
is the result as JSON; the line before it, prefixed ``detail``, carries
the provenance and the figures that are not gated (``op_ms_p50``,
``op_ms_p90``, ``fail_ratio``, per-class medians, failure reasons).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("produce", "replay", "check_sweep")
# Set-up is repeated at least this many times and for at least this
# long; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
# One BLAS thread: on a small shared machine a second thread mostly adds
# run-to-run spread.
BLAS_THREADS = 1
# No new cycle starts after this much wall time, so a run on a slow
# machine still ends well inside three minutes.
WALL_LIMIT_S = 100.0


def setup_environment() -> None:
    """Pin BLAS threads and put the checkout's ``src`` first on the path.

    Must run before numpy is imported. Exits with an error when the
    checkout holds no package source.
    """
    if not (SRC / "psdblocks" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'psdblocks'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        commit = lines[1] if git.returncode == 0 and Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "psdblocks").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(np)},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
    }


def _blas_threads(np) -> int:
    """Thread count OpenBLAS reports, or the pinned environment value."""
    import ctypes

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        return int(getter())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def run_setup(workload: str, seed: int, inputs: Path, smoke: bool, once: bool) -> list[float]:
    """Time fresh-interpreter set-ups; the last one's inputs stay."""
    cmd = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(inputs)] + (["--smoke"] if smoke else [])
    samples = []
    while not samples or not once and (
            len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_MIN_SECONDS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up of {workload} exited {done.returncode}")
    return samples


def run_cli(cli, argv: list[str], tracer) -> int | None:
    """One command line through ``cli.main``; None if it raised."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        idx = tracer.begin("cli") if tracer else None
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed op, not the end of the run
            return None
        finally:
            if tracer:
                tracer.end(idx)


def gate(op, codes: list):
    """Run the op's correctness gate in a forked child, so the memory it
    takes to reload and re-verify outputs stays out of this process's
    peak RSS; the verdict comes back through a pipe."""
    from workloads import Outcome

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = op.check(codes)
            except Exception as exc:  # output unreadable: cannot be trusted
                outcome = Outcome(failed=True, wrong=True, reason=f"gate raised {exc!r}")
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        verdict = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not verdict:
        return Outcome(failed=True, wrong=True, reason=f"gate process ended with status {status}")
    return pickle.loads(verdict)


def measure(cli, cycle: list, seconds: float, min_ops: int, tracer) -> list[dict]:
    """Closed loop over whole cycles until ``seconds`` of op time and
    ``min_ops`` ops; each op is gated after its timed region."""
    records = []
    timed = 0.0
    wall_start = time.perf_counter()
    while True:
        for op in cycle:
            for path in op.outputs:
                path.unlink(missing_ok=True)
            if tracer:
                tracer.op = len(records)
            start = time.perf_counter()
            codes = []
            for argv in op.steps:
                codes.append(run_cli(cli, argv, tracer))
                if codes[-1] != 0:
                    break
            elapsed = time.perf_counter() - start
            outcome = gate(op, codes)
            written = sum(p.stat().st_size for p in op.outputs if p.exists())
            records.append({"label": op.label, "s": elapsed, "bytes": written, "outcome": outcome})
            timed += elapsed
        enough = timed >= seconds and len(records) >= min_ops
        if enough or time.perf_counter() - wall_start > WALL_LIMIT_S:
            return records


def warm_up(cli, scratch: Path) -> None:
    """Untimed: let lazy imports and first LAPACK calls happen."""
    inst = scratch / "warmup.json"
    run_cli(cli, ["gen", "--alpha", "2", "--n", "2", "-o", str(inst)], None)
    run_cli(cli, ["check", str(inst), "-o", str(scratch / "warmup.report.json")], None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check: every size becomes n = 2, one cycle, one set-up")
    args = parser.parse_args(argv)
    setup_environment()

    import workloads
    from psdblocks import cli
    from tracing import LAPACK_FLOP_FORMULA, Tracer, per_layer_metrics

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in config["per_layer" if args.trace else "end_to_end"]}

    scratch_root = ROOT / ".bench_scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    tracer = Tracer() if args.trace else None
    try:
        inputs = scratch / "inputs"
        inputs.mkdir()
        setup_samples = run_setup(args.workload, args.seed, inputs, args.smoke,
                                  once=bool(args.trace or args.smoke))
        if args.workload == "produce":
            cycle = workloads.produce_ops(args.seed, scratch, args.smoke)
        elif args.workload == "replay":
            cycle = workloads.replay_ops(inputs, scratch)
        else:
            cycle = workloads.check_ops(args.seed, scratch, args.smoke)
        warm_up(cli, scratch)
        if tracer:
            tracer.install({name: mod for name, mod in sys.modules.items()
                            if name == "psdblocks" or name.startswith("psdblocks.")})
        try:
            records = measure(cli, cycle, 0.0 if args.smoke else args.seconds,
                              0 if args.smoke else workloads.MIN_OPS[args.workload], tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()

    ops = len(records)
    timed = sum(r["s"] for r in records)
    op_ms = [1e3 * r["s"] for r in records]
    outcomes = [r["outcome"] for r in records]
    failed = sum(o.failed for o in outcomes)
    false_fails = sum(o.false_fails for o in outcomes)
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["label"], []).append(1e3 * r["s"])
    p90 = statistics.quantiles(op_ms, n=10)[-1] if ops >= workloads.P90_MIN_OPS else None

    if tracer:
        metrics = per_layer_metrics(units, tracer, ops, timed, false_fails)
    else:
        e2e = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": ops / timed,
            "op_ok_ratio": (ops - failed) / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_mb_written_per_op": sum(r["bytes"] for r in records) / ops / 1e6,
        }
        metrics = {name: e2e[name] for name in units}

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if not tracer:
        print(f"{args.workload} op_ms_p50 = {statistics.median(op_ms):.6g} ms ({ops} ops)")
        print(f"{args.workload} op_ms_p90 = " + (
            f"{p90:.6g} ms ({ops} ops)" if p90 is not None
            else f"omitted ({ops} ops < {workloads.P90_MIN_OPS})"))
        print(f"{args.workload} fail_ratio = {failed / ops:.6g} ({failed} of {ops} ops)")
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "trace": args.trace,
        "ops": ops,
        "timed_s": timed,
        "fail_ratio": failed / ops,
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": p90,
        "op_ms_median_by_class": {k: statistics.median(v) for k, v in by_label.items()},
        "setup_s_samples": setup_samples,
        "false_fail_items": false_fails,
        "failures": [{"op": i, "label": r["label"], "reason": r["outcome"].reason}
                     for i, r in enumerate(records) if r["outcome"].failed][:20],
    }
    if tracer:
        detail["kernel.lapack.computed_gflop"] = LAPACK_FLOP_FORMULA
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
