"""Command-line surface.

Subcommands: ``gen`` (seeded instance to JSON), ``decompose`` (two-block
or quaternion certificate), ``verify`` (replay a certificate's defects),
``check`` (inequality suite on a file or on generated trials) and
``demo`` (guided tour of the named instances). Every artifact embeds its
fully resolved configuration for reproducibility; timestamps live only
there. Exit codes: 0 all checks passed, 1 a mathematical check failed,
2 input or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .blocks import BlockMatrix, block_matrix_from_json, block_matrix_to_json, partial_trace
from .checks import (
    det_sandwich,
    hiroshima_check,
    report_to_json,
    run_inequality_suite,
)
from .decompose import (
    certificate_from_json,
    certificate_to_json,
    quaternion_pipeline,
    two_block_isometries,
    verify_certificate,
)
from .errors import NumericalError
from .generate import (
    GeneratorSpec,
    equality_case_instance,
    geometric_mean_instance,
    nonhermitian_counterexample,
    random_block_psd,
)
from .kernel import Tolerance, frobenius, hermitian_eigvalues

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    """Fully resolved invocation, echoed into every artifact."""

    command: str
    input_path: str | None = None
    out_path: str | None = None
    tol_abs: float = 1e-10
    tol_rel: float = 1e-8
    seed: int = 0
    trials: int = 0
    alpha: int = 2
    n: int = 2
    rank: int = 3
    scale: float = 1.0
    beta: int | None = None
    mode: str | None = None

    @property
    def tolerance(self) -> Tolerance:
        return Tolerance(atol=self.tol_abs, rtol=self.tol_rel)

    def resolved(self) -> dict:
        echo = asdict(self)
        echo["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return echo


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=1e-10, help="absolute slack")
    p.add_argument("--tol-rel", type=float, default=1e-8, help="relative slack")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psdblocks",
        description="Decompose PSD block matrices into isometry averages of their partial trace and check the derived inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded Hermitian-block PSD instance")
    gen.add_argument("--alpha", type=int, default=2, help="block count")
    gen.add_argument("--n", type=int, default=2, help="block dimension")
    gen.add_argument("--rank", type=int, default=3, help="number of Gram summands")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("-o", "--out", required=True, help="output JSON path")
    _add_tol_flags(gen)

    dec = sub.add_parser("decompose", help="decompose an instance into a certificate")
    dec.add_argument("input", help="BlockMatrix JSON path")
    mode = dec.add_mutually_exclusive_group(required=True)
    mode.add_argument("--two-block", action="store_true", help="two-isometry average of A+B")
    mode.add_argument("--quaternion", action="store_true", help="four-isometry average of the doubled partial trace")
    dec.add_argument("--beta", type=int, default=None, help="3 or 4 (quaternion mode; defaults to the block count)")
    dec.add_argument("-o", "--out", required=True)
    _add_tol_flags(dec)

    ver = sub.add_parser("verify", help="recompute a certificate's defects")
    ver.add_argument("input", help="certificate JSON path")
    ver.add_argument("-o", "--out", default=None, help="report JSON path")
    _add_tol_flags(ver)

    chk = sub.add_parser("check", help="run the inequality suite")
    chk.add_argument("input", nargs="?", default=None, help="BlockMatrix JSON path")
    chk.add_argument("--trials", type=int, default=0, help="generate and check this many seeded instances instead of reading a file")
    chk.add_argument("--alpha", type=int, default=2)
    chk.add_argument("--n", type=int, default=2)
    chk.add_argument("--rank", type=int, default=3)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--scale", type=float, default=1.0)
    chk.add_argument("-o", "--out", default=None)
    _add_tol_flags(chk)

    demo = sub.add_parser("demo", help="walk through the named instances")
    demo.add_argument("--seed", type=int, default=0)
    _add_tol_flags(demo)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.tol_abs = args.tol_abs
    cfg.tol_rel = args.tol_rel
    for field in ("seed", "trials", "alpha", "n", "rank", "scale", "beta"):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    cfg.input_path = getattr(args, "input", None)
    cfg.out_path = getattr(args, "out", None)
    if args.command == "decompose":
        cfg.mode = "two_block" if args.two_block else "quaternion"
    return cfg


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _print_report(report_obj: dict) -> None:
    for item in report_obj["checks"]:
        status = "pass" if item["passed"] else "FAIL"
        print(f"  [{status}] {item['name']}: margin {_fmt(item['margin'])}")
    for note in report_obj.get("warnings", []):
        print(f"  warning: {note}")


def _cmd_gen(cfg: RunConfig) -> int:
    spec = GeneratorSpec(seed=cfg.seed, alpha=cfg.alpha, n=cfg.n, rank=cfg.rank, scale=cfg.scale)
    h = random_block_psd(spec)
    payload = block_matrix_to_json(h)
    payload["config"] = cfg.resolved()
    _write_json(cfg.out_path, payload)
    print(f"wrote {cfg.alpha}x{cfg.alpha} blocks of side {cfg.n} (rank {cfg.rank}) to {cfg.out_path}")
    return EXIT_OK


def _cmd_decompose(cfg: RunConfig) -> int:
    h = block_matrix_from_json(_load_json(cfg.input_path))
    tol = cfg.tolerance
    if cfg.mode == "two_block":
        cert = two_block_isometries(h, tol)
    else:
        beta = cfg.beta if cfg.beta is not None else h.block_count
        _, cert = quaternion_pipeline(h, beta, tol)
    payload = certificate_to_json(cert)
    payload["config"] = cfg.resolved()
    _write_json(cfg.out_path, payload)
    worst = max(cert.defects["isometry"], default=0.0)
    print(
        f"{cert.kind} certificate: reconstruction defect {_fmt(cert.defects['reconstruction'])}, "
        f"max isometry defect {_fmt(worst)} -> {cfg.out_path}"
    )
    return EXIT_OK


def _cmd_verify(cfg: RunConfig) -> int:
    cert = certificate_from_json(_load_json(cfg.input_path))
    report = verify_certificate(cert, cfg.tolerance)
    payload = report_to_json(report)
    payload["config"] = cfg.resolved()
    if cfg.out_path:
        _write_json(cfg.out_path, payload)
    print(f"certificate kind {cert.kind}: {'PASS' if report.passed else 'FAIL'}")
    _print_report(payload)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_check(cfg: RunConfig) -> int:
    tol = cfg.tolerance
    if cfg.input_path is not None:
        h = block_matrix_from_json(_load_json(cfg.input_path))
        reports = [run_inequality_suite(h, tol)]
        labels = [cfg.input_path]
    elif cfg.trials > 0:
        reports = []
        labels = []
        for i in range(cfg.trials):
            spec = GeneratorSpec(
                seed=cfg.seed + i, alpha=cfg.alpha, n=cfg.n, rank=cfg.rank, scale=cfg.scale
            )
            reports.append(run_inequality_suite(random_block_psd(spec), tol))
            labels.append(f"trial {i} (seed {spec.seed})")
    else:
        raise ValueError("check needs an input file or --trials N")
    payload = {
        "config": cfg.resolved(),
        "reports": [report_to_json(r) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    if cfg.out_path:
        _write_json(cfg.out_path, payload)
    for label, rep in zip(labels, payload["reports"]):
        print(f"{label}: {'PASS' if rep['passed'] else 'FAIL'}")
        _print_report(rep)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _cmd_demo(cfg: RunConfig) -> int:
    tol = cfg.tolerance
    ok = True

    print("== determinant sandwich on the commuting equality witness ==")
    geo = geometric_mean_instance()
    rep = det_sandwich(geo, tol)
    upper = rep.check("fisher_product_bound")
    lower = rep.check("partial_trace_bound")
    print(
        f"  block product {_fmt(upper.rhs)} >= det(I+H) {_fmt(upper.lhs)} "
        f">= det(I+partial trace) {_fmt(lower.lhs)}"
    )
    print(f"  lower bound attained: margin {_fmt(lower.margin)}")
    ok &= rep.passed and abs(lower.margin) <= 1e-6

    seeded = equality_case_instance(3, cfg.seed)
    rep = det_sandwich(seeded, tol)
    lower = rep.check("partial_trace_bound")
    print(f"  seeded equality case (n=3): lower margin {_fmt(lower.margin)}")
    ok &= rep.passed and abs(lower.margin) <= 1e-6 * max(1.0, abs(lower.lhs))

    print("== the Hermitian-block hypothesis is necessary ==")
    bad = nonhermitian_counterexample()
    rep = hiroshima_check(bad, tol)
    sums = rep.check("eigenvalue_partial_sums")
    print(
        f"  rank-one witness: top eigenvalue {_fmt(sums.lhs[0])} vs partial trace {_fmt(sums.rhs[0])} "
        f"-> {'violated as expected' if not rep.passed else 'UNEXPECTEDLY PASSED'}"
    )
    ok &= not rep.passed

    print("== quaternion route, stage by stage ==")
    spec = GeneratorSpec(seed=cfg.seed, alpha=4, n=2, rank=3)
    h = random_block_psd(spec)
    trace, cert = quaternion_pipeline(h, beta=4, tol=tol)
    skew, equal = trace.skew_defect, trace.equal_diagonal_defect
    print(f"  off-diagonal skew defect {_fmt(skew)}")
    print(f"  equal-diagonal defect {_fmt(equal)}")
    print(f"  reconstruction defect {_fmt(cert.defects['reconstruction'])}")
    print(f"  max isometry defect {_fmt(max(cert.defects['isometry']))}")
    scale = 1.0 + frobenius(h.data)
    ok &= skew <= 1e-9 * scale and equal <= 1e-9 * scale
    ok &= cert.defects["reconstruction"] <= 1e-8 * scale
    ok &= max(cert.defects["isometry"]) <= 1e-9

    spec3 = GeneratorSpec(seed=cfg.seed + 1, alpha=3, n=2, rank=3)
    h3 = random_block_psd(spec3)
    _, cert3 = quaternion_pipeline(h3, beta=3, tol=tol)
    print(
        f"  3-block variant: factors {cert3.factors[0].shape[0]}x{cert3.factors[0].shape[1]}, "
        f"reconstruction defect {_fmt(cert3.defects['reconstruction'])}"
    )
    ok &= cert3.defects["reconstruction"] <= 1e-8 * (1.0 + frobenius(h3.data))

    lam = hermitian_eigvalues(geo.data)
    lam_d = hermitian_eigvalues(partial_trace(geo))
    print("== tightness witness ==")
    print(f"  top eigenvalue of H {_fmt(lam[0])} equals top of partial trace {_fmt(lam_d[0])}")
    ok &= abs(lam[0] - lam_d[0]) <= 1e-8

    print(f"demo: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "demo": _cmd_demo,
}


def dispatch(cfg: RunConfig) -> int:
    try:
        return _HANDLERS[cfg.command](cfg)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
