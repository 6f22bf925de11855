"""Command-line surface.

Subcommands: ``gen`` (seeded instance to JSON), ``decompose`` (two-block
or quaternion certificate), ``verify`` (replay a certificate's defects),
``check`` (inequality suite on a file, which must hold a Hermitian PSD
matrix, or on generated trials, not both) and
``demo`` (guided tour of the named instances). The parsed arguments are
the configuration: every artifact echoes its command's own flags under
``"config"`` (``decompose`` with the beta it used; ``--two-block``
takes none), plus the command name and a timestamp, which lives only
there. Tolerances must be finite. Every artifact is written by
:func:`~.kernel.dump_json` and every file read by :func:`~.kernel.load_json`.
Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 input
or usage error (an allocation that fails, too), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import sys

from .blocks import block_matrix_from_json, block_matrix_to_json
from .checks import (
    compare_eq,
    det_sandwich,
    hiroshima_check,
    report_to_json,
    run_inequality_suite,
)
from .decompose import (
    _certificate_header,
    certificate_from_json,
    certificate_to_json,
    quaternion_blocks,
    quaternion_pipeline,
    quaternion_stage_defects,
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
from .kernel import Tolerance, dump_json, frobenius, load_json, matrix_to_wire, validate_hermitian_psd

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _tolerance(args: argparse.Namespace) -> Tolerance:
    return Tolerance(atol=args.tol_abs, rtol=args.tol_rel)


def _config(args: argparse.Namespace) -> dict:
    """The command's own parsed arguments, echoed into its artifact."""
    return {**vars(args), "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-abs", type=float, default=1e-10, help="absolute slack")
    p.add_argument("--tol-rel", type=float, default=1e-8, help="relative slack")


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=int, default=2, help="block count")
    p.add_argument("--n", type=int, default=2, help="block dimension")
    p.add_argument("--rank", type=int, default=3, help="number of Gram summands")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first call, then reused."""
    parser = argparse.ArgumentParser(
        prog="psdblocks",
        description="Decompose PSD block matrices into isometry averages of their partial trace and check the derived inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded Hermitian-block PSD instance")
    _add_generator_flags(gen)
    gen.add_argument("-o", "--out", dest="out_path", required=True, help="output JSON path")

    dec = sub.add_parser("decompose", help="decompose an instance into a certificate")
    dec.add_argument("input_path", metavar="input", help="BlockMatrix JSON path")
    mode = dec.add_mutually_exclusive_group(required=True)
    mode.add_argument("--two-block", dest="mode", action="store_const", const="two_block", help="two-isometry average of A+B")
    mode.add_argument("--quaternion", dest="mode", action="store_const", const="quaternion", help="four-isometry average of the doubled partial trace")
    dec.add_argument("--beta", type=int, default=None, help="3 or 4 (quaternion mode; defaults to the block count)")
    dec.add_argument("-o", "--out", dest="out_path", required=True)
    _add_tol_flags(dec)

    ver = sub.add_parser("verify", help="recompute a certificate's defects")
    ver.add_argument("input_path", metavar="input", help="certificate JSON path")
    ver.add_argument("-o", "--out", dest="out_path", default=None, help="report JSON path")
    _add_tol_flags(ver)

    chk = sub.add_parser("check", help="run the inequality suite")
    chk.add_argument("input_path", metavar="input", nargs="?", default=None, help="BlockMatrix JSON path")
    chk.add_argument("--trials", type=int, default=0, help="generate and check this many seeded instances instead of reading a file")
    _add_generator_flags(chk)
    chk.add_argument("-o", "--out", dest="out_path", default=None)
    _add_tol_flags(chk)

    demo = sub.add_parser("demo", help="walk through the named instances")
    demo.add_argument("--seed", type=int, default=0)
    _add_tol_flags(demo)

    return parser


def _print_report(report_obj: dict) -> None:
    for item in report_obj["checks"]:
        status = "pass" if item["passed"] else "FAIL"
        print(f"  [{status}] {item['name']}: margin {_fmt(item['margin'])}")
    for note in report_obj.get("warnings", []):
        print(f"  warning: {note}")


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(seed=args.seed, alpha=args.alpha, n=args.n, rank=args.rank, scale=args.scale)
    h = random_block_psd(spec)
    payload = block_matrix_to_json(h, matrix_to_wire)
    payload["config"] = _config(args)
    dump_json(args.out_path, payload)
    print(f"wrote {args.alpha}x{args.alpha} blocks of side {args.n} (rank {args.rank}) to {args.out_path}")
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.mode == "two_block" and args.beta is not None:
        raise ValueError(f"decompose takes --beta with --quaternion only: --beta {args.beta} given with --two-block")
    tol = _tolerance(args)
    h = block_matrix_from_json(load_json(args.input_path))
    if args.mode == "two_block":
        cert = two_block_isometries(h, tol)
    else:
        if args.beta is None:
            args.beta = h.block_count
        cert = quaternion_pipeline(h, args.beta, tol)[1]
    payload = certificate_to_json(cert, matrix_to_wire)
    payload["config"] = _config(args)
    dump_json(args.out_path, payload)
    worst = max(cert.defects["isometry"], default=0.0)
    print(
        f"{cert.kind} certificate: reconstruction defect {_fmt(cert.defects['reconstruction'])}, "
        f"max isometry defect {_fmt(worst)} -> {args.out_path}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cert = certificate_from_json(load_json(args.input_path, _certificate_header))
    report = verify_certificate(cert, _tolerance(args))
    payload = report_to_json(report)
    payload["config"] = _config(args)
    if args.out_path:
        dump_json(args.out_path, payload)
    print(f"certificate kind {cert.kind}: {'PASS' if report.passed else 'FAIL'}")
    _print_report(payload)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_GENERATOR_FLAGS = ("trials", "alpha", "n", "rank", "seed", "scale")


def _cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.input_path is not None:
        defaults = vars(build_parser().parse_args(["check"]))
        ignored = [f"--{flag}" for flag in _GENERATOR_FLAGS if getattr(args, flag) != defaults[flag]]
        if ignored:
            raise ValueError(f"check takes an input file or generated trials, not both: {', '.join(ignored)} given with {args.input_path}")
        h = block_matrix_from_json(load_json(args.input_path))
        validate_hermitian_psd(h.data, tol, h.eigenvalues)  # the theorem's domain, on the suite's spectrum; generated trials are PSD by construction
        reports = [run_inequality_suite(h, tol)]
        labels = [args.input_path]
    elif args.trials > 0:
        # every trial's spec, so a seed past the range is rejected before any work
        specs = [
            GeneratorSpec(seed=args.seed + i, alpha=args.alpha, n=args.n, rank=args.rank, scale=args.scale)
            for i in range(args.trials)
        ]
        reports = [run_inequality_suite(random_block_psd(spec), tol) for spec in specs]
        labels = [f"trial {i} (seed {spec.seed})" for i, spec in enumerate(specs)]
    else:
        raise ValueError("check needs an input file or --trials N")
    payload = {
        "config": _config(args),
        "reports": [report_to_json(r) for r in reports],
        "passed": all(r.passed for r in reports),
    }
    if args.out_path:
        dump_json(args.out_path, payload)
    for label, rep in zip(labels, payload["reports"]):
        print(f"{label}: {'PASS' if rep['passed'] else 'FAIL'}")
        _print_report(rep)
    return EXIT_OK if payload["passed"] else EXIT_CHECK_FAILED


def _cmd_demo(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    # both seeded specs up front, so a seed past the range is rejected before any output
    spec = GeneratorSpec(seed=args.seed, alpha=4, n=2, rank=3)
    spec3 = GeneratorSpec(seed=args.seed + 1, alpha=3, n=2, rank=3)
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
    ok &= rep.passed and compare_eq(lower.name, lower.lhs, lower.rhs, tol).passed

    seeded = equality_case_instance(3, args.seed)
    rep = det_sandwich(seeded, tol)
    lower = rep.check("partial_trace_bound")
    print(f"  seeded equality case (n=3): lower margin {_fmt(lower.margin)}")
    ok &= rep.passed and compare_eq(lower.name, lower.lhs, lower.rhs, tol).passed

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
    h = random_block_psd(spec)
    cert = quaternion_pipeline(h, beta=4, tol=tol)[1]
    equal, skew = quaternion_stage_defects(quaternion_blocks(h, beta=4, tol=tol), cert)
    print(f"  off-diagonal skew defect {_fmt(skew)}")
    print(f"  equal-diagonal defect {_fmt(equal)}")
    print(f"  reconstruction defect {_fmt(cert.defects['reconstruction'])}")
    print(f"  max isometry defect {_fmt(max(cert.defects['isometry']))}")
    scale = frobenius(h.data)
    ok &= tol.allows(skew, scale, "off-diagonal skew defect") and tol.allows(equal, scale, "equal-diagonal defect")
    ok &= verify_certificate(cert, tol).passed

    h3 = random_block_psd(spec3)
    _, cert3 = quaternion_pipeline(h3, beta=3, tol=tol)
    print(
        f"  3-block variant: factors {cert3.factors[0].shape[0]}x{cert3.factors[0].shape[1]}, "
        f"reconstruction defect {_fmt(cert3.defects['reconstruction'])}"
    )
    ok &= verify_certificate(cert3, tol).passed

    lam, lam_d = geo.eigenvalues, geo.partial_trace_eigenvalues
    print("== tightness witness ==")
    print(f"  top eigenvalue of H {_fmt(lam[0])} equals top of partial trace {_fmt(lam_d[0])}")
    ok &= compare_eq("top_eigenvalue", lam[0], lam_d[0], tol).passed

    print(f"demo: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "gen": _cmd_gen,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "check": _cmd_check,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
