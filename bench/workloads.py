"""The benchmark's workloads: the ops of each cycle, their inputs and the
correctness gate applied to every op outside the timed region.

Each op is one or more ``psdblocks`` command lines run back to back
through ``psdblocks.cli.main``. A cycle runs every op class of a workload
once, in a fixed order, on inputs fixed by the seed; runs are made of
whole identical cycles, so the mix of op classes, and every per-op count,
is the same whatever the number of cycles.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from psdblocks import (
    GeneratorSpec,
    block_matrix_from_json,
    certificate_from_json,
    certificate_to_json,
    corner_decomposition_general,
    quaternion_pipeline,
    random_block_psd,
    two_block_isometries,
    two_corner_decomposition,
    verify_certificate,
)

# produce: (label, alpha, n, decompose flags). Quaternion runs on 8n = 512.
PRODUCE_CLASSES = (
    ("quaternion_b4", 4, 64, ("--quaternion", "--beta", "4")),
    ("quaternion_b3", 3, 64, ("--quaternion", "--beta", "3")),
    ("two_block", 2, 128, ("--two-block",)),
)

# check_sweep: (alpha, n, trials). The last two tiers fail at the parent
# commit (det_sandwich overflow); they stay in so fail counts show it.
CHECK_TIERS = (
    (2, 2, 10),
    (3, 4, 10),
    (4, 8, 10),
    (4, 16, 10),
    (3, 64, 1),
    (2, 128, 1),
    (4, 96, 1),
)

# op_ms_p90 is reported only when a run holds this many ops.
P90_MIN_OPS = 100

# Fewest ops in a run, whatever --seconds says: two cycles of produce so
# its median is not a single op, and what p90 needs on check_sweep.
MIN_OPS = {"produce": 2 * len(PRODUCE_CLASSES), "replay": 0, "check_sweep": P90_MIN_OPS}

# Factor entry offset of the tampered replay certificate; far above any
# tolerance, so verify must report FAIL (exit 1).
TAMPER = 1e-3

RANK = 3


@dataclass
class Outcome:
    """Verdict of the correctness gate on one op.

    ``failed``: the op did not end as expected (exit code, crash, bad
    output). ``wrong``: the op claimed success (exit 0) but its output is
    incorrect, or a certificate that must be rejected was accepted.
    """

    failed: bool = False
    wrong: bool = False
    false_fails: int = 0
    reason: str = ""


@dataclass
class Op:
    """Command lines timed together, the files they write, and the gate
    that judges their exit codes and outputs."""

    label: str
    steps: list[list[str]]
    outputs: list[Path]
    check: Callable[[list], Outcome]


# ---------------------------------------------------------------- produce


def produce_ops(seed: int, scratch: Path, smoke: bool) -> list[Op]:
    ops = []
    for k, (label, alpha, n, flags) in enumerate(PRODUCE_CLASSES):
        n = 2 if smoke else n
        inst = scratch / f"{label}.instance.json"
        cert = scratch / f"{label}.cert.json"
        op_seed = seed * 1_000_003 + k
        gen = ["gen", "--alpha", str(alpha), "--n", str(n), "--rank", str(RANK),
               "--seed", str(op_seed), "-o", str(inst)]
        dec = ["decompose", str(inst), *flags, "-o", str(cert)]
        kind = "two_block_isometry" if label == "two_block" else "quaternion"
        ops.append(Op(label, [gen, dec], [inst, cert],
                      lambda codes, inst=inst, cert=cert, kind=kind: _check_produce(codes, inst, cert, kind)))
    return ops


def _check_produce(codes: list, inst: Path, cert_path: Path, kind: str) -> Outcome:
    """Reload the certificate, re-verify it and match it to the instance."""
    if codes != [0, 0]:
        return Outcome(failed=True, reason=f"exit codes {codes}, expected [0, 0]")
    h = block_matrix_from_json(json.loads(inst.read_text(encoding="utf-8")))
    cert = certificate_from_json(json.loads(cert_path.read_text(encoding="utf-8")))
    report = verify_certificate(cert)
    if cert.kind != kind:
        reason = f"certificate kind {cert.kind!r}, expected {kind!r}"
    elif not (cert.target[: h.side, : h.side] == h.data).all():
        reason = "certificate target is not the generated instance"
    elif not report.passed:
        reason = "produced certificate does not re-verify"
    else:
        return Outcome()
    return Outcome(failed=True, wrong=True, reason=reason)


# ----------------------------------------------------------------- replay


def prepare_replay(seed: int, out_dir: Path, smoke: bool) -> None:
    """Produce the replay certificate set with the library and write it,
    with a manifest of the exit code ``verify`` must give on each file.

    Valid kinds: quaternion beta 3 and 4 at n = 64, two_block at n = 128,
    corner_general at alpha = 4, n = 64 and two_corner on side 256 with
    slots (96, 160). Plus one tampered certificate (a factor entry moved,
    exit 1) and one malformed one (weight 1/3 on a quaternion
    certificate, exit 2).
    """
    n64, n128 = (2, 2) if smoke else (64, 128)
    slots = (1, 3) if smoke else (96, 160)

    def instance(k: int, alpha: int, n: int):
        return random_block_psd(GeneratorSpec(seed=seed * 10 + k, alpha=alpha, n=n, rank=RANK))

    h4, h3, h2 = instance(0, 4, n64), instance(1, 3, n64), instance(2, 2, n128)
    certs = {
        "quaternion_b4": quaternion_pipeline(h4, 4)[1],
        "quaternion_b3": quaternion_pipeline(h3, 3)[1],
        "two_block": two_block_isometries(h2),
        "corner_general": corner_decomposition_general(h4),
        "two_corner": two_corner_decomposition(h2.data, *slots),
    }
    manifest = []

    def write(label: str, payload: dict, expected: int) -> None:
        path = out_dir / f"{label}.cert.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        manifest.append({"label": label, "file": path.name, "expected": expected})

    for label, cert in certs.items():
        if not verify_certificate(cert).passed:
            raise RuntimeError(f"set-up produced a {label} certificate that does not verify")
        payload = certificate_to_json(cert)
        write(label, payload, 0)
        if label == "two_block":
            payload["factors"][0]["entries"][0][0] += TAMPER
            write("tampered", payload, 1)
        elif label == "quaternion_b4":
            payload["weight"] = "1/3"
            write("malformed", payload, 2)
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def replay_ops(inputs: Path, scratch: Path) -> list[Op]:
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    report = scratch / "report.json"
    return [
        Op(entry["label"], [["verify", str(inputs / entry["file"]), "-o", str(report)]], [report],
           lambda codes, e=entry["expected"]: _check_replay(codes, e, report))
        for entry in manifest
    ]


def _check_replay(codes: list, expected: int, report_path: Path) -> Outcome:
    (code,) = codes
    if code == 0 and expected != 0:
        return Outcome(failed=True, wrong=True, reason=f"certificate that must exit {expected} was accepted")
    if code != expected:
        return Outcome(failed=True, reason=f"exit code {code}, expected {expected}")
    if expected == 2:
        return Outcome()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if report["passed"] != (expected == 0):
        return Outcome(failed=True, wrong=True, reason="report verdict disagrees with the exit code")
    return Outcome()


# ------------------------------------------------------------ check_sweep


def check_ops(seed: int, scratch: Path, smoke: bool) -> list[Op]:
    ops = []
    report = scratch / "report.json"
    for k, (alpha, n, trials) in enumerate(CHECK_TIERS):
        n, trials = (2, 1) if smoke else (n, trials)
        op_seed = seed * 1_000_003 + k * 16
        argv = ["check", "--trials", str(trials), "--alpha", str(alpha), "--n", str(n),
                "--rank", str(RANK), "--seed", str(op_seed), "-o", str(report)]
        ops.append(Op(f"a{alpha}_n{n}_t{trials}", [argv], [report],
                      lambda codes, t=trials: _check_sweep(codes, t, report)))
    return ops


def _check_sweep(codes: list, trials: int, report_path: Path) -> Outcome:
    """Generated instances satisfy the theorem, so every tier must pass."""
    (code,) = codes
    if code not in (0, 1):
        return Outcome(failed=True, reason=f"exit code {code}, expected 0")
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    false_fails = sum(not item["passed"] for r in payload["reports"] for item in r["checks"])
    if len(payload["reports"]) != trials or payload["passed"] != (code == 0):
        return Outcome(failed=True, wrong=True, false_fails=false_fails,
                       reason="report disagrees with the exit code or the trial count")
    if code == 1:
        failing = sorted({item["name"] for r in payload["reports"] for item in r["checks"]
                          if not item["passed"]})
        return Outcome(failed=True, false_fails=false_fails,
                       reason=f"false FAIL on generated instances: {', '.join(failing)}")
    return Outcome()
