"""CLI tests: end-to-end pipelines, exit codes, idempotent reports."""

import argparse
import gc
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest

import psdblocks
from oracles import random_psd
from psdblocks import (
    BlockMatrix,
    GeneratorSpec,
    block_matrix_from_json,
    block_matrix_to_json,
    certificate_to_json,
    corner_decomposition_general,
    corner_unitary,
    direct_sum,
    load_json,
    matrix_from_json,
    matrix_to_json,
    matrix_to_wire,
    nonhermitian_counterexample,
    psd_sqrt,
    quaternion_pipeline,
    random_block_psd,
    report_to_json,
    run_inequality_suite,
    two_block_isometries,
    two_corner_decomposition,
    verify_certificate,
)
from psdblocks.cli import build_parser, main
from psdblocks.kernel import _CHUNK_ROWS, dump_json


def run(argv):
    return main([str(a) for a in argv])


def pythonpath():
    """PYTHONPATH for a child process that imports this checkout's package."""
    src = str(Path(psdblocks.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


# Runs the CLI on its arguments, then prints the process's peak resident set
# in KiB: VmHWM, which unlike ru_maxrss is not carried over from the parent
# (here the test process) across exec; then the peak of the largest child it
# reaped (``verify`` forks one to decode arrays), 0 if none, as ru_maxrss,
# which counts the pages the child shares with it.
PEAK_CHILD = """
import resource, sys
from psdblocks.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).split()[1])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM from /proc/self/status")


def peaks_kib(*argv, code=0) -> tuple[int, int]:
    """The peak resident sets, in KiB, of a fresh process running the CLI on
    ``argv`` with one BLAS thread and of its largest child; the run must exit ``code``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": pythonpath()}
    done = subprocess.run([sys.executable, "-c", PEAK_CHILD, *map(str, argv)], env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    parent, child = map(int, done.stdout.split()[-2:])
    return parent, child


def peak_kib(*argv, code=0) -> int:
    """The peak resident set, in KiB, of the process alone."""
    return peaks_kib(*argv, code=code)[0]


# Verifies each file named in its arguments in turn, in this one process, then prints the peak resident set in KiB
# (VmHWM) after each.
LONG_LIVED_CHILD = """
import sys
from psdblocks.cli import main
peaks = []
for path in sys.argv[1:]:
    main(["verify", path])
    with open("/proc/self/status") as status:
        peaks.append(next(line for line in status if line.startswith("VmHWM:")).split()[1])
print(*peaks)
"""


def write_counterexample(path):
    path.write_text(json.dumps(block_matrix_to_json(nonhermitian_counterexample())))


class TestPipeline:
    def test_gen_decompose_verify_quaternion(self, tmp_path, capsys):
        h_path = tmp_path / "H.json"
        cert_path = tmp_path / "cert.json"
        assert run(["gen", "--alpha", 4, "--n", 2, "--rank", 3, "--seed", 7, "-o", h_path]) == 0
        assert run(["decompose", "--quaternion", "--beta", 4, h_path, "-o", cert_path]) == 0
        assert run(["verify", cert_path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_gen_decompose_verify_two_block(self, tmp_path):
        h_path = tmp_path / "H.json"
        cert_path = tmp_path / "cert.json"
        assert run(["gen", "--alpha", 2, "--n", 3, "--seed", 5, "-o", h_path]) == 0
        assert run(["decompose", "--two-block", h_path, "-o", cert_path]) == 0
        obj = json.loads(cert_path.read_text())
        assert obj["kind"] == "two_block_isometry"
        assert obj["weight"] == "1/2"
        assert "config" in obj
        assert run(["verify", cert_path]) == 0

    def test_beta_three_certificate(self, tmp_path):
        h_path = tmp_path / "H3.json"
        cert_path = tmp_path / "cert3.json"
        assert run(["gen", "--alpha", 3, "--n", 2, "--seed", 9, "-o", h_path]) == 0
        assert run(["decompose", "--quaternion", "--beta", 3, h_path, "-o", cert_path]) == 0
        obj = json.loads(cert_path.read_text())
        assert obj["factors"][0]["rows"] == 12
        assert run(["verify", cert_path]) == 0


class TestCheckCommand:
    def test_counterexample_fails_with_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_counterexample(bad)
        report_path = tmp_path / "report.json"
        assert run(["check", bad, "-o", report_path]) == 1
        report = json.loads(report_path.read_text())
        assert report["passed"] is False
        first = report["reports"][0]
        names = {c["name"]: c for c in first["checks"]}
        assert names["eigenvalue_partial_sums"]["passed"] is False
        assert names["eigenvalue_partial_sums"]["lhs"][0] == 2.0
        assert names["eigenvalue_partial_sums"]["rhs"][0] == 1.0

    @pytest.mark.parametrize(
        "data, code, message",
        [
            (-np.eye(4), 2, "error: matrix is not PSD within tolerance"),
            (np.triu(np.ones((4, 4))), 2, "error: matrix is not Hermitian within tolerance"),
            (nonhermitian_counterexample().data, 1, "warning: Hermitian-block hypothesis violated"),
        ],
        ids=["negative_identity", "upper_triangular", "rank_one_counterexample"],
    )
    def test_file_outside_the_theorem_domain(self, tmp_path, capsys, data, code, message):
        # a file must hold a Hermitian PSD matrix, else its verdict means
        # nothing (eigvalsh reads one triangle): a usage error, not a FAIL.
        # Non-Hermitian blocks of a PSD matrix are the counterexample's FAIL
        path, report_path = tmp_path / "H.json", tmp_path / "k.json"
        path.write_text(json.dumps(block_matrix_to_json(BlockMatrix(data, block_dim=2, block_count=2))))
        assert run(["check", path, "-o", report_path]) == code
        captured = capsys.readouterr()
        assert message in (captured.err if code == 2 else captured.out)
        assert report_path.exists() == (code == 1)

    def test_file_is_solved_once(self, tmp_path, lapack_calls):
        # positivity is judged on the spectrum the suite reads: one solve of H
        h = random_block_psd(GeneratorSpec(seed=3, alpha=3, n=4, rank=3))
        path, report_path = tmp_path / "H.json", tmp_path / "k.json"
        path.write_text(json.dumps(block_matrix_to_json(h)))
        assert run(["check", path, "-o", report_path]) == 0
        assert [call for call in lapack_calls if call[1] == (12, 12)] == [("eigvalsh", (12, 12))]
        reports = json.loads(report_path.read_text())["reports"]
        assert reports == [report_to_json(run_inequality_suite(h))]

    def test_generated_trials_pass(self, tmp_path):
        report_path = tmp_path / "trials.json"
        code = run(
            ["check", "--trials", 4, "--alpha", 3, "--n", 2, "--seed", 3, "-o", report_path]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert len(report["reports"]) == 4

    def test_determinant_overflow_is_numerical_failure(self, capsys):
        # the determinants of I + H overflow to inf at side 256: exit 3, not a false FAIL
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["check", "--trials", 1, "--alpha", 2, "--n", 128, "--seed", 1]) == 3
        assert not caught
        assert "numerical failure" in capsys.readouterr().err

    def test_check_without_input_or_trials(self, capsys):
        assert run(["check"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--trials", 3), ("--alpha", 3)])
    def test_input_file_with_generator_flag(self, tmp_path, capsys, flag, value):
        # the flag would be ignored yet echoed in the report's config
        h_path, report_path = tmp_path / "H.json", tmp_path / "k.json"
        assert run(["gen", "-o", h_path]) == 0
        assert run(["check", h_path, flag, value, "-o", report_path]) == 2
        assert f"{flag} given with" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys, flag):
        # an infinite slack would pass the counterexample without a warning
        bad, report_path = tmp_path / "bad.json", tmp_path / "k.json"
        write_counterexample(bad)
        assert run(["check", bad, flag, "inf", "-o", report_path]) == 2
        assert "finite" in capsys.readouterr().err
        assert not report_path.exists()


class TestDecomposeCommand:
    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    def test_infinite_tolerance_is_usage_error(self, tmp_path, capsys, flag):
        # an infinite slack would certify the counterexample's two-block split
        bad, cert_path = tmp_path / "bad.json", tmp_path / "cert.json"
        write_counterexample(bad)
        assert run(["decompose", "--two-block", bad, flag, "inf", "-o", cert_path]) == 2
        assert "finite" in capsys.readouterr().err
        assert not cert_path.exists()

    def test_two_block_on_three_blocks(self, tmp_path, capsys):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        assert run(["gen", "--alpha", 3, "-o", h_path]) == 0
        assert run(["decompose", "--two-block", h_path, "-o", cert_path]) == 2
        assert "exactly 2x2 blocks" in capsys.readouterr().err
        assert not cert_path.exists()

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [(2, [], "partition must have 3 or 4 block rows, got 2"), (4, ["--beta", 5], "beta must be 3 or 4")],
        ids=["two_blocks_no_beta", "beta_5"],
    )
    def test_quaternion_names_the_fault(self, tmp_path, capsys, alpha, beta, message):
        # with no --beta the beta is the block count, so a 2-block file is named by its count
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        assert run(["gen", "--alpha", alpha, "-o", h_path]) == 0
        capsys.readouterr()
        assert run(["decompose", "--quaternion", *beta, h_path, "-o", cert_path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not cert_path.exists()


class TestErrorPaths:
    def test_truncated_json_is_usage_error(self, tmp_path):
        broken = tmp_path / "cert.json"
        broken.write_text('{"kind": "quater')
        assert run(["verify", broken]) == 2

    def test_missing_file(self, tmp_path):
        assert run(["verify", tmp_path / "nope.json"]) == 2

    def test_incomplete_certificate(self, tmp_path):
        broken = tmp_path / "cert.json"
        broken.write_text(json.dumps({"kind": "quaternion"}))
        assert run(["verify", broken]) == 2

    @pytest.mark.parametrize(
        "command, message",
        [("verify", "certificate JSON must be an object"), ("check", "block matrix JSON must be an object")],
    )
    def test_top_level_array_is_usage_error(self, tmp_path, capsys, command, message):
        path = tmp_path / "array.json"
        path.write_text("[]")
        assert run([command, path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--alpha", 2, "--frobnicate", "-o", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [["gen", "-o", "H.json"], ["check", "--trials", 1]], ids=["gen", "check"])
    def test_failed_allocation_is_usage_error(self, tmp_path, monkeypatch, capsys, command):
        # a failed allocation is not a failed check: exit 2, no traceback
        def out_of_memory(spec):
            raise MemoryError(f"unable to allocate an instance of side {spec.alpha * spec.n}")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("psdblocks.cli.random_block_psd", out_of_memory)
        assert run(command + ["--alpha", 2, "--n", 100000]) == 2
        assert capsys.readouterr().err == "error: unable to allocate an instance of side 200000\n"
        assert not (tmp_path / "H.json").exists()

    def test_decompose_two_block_on_bad_blocks(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_counterexample(bad)
        assert run(["decompose", "--two-block", bad, "-o", tmp_path / "c.json"]) == 2

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize(
        "text, code",
        [('{"kind": "quater', 2), (None, 0), ("[" * 100000 + "]" * 100000, 2)],
        ids=["decode_error", "decoded", "nested_too_deep"],
    )
    def test_reading_restores_gc_state(self, tmp_path, monkeypatch, enabled, text, code):
        h_path = tmp_path / "H.json"
        if text is None:
            assert run(["gen", "--alpha", 2, "--n", 2, "-o", h_path]) == 0
        else:
            h_path.write_text(text)
        paused = {"json": [], "orjson": []}

        def spy(module, loads):
            def paused_loads(*args, **kwargs):
                paused[module.__name__].append(not gc.isenabled())
                return loads(*args, **kwargs)

            monkeypatch.setattr(module, "loads", paused_loads)

        spy(json, json.loads)
        spy(orjson, orjson.loads)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(["check", h_path]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        # one json.loads, of the whole file or of its skeleton, and orjson
        # for the one chunk of entries a decoded file holds
        assert paused == {"json": [True], "orjson": [True] * (text is None)}


def forge_core(cert):
    """Certificate JSON that stores ``diag(w)`` as its core and ``F_k V`` as
    its factors, where the true core is ``V diag(w) V*``. Each
    ``F_k V diag(w) V* F_k*`` equals ``F_k core F_k*``, so the forgery
    only fails when the core is derived from the target."""
    w, v = np.linalg.eigh(cert.cores[0])
    obj = certificate_to_json(cert)
    obj["core"] = matrix_to_json(np.diag(w))
    obj["factors"] = [matrix_to_json(f @ v) for f in cert.factors]
    return obj


class TestUntrustedCertificates:
    def test_forged_two_block_core_fails(self, tmp_path):
        h = random_block_psd(GeneratorSpec(seed=4, alpha=2, n=3, rank=3))
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(forge_core(two_block_isometries(h))))
        assert run(["verify", path]) == 1

    def test_forged_quaternion_core_fails(self, tmp_path):
        h = random_block_psd(GeneratorSpec(seed=4, alpha=4, n=2, rank=3))
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(forge_core(quaternion_pipeline(h, beta=4)[1])))
        assert run(["verify", path]) == 1

    def test_corner_certificate_with_unitary_factors_is_malformed(self, tmp_path):
        # the layout of earlier corner certificates: side x side unitaries and a stored core
        h = random_psd(5, rank=3, seed=5)
        root = psd_sqrt(h)
        cert = two_corner_decomposition(h, 2, 3)
        obj = certificate_to_json(cert)
        obj["core"] = matrix_to_json(direct_sum(*cert.cores))
        obj["factors"] = [
            matrix_to_json(corner_unitary(root[:, :2], 0)),
            matrix_to_json(corner_unitary(root[:, 2:], 2)),
        ]
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", path]) == 2


class TestMalformedFields:
    """Malformed fields of a certificate file are usage errors (exit 2)."""

    def corner_json(self, tmp_path, edit):
        obj = certificate_to_json(two_corner_decomposition(random_psd(5, rank=3, seed=5), 2, 3))
        edit(obj)
        path = tmp_path / "corner.json"
        path.write_text(json.dumps(obj))
        return path

    def test_well_formed_corner_certificate_passes(self, tmp_path):
        assert run(["verify", self.corner_json(tmp_path, lambda obj: None)]) == 0

    @pytest.mark.parametrize("slots", [5, [2.9, 3.1], [True, 4], None], ids=["int", "floats", "bool", "null"])
    def test_slots_not_a_list_of_integers(self, tmp_path, capsys, slots):
        path = self.corner_json(tmp_path, lambda obj: obj.update(slots=slots))
        assert run(["verify", path]) == 2
        assert "slots must be a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("two_corner", lambda obj: obj.pop("slots"), "slots None must equal the factor widths [2, 3]"),
            ("two_corner", lambda obj: obj.update(slots=[3, 2]), "slots [3, 2] must equal the factor widths [2, 3]"),
            ("quaternion", lambda obj: obj.update(weight="1/3"), "weight 1/3, expected 1/4"),
            ("quaternion", lambda obj: obj.update(slots=[2, 2]), "quaternion certificate must not state slots"),
            ("two_corner", lambda obj: obj.update(kind="foo"), "unknown certificate kind 'foo'"),
            ("two_corner", lambda obj: obj.update(target=matrix_to_json(np.eye(5, 4))), "target must be square"),
            ("two_block", lambda obj: obj.update(target=matrix_to_json(np.eye(5))), "two-block target side 5 must be even"),
            (
                "quaternion",
                lambda obj: obj.update(target=matrix_to_json(np.eye(10))),
                "quaternion target of side 10 does not fit 3 or 4 doubled blocks of the factor width",
            ),
            ("two_corner", lambda obj: obj["target"].update(rows=0), "matrix dimensions must be positive"),
        ],
        ids=[
            "corner_without_slots",
            "slots_reversed",
            "quaternion_weight_1_3",
            "quaternion_with_slots",
            "unknown_kind",
            "non_square_target",
            "two_block_odd_side",
            "quaternion_side_misfit",
            "zero_rows",
        ],
    )
    def test_field_not_fixed_by_kind_and_factors(self, tmp_path, capsys, kind, edit, message):
        if kind == "two_corner":
            path = self.corner_json(tmp_path, edit)
        else:
            if kind == "two_block":
                cert = two_block_isometries(random_block_psd(GeneratorSpec(seed=2, alpha=2, n=1, rank=3)))
            else:
                cert = quaternion_pipeline(random_block_psd(GeneratorSpec(seed=2, alpha=3, n=1, rank=3)), beta=3)[1]
            obj = certificate_to_json(cert)
            edit(obj)
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(obj))
        assert run(["verify", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            ("two_block", "kind", list(range(100000)), "error: unknown certificate kind [0, 1, 2, "),
            ("two_block", "slots", list(range(100000)), "error: two_block_isometry certificate must not state slots, got [0, 1, 2, "),
            ("two_corner", "slots", list(range(100000)), "error: corner certificate slots [0, 1, 2, "),
            ("two_corner", "slots", ["x"] * 100000, "error: malformed certificate JSON: slots must be a list of integers, got ['x', "),
        ],
        ids=["kind", "slots_of_another_kind", "corner_slots", "slots_not_integers"],
    )
    def test_stated_value_is_cut_in_its_message(self, tmp_path, capsys, kind, field, value, message):
        # a kind or slots list of 100000 integers was printed whole, a 689 KB line
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({**four_kinds()[kind], field: value}))
        assert run(["verify", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and len(err.encode()) < 300

    def test_weight_not_a_string(self, tmp_path, capsys):
        # true used to be read as the corner weight 1
        path = self.corner_json(tmp_path, lambda obj: obj.update(weight=True))
        assert run(["verify", path]) == 2
        assert "weight must be" in capsys.readouterr().err

    def test_non_integer_block_dim(self, tmp_path, capsys):
        # side 2: block_dim 1.5 used to load as 1, a partition the file never stated
        path = tmp_path / "H.json"
        assert run(["gen", "--alpha", 2, "--n", 1, "-o", path]) == 0
        obj = json.loads(path.read_text())
        obj["block_dim"] = 1.5
        path.write_text(json.dumps(obj))
        assert run(["check", path]) == 2
        assert "must be integers" in capsys.readouterr().err

    def test_string_matrix_entry(self, tmp_path):
        # a zero target whose first entry is the string "00": it used to parse as 0+0j
        zero = two_corner_decomposition(np.zeros((4, 4)), 2, 2)
        obj = certificate_to_json(zero)
        obj["target"]["entries"][0] = "00"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", path]) == 2


class TestOverflow:
    """Inputs past 1e154, where a squared Frobenius norm overflows: the
    tolerance slack stays finite, so validation stays on, until the norm
    itself passes the float range and no verdict can be made (exit 3)."""

    def write(self, path, data):
        path.write_text(json.dumps(block_matrix_to_json(BlockMatrix(data, block_dim=2, block_count=2))))
        return path

    @pytest.mark.parametrize(
        "command, rule",
        [(["check"], "Hermitian test"), (["decompose", "--two-block"], "Hermitian-block test")],
        ids=["check", "decompose"],
    )
    def test_undecided_rule_is_named(self, tmp_path, capsys, command, rule):
        # PSD with finite entries, but ||H||_F passes the float range: the
        # first decision at that scale has an infinite slack, and says which
        b = np.array([[0.0, 1.2e308], [-1.2e308, 0.0]])
        path = self.write(tmp_path / "H.json", np.block([[1.3e308 * np.eye(2), b], [b.T, 1.3e308 * np.eye(2)]]))
        assert run([*command, path, "-o", tmp_path / "out.json"]) == 3
        message = "cannot judge an excess of 0.000000e+00 against a slack of inf: not finite"
        assert capsys.readouterr().err == f"numerical failure: {rule} at scale inf: {message}\n"

    def test_negative_definite_input_rejected(self, tmp_path):
        path = self.write(tmp_path / "neg.json", -1e160 * np.eye(4))
        assert run(["decompose", "--two-block", path, "-o", tmp_path / "c.json"]) == 2
        assert not (tmp_path / "c.json").exists()

    def test_scaled_counterexample_rejected(self, tmp_path):
        path = self.write(tmp_path / "bad.json", 1e160 * nonhermitian_counterexample().data)
        assert run(["decompose", "--two-block", path, "-o", tmp_path / "c.json"]) == 2

    @pytest.mark.parametrize(
        "command, rule",
        [(["check"], "Hermitian test"), (["decompose", "--two-block"], "Hermitian-block test")],
        ids=["check", "decompose"],
    )
    def test_overflowing_skew_is_numerical_failure(self, tmp_path, command, rule):
        # M - M* overflows and ||M||_F passes the float range: no verdict
        # either way, and stderr is the one message, naming the rule and its
        # scale, with no numpy warning
        path, out = tmp_path / "H.json", tmp_path / "out.json"
        h = BlockMatrix([[8.9e307, -1.7e308], [8e307, 8.9e307]], block_dim=1, block_count=2)
        path.write_text(json.dumps(block_matrix_to_json(h)))
        argv = [sys.executable, "-m", "psdblocks.cli", *command, str(path), "-o", str(out)]
        done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": pythonpath()}, capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr.startswith(f"numerical failure: {rule} at scale inf: cannot judge an excess of ")
        assert done.stderr.endswith("against a slack of inf: not finite\n") and done.stderr.count("\n") == 1
        assert done.stdout == "" and not out.exists()

    def test_large_scale_certificate_verifies(self, tmp_path):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "c.json"
        assert run(["gen", "--alpha", 2, "--n", 64, "--scale", "1e153", "--seed", 1, "-o", h_path]) == 0
        assert run(["decompose", "--two-block", h_path, "-o", cert_path]) == 0
        assert run(["verify", cert_path]) == 0

    @pytest.mark.parametrize(
        "command, data, block_dim, expected",
        [
            (["decompose", "--two-block"], 8.9e307 * np.eye(2), 1, 0),
            (["decompose", "--two-block"], np.diag([1.5e308, 1.0]), 1, 0),
            (["decompose", "--quaternion"], 5e307 * np.eye(4), 1, 3),
            (["check"], 5e307 * np.eye(4), 1, 3),
            (["check"], np.diag([1e308, 0, 0, 1e308]), 2, 3),
            (["check"], np.diag([1e308, 1e308]), 2, 3),
        ],
        ids=[
            "two_block_8.9e307",
            "two_block_1.5e308",
            "quaternion_5e307",
            "check_5e307",
            "check_partial_sums_2_blocks",
            "check_partial_sums_1_block",
        ],
    )
    def test_entries_near_the_float_limit(self, tmp_path, capsys, command, data, block_dim, expected):
        # sums of these finite entries overflow: the run completes with
        # finite defects or is a numerical failure, never NaN or exit 2
        path = tmp_path / "H.json"
        h = BlockMatrix(data, block_dim=block_dim, block_count=len(data) // block_dim)
        path.write_text(json.dumps(block_matrix_to_json(h)))
        out = tmp_path / "out.json"
        assert run([*command, path, "-o", out]) == expected
        err = capsys.readouterr().err
        assert "Warning" not in err
        if expected == 3:
            assert "numerical failure" in err
            assert not out.exists()
            return

        def reject(constant):
            raise AssertionError(f"artifact holds {constant}")

        json.loads(out.read_text(), parse_constant=reject)
        assert run(["verify", out]) == 0

    def test_overflowing_reconstruction_is_numerical_failure(self, tmp_path, capsys):
        # every field is well formed; the two 1.5e308 terms sum past the float limit
        obj = {
            "kind": "two_corner",
            "weight": "1",
            "target": matrix_to_json(np.diag([1.5e308, 1.5e308])),
            "factors": [matrix_to_json(np.array([[1.0], [0.0]]))] * 2,
            "slots": [1, 1],
        }
        path, out = tmp_path / "corner.json", tmp_path / "report.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", path, "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: two_corner defects are not finite")
        assert "Warning" not in err
        assert not out.exists()

    def test_overflow_above_the_diagonal_is_numerical_failure(self, tmp_path, capsys):
        # side 130, three blocks of rows: the sum is -1.5e308 at (100, 0), as the target is, and the target's mirror entry
        # (0, 100), in a block above the diagonal measured against the sum's conjugate transpose, is +1.5e308, so that
        # block's residual alone overflows; the second factor is 0, a defect past the bound but finite
        target = np.zeros((130, 130))
        target[0, 0] = target[100, 100] = target[0, 100] = 1.5e308
        target[100, 0] = -1.5e308
        first = np.zeros((130, 1))
        first[0, 0], first[100, 0] = 1.0, -1.0
        obj = {
            "kind": "two_corner",
            "weight": "1",
            "target": matrix_to_json(target),
            "factors": [matrix_to_json(first), matrix_to_json(np.zeros((130, 129)))],
            "slots": [1, 129],
        }
        path, out = tmp_path / "corner.json", tmp_path / "report.json"
        path.write_text(json.dumps(obj))
        assert run(["verify", path, "-o", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: two_corner defects are not finite")
        assert "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, expected, message",
        [
            (["gen", "--scale", "inf", "-o", "H.json"], 2, "error: scale must be finite and positive, got inf"),
            (["gen", "--scale", "1e308", "--seed", 1, "-o", "H.json"], 3, "numerical failure: scale 1e+308 overflows"),
            (["check", "--trials", 1, "--scale", "inf"], 2, "error: scale must be finite and positive, got inf"),
            (["check", "--trials", 1, "--scale", "1e308"], 3, "numerical failure: scale 1e+308 overflows"),
        ],
        ids=["gen_inf", "gen_1e308", "check_inf", "check_1e308"],
    )
    def test_generator_scale(self, tmp_path, monkeypatch, capsys, command, expected, message):
        monkeypatch.chdir(tmp_path)
        assert run(command) == expected
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Warning" not in err
        assert not (tmp_path / "H.json").exists()


class TestSeedRange:
    """Seeds are the unsigned 64-bit integers; any other seed is a usage error."""

    @pytest.mark.parametrize(
        "command, seed",
        [
            (["gen", "-o", "H.json", "--seed", 2**64 + 1], 2**64 + 1),
            (["gen", "-o", "H.json", "--seed", 2**64], 2**64),
            (["gen", "-o", "H.json", "--seed", -1], -1),
            (["check", "-o", "H.json", "--trials", 2, "--seed", 2**64 - 1], 2**64),
            (["check", "-o", "H.json", "--trials", 1, "--seed", -1], -1),
            (["demo", "--seed", 2**64 - 1], 2**64),
            (["demo", "--seed", -1], -1),
        ],
        ids=["gen_2**64+1", "gen_2**64", "gen_-1", "check_last_trial_2**64", "check_-1", "demo_2**64-1", "demo_-1"],
    )
    def test_out_of_range_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, command, seed):
        monkeypatch.chdir(tmp_path)
        assert run(command) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "H.json").exists()

    def test_largest_seed_is_echoed(self, tmp_path):
        h_path, k_path = tmp_path / "H.json", tmp_path / "k.json"
        assert run(["gen", "--seed", 2**64 - 1, "-o", h_path]) == 0
        assert json.loads(h_path.read_text())["config"]["seed"] == 2**64 - 1
        assert run(["check", "--trials", 2, "--seed", 2**64 - 2, "-o", k_path]) == 0
        assert json.loads(k_path.read_text())["config"]["seed"] == 2**64 - 2


class TestConfigEcho:
    """An artifact's "config" is its command's parsed arguments."""

    def test_config_keys_are_the_command_flags(self, tmp_path):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        artifacts = {
            "gen": (["gen", "--alpha", 3, "-o", h_path], h_path),
            "decompose": (["decompose", "--quaternion", h_path, "-o", cert_path], cert_path),
            "verify": (["verify", cert_path, "-o", tmp_path / "r.json"], tmp_path / "r.json"),
            "check": (["check", h_path, "-o", tmp_path / "k.json"], tmp_path / "k.json"),
        }
        assert set(artifacts) == set(sub.choices) - {"demo"}  # demo writes no artifact
        for command, (argv, path) in artifacts.items():
            assert run(argv) == 0
            config = json.loads(path.read_text())["config"]
            dests = {a.dest for a in sub.choices[command]._actions} - {"help"}
            assert set(config) == dests | {"command", "timestamp"}, command
            assert config["command"] == command
        # without --beta the quaternion route uses, and echoes, the block count
        assert json.loads(cert_path.read_text())["config"]["beta"] == 3

    def test_two_block_echoes_no_beta(self, tmp_path, capsys):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        assert run(["gen", "-o", h_path]) == 0
        assert run(["decompose", "--two-block", h_path, "-o", cert_path]) == 0
        config = json.loads(cert_path.read_text())["config"]
        assert config["mode"] == "two_block" and config["beta"] is None
        # --beta would be ignored: a usage error, and nothing is written
        cert_path.unlink()
        assert run(["decompose", "--two-block", "--beta", 4, h_path, "-o", cert_path]) == 2
        assert "--beta 4 given with --two-block" in capsys.readouterr().err
        assert not cert_path.exists()

    def test_gen_has_no_tolerance_flags(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--tol-abs", "1e-9", "-o", tmp_path / "H.json"])
        assert exc.value.code == 2


class TestCompactArtifacts:
    """Every artifact is one line of compact JSON holding the library's payload."""

    def test_artifacts_are_single_line_library_payloads(self, tmp_path):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        h2_path, two_path = tmp_path / "H2.json", tmp_path / "two.json"
        verify_path, check_path = tmp_path / "r.json", tmp_path / "k.json"
        assert run(["gen", "--alpha", 3, "--n", 2, "--seed", 4, "-o", h_path]) == 0
        assert run(["decompose", "--quaternion", h_path, "-o", cert_path]) == 0
        assert run(["gen", "--alpha", 2, "--n", 3, "--seed", 4, "-o", h2_path]) == 0
        assert run(["decompose", "--two-block", h2_path, "-o", two_path]) == 0
        assert run(["verify", cert_path, "-o", verify_path]) == 0
        assert run(["check", h_path, "-o", check_path]) == 0

        h = random_block_psd(GeneratorSpec(seed=4, alpha=3, n=2, rank=3))
        h2 = random_block_psd(GeneratorSpec(seed=4, alpha=2, n=3, rank=3))
        cert = quaternion_pipeline(h, beta=3)[1]
        suite = run_inequality_suite(h)
        expected = {
            h_path: block_matrix_to_json(h),
            cert_path: certificate_to_json(cert),
            h2_path: block_matrix_to_json(h2),
            two_path: certificate_to_json(two_block_isometries(h2)),
            verify_path: report_to_json(verify_certificate(cert)),
            # check states its config first; the others append it
            check_path: {"config": None, "reports": [report_to_json(suite)], "passed": suite.passed},
        }
        for path, payload in expected.items():
            data = path.read_bytes()
            stated = {**payload, "config": json.loads(data)["config"]}
            # the CLI writes matrices from their float64 buffers, the
            # library payload holds lists: the bytes are the same
            assert data == orjson.dumps(stated, option=orjson.OPT_APPEND_NEWLINE), path.name

    def test_encode_peak_memory(self, tmp_path, monkeypatch, traced_peak):
        rng = np.random.default_rng(8)
        h = BlockMatrix(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)), block_dim=128, block_count=2)
        monkeypatch.setattr("psdblocks.cli.random_block_psd", lambda spec: h)
        path = tmp_path / "H.json"
        code, peak = traced_peak(lambda: run(["gen", "--alpha", 2, "--n", 128, "-o", path]))
        assert code == 0
        # about 0.16x: the matrix and one chunk's text; a whole-file buffer
        # reached about 1.6x, plain-list entries (two Python floats and a
        # list per ~41 bytes written) about 4.7x
        assert peak < 0.5 * path.stat().st_size

    def test_decompose_peak_memory(self, tmp_path, traced_peak):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        assert run(["gen", "--alpha", 4, "--n", 32, "--seed", 1, "-o", h_path]) == 0
        code, peak = traced_peak(lambda: run(["decompose", "--quaternion", h_path, "-o", cert_path]))
        assert code == 0
        # about 1.09x: the target, the factors and the construction's
        # temporaries; each factor's left and conjugate made whole in the
        # defects reached 1.25x, each term summed whole 1.43x, a whole-file
        # buffer and the dead terms 2.4x
        assert peak < 1.15 * cert_path.stat().st_size

    @needs_vmhwm
    def test_gen_resident_peak(self, tmp_path):
        # orjson's tree of an array's rows is outside tracemalloc: measure the
        # peak resident set of fresh processes, as the rise over a tiny instance
        out = tmp_path / "H.json"
        base = peak_kib("gen", "--alpha", 2, "--n", 2, "-o", out)
        rise = 1024 * (peak_kib("gen", "--alpha", 2, "--n", 256, "-o", out) - base)
        # about 2.3x the 10 MB file: the matrix, its generation and one
        # chunk at a time; orjson given the whole matrix reached 5.0x
        assert rise < 3.5 * out.stat().st_size

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        """Quaternion certificates at n = 1 and 48, and the latter with weight 1/3."""
        tmp, certs = tmp_path_factory.mktemp("certs"), []
        for n in (1, 48):
            h_path, cert_path = tmp / f"H{n}.json", tmp / f"cert{n}.json"
            assert run(["gen", "--alpha", 4, "--n", n, "--seed", 1, "-o", h_path]) == 0
            assert run(["decompose", "--quaternion", h_path, "-o", cert_path]) == 0
            certs.append(cert_path)
        certs.append(tmp / "weight.json")
        certs[2].write_bytes(certs[1].read_bytes().replace(b'"1/4"', b'"1/3"', 1))
        return certs

    @needs_vmhwm
    def test_verify_resident_peak(self, certs):
        base, (peak, child) = peaks_kib("verify", certs[0])[0], peaks_kib("verify", certs[1])
        size = certs[1].stat().st_size
        # about 0.67-0.70x the 10 MB certificate: the arrays and one chunk's
        # list; the defects' sum held whole reached 0.87-0.89x, each factor's
        # left and conjugate made whole in the defects 1.07x, the bytes held
        # through the decode 1.75x, the whole text and a matrix's lists 3.5x
        assert 1024 * (peak - base) < 0.8 * size
        # the child that decodes about half the arrays: about 0.7x the
        # certificate below the fresh process's own peak, as it holds no bytes
        # of the file and counts only the pages it maps, shared ones too
        assert 0 < 1024 * child < 1024 * base + 0.1 * size
        # a wrong weight decodes nothing, and the skeleton is found in windows:
        # below the tiny certificate's peak; the whole file's bytes reached 0.9x
        assert 1024 * (peak_kib("verify", certs[2], code=2) - base) < 0.1 * size

    @needs_vmhwm
    def test_long_lived_verify_keeps_its_peak(self, certs):
        # a file read whole grows a heap the allocator keeps, which every later
        # verify in the process peaks on top of: about 0.5x the certificate
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": pythonpath()}
        argv = [sys.executable, "-c", LONG_LIVED_CHILD, *map(str, [certs[1], certs[2], certs[1]])]
        done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        first, _, third = map(int, done.stdout.split()[-3:])
        assert 1024 * (third - first) < 0.1 * certs[1].stat().st_size

    @needs_vmhwm
    def test_decompose_resident_peak(self, tmp_path):
        # tracemalloc misses memory outside Python's allocator, as a fresh
        # process's peak does not
        out = tmp_path / "cert.json"
        peaks = []
        for n in (1, 64):
            h_path = tmp_path / f"H{n}.json"
            assert run(["gen", "--alpha", 4, "--n", n, "--seed", 1, "-o", h_path]) == 0
            peaks.append(peak_kib("decompose", "--quaternion", h_path, "-o", out))
        rise = 1024 * (peaks[1] - peaks[0])
        # about 1.01x the 18 MB certificate; the defects' sum held whole
        # reached 1.23-1.24x, each factor's left and conjugate made whole in
        # the defects 1.4x, each term summed whole, the padded copy of H and
        # the core's eigenvectors held to the end 1.7x
        assert rise < 1.12 * out.stat().st_size

    @needs_vmhwm
    def test_check_file_resident_peak(self, tmp_path):
        # scale 1e-3 keeps det(I + H) in range, so the suite decides (exit 0)
        paths = []
        for n in (1, 64):
            paths.append(tmp_path / f"H{n}.json")
            assert run(["gen", "--alpha", 4, "--n", n, "--seed", 1, "--scale", "1e-3", "-o", paths[-1]]) == 0
        rise = 1024 * (peak_kib("check", paths[1]) - peak_kib("check", paths[0]))
        # about 2.1x the 3.1 MB instance, with the suite's eigensolves at
        # side 256; the whole text and the matrix's lists reached 3.9x
        assert rise < 3.0 * paths[1].stat().st_size

    def test_stdout_is_an_output_path(self, tmp_path):
        # the writer opens the path it is given: no temporary file renamed over it
        argv = [sys.executable, "-m", "psdblocks.cli", "gen", "--alpha", "2", "--n", "2", "-o", "/dev/stdout"]
        done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": pythonpath()}, check=True, capture_output=True)
        payload = json.loads(done.stdout.splitlines()[0])
        assert block_matrix_from_json(payload).side == 4

    @pytest.mark.parametrize(
        "scale, rank",
        [("1e-150", 3), ("1", 3), ("1e150", 3), ("1", 1)],
        ids=["scale_1e-150", "scale_1", "scale_1e150", "rank_1"],
    )
    def test_certificate_values_are_bit_identical(self, tmp_path, scale, rank):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        assert run(["gen", "--alpha", 4, "--n", 3, "--rank", rank, "--scale", scale, "--seed", 2, "-o", h_path]) == 0
        assert run(["decompose", "--quaternion", h_path, "-o", cert_path]) == 0
        h = random_block_psd(GeneratorSpec(seed=2, alpha=4, n=3, rank=rank, scale=float(scale)))
        assert_same_bits(json.loads(cert_path.read_text()), quaternion_pipeline(h, beta=4)[1])

    def test_special_values_are_bit_identical(self, tmp_path):
        h_path, cert_path = tmp_path / "H.json", tmp_path / "cert.json"
        special = [5e-324, -0.0, 9.999999999999999e-05, 1.7976931348623157e308]
        h = BlockMatrix(np.diag(special).astype(np.complex128), block_dim=2, block_count=2)
        h_path.write_text(json.dumps(block_matrix_to_json(h)))
        assert run(["decompose", "--two-block", h_path, "-o", cert_path]) == 0
        obj = json.loads(cert_path.read_text())
        assert_same_bits(obj, two_block_isometries(h))
        diagonal = np.array(obj["target"]["entries"])[::5, 0]
        assert diagonal.view(np.uint64).tolist() == np.array(special).view(np.uint64).tolist()


def whole_file(payload):
    """The bytes of one ``orjson.dumps`` call on the whole payload."""
    return orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE)


class TestStreamedWriter:
    """The writer streams each matrix in chunks of ``_CHUNK_ROWS`` entries
    and writes the bytes of one whole-payload ``orjson.dumps`` call."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (64, _CHUNK_ROWS // 64), (_CHUNK_ROWS + 1, 1), (3, _CHUNK_ROWS + 5)],
        ids=["one_entry", "one_chunk", "one_chunk_plus_one_row", "chunks_plus_remainder"],
    )
    def test_matrix_bytes_at_chunk_edges(self, tmp_path, monkeypatch, shape):
        rng = np.random.default_rng(5)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m.flat[0] = -0.0 + 5e-324j
        payload = {"kind": "quaternion", "target": matrix_to_wire(m), "factors": [matrix_to_wire(m), matrix_to_wire(m[:1])]}
        dumps, sizes = orjson.dumps, []

        def spy(obj, *args, **kwargs):
            if isinstance(obj, np.ndarray):
                sizes.append(len(obj))
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(orjson, "dumps", spy)
        path = tmp_path / "out.json"
        dump_json(str(path), payload)
        monkeypatch.undo()
        assert path.read_bytes() == whole_file(payload)

        def chunks(entries):
            return [_CHUNK_ROWS] * (entries // _CHUNK_ROWS) + [entries % _CHUNK_ROWS] * bool(entries % _CHUNK_ROWS)

        assert sizes == chunks(m.size) * 2 + chunks(shape[1])

    @pytest.mark.parametrize(
        "payload",
        [
            {"checks": [], "passed": True, "warnings": []},
            {
                "tolerance": {"atol": 1e-10, "rtol": 1e-8},
                "checks": [{"name": "sums", "lhs": [[1.5, -0.0], [5e-324, 1e150]], "rhs": [[], [2.0]], "margin": 0.5, "passed": True}],
                "passed": True,
                "warnings": ["clamped 2 eigenvalues"],
                "config": {"command": "verify", "out_path": "r\u00e9\"port\".json", "beta": None, "empty": {}},
            },
            {"reports": [{"checks": [], "warnings": []}, {"lhs": np.arange(3.0), "warnings": []}], "passed": False},
            {"factors": [{"rows": 2}, matrix_to_wire(np.eye(2)), [matrix_to_wire(np.eye(3))]], "defects": {}},
        ],
        ids=["empty_warnings", "nested_float_lists", "list_of_reports", "matrix_after_first_item"],
    )
    def test_report_bytes(self, tmp_path, payload):
        path = tmp_path / "out.json"
        dump_json(str(path), payload)
        assert path.read_bytes() == whole_file(payload)

    def test_failed_write_leaves_a_file_every_reader_rejects(self, tmp_path, monkeypatch, capsys):
        h_path, cut_h, cut_cert = tmp_path / "H.json", tmp_path / "cut_H.json", tmp_path / "cut_cert.json"
        gen = ["gen", "--alpha", 4, "--n", 20, "--seed", 1]  # 80 x 80: 6400 entries, two chunks
        assert run([*gen, "-o", h_path]) == 0
        dumps = orjson.dumps

        def full_disk_after_one_chunk():
            chunks = []

            def failing(obj, *args, **kwargs):
                if isinstance(obj, np.ndarray):
                    if chunks:
                        raise OSError(28, "No space left on device")
                    chunks.append(obj)
                return dumps(obj, *args, **kwargs)

            return failing

        for argv in ([*gen, "-o", cut_h], ["decompose", "--quaternion", h_path, "-o", cut_cert]):
            with monkeypatch.context() as patched:
                patched.setattr(orjson, "dumps", full_disk_after_one_chunk())
                assert run(argv) == 2
            assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        for path in (cut_h, cut_cert):
            # the header and the first chunk of the first matrix, no more
            assert path.read_bytes().count(b"],[") == _CHUNK_ROWS - 1
            for command in ("verify", "check"):
                assert run([command, path]) == 2
                assert capsys.readouterr().err.startswith("error: ")


def assert_same_bits(obj, cert):
    """A certificate read with stdlib ``json.loads`` holds the library's
    target and factors to the last bit (signed zeros and subnormals too)."""
    for stated, matrix in zip([obj["target"], *obj["factors"]], [cert.target, *cert.factors], strict=True):
        entries = np.array(stated["entries"])
        assert entries.dtype == np.float64
        assert (stated["rows"], stated["cols"]) == matrix.shape
        assert entries.view(np.uint64).tolist() == np.ascontiguousarray(matrix).view(np.uint64).reshape(-1, 2).tolist()


def four_kinds():
    """One certificate of each kind, as its library payload."""
    h4 = random_block_psd(GeneratorSpec(seed=6, alpha=4, n=4, rank=3))
    h2 = random_block_psd(GeneratorSpec(seed=6, alpha=2, n=5, rank=3))
    return {
        "corner_general": certificate_to_json(corner_decomposition_general(h4)),
        "two_corner": certificate_to_json(two_corner_decomposition(h2.data, 3, 7)),
        "two_block": certificate_to_json(two_block_isometries(h2)),
        "quaternion": certificate_to_json(quaternion_pipeline(h4, beta=4)[1]),
    }


def reversed_keys(obj):
    """The same JSON value with the keys of every object in reverse order."""
    if isinstance(obj, dict):
        return {key: reversed_keys(obj[key]) for key in reversed(obj)}
    if isinstance(obj, list):
        return [reversed_keys(x) for x in obj]
    return obj


class TestDecodeOnClose:
    """``verify`` parses the file's skeleton, judges the certificate's
    header on it, and only then decodes each matrix: the arrays, the
    reports and the rejections are those of a reader that parses the whole
    file first, except that a bad header is named before a number that
    reader cannot parse (``tests/test_reader.py``)."""

    def malformed(self, edit):
        obj = certificate_to_json(quaternion_pipeline(random_block_psd(GeneratorSpec(seed=3, alpha=4, n=2, rank=3)), beta=4)[1])
        edit(obj)
        return json.dumps(obj).replace("12345.0", "1e999")

    @pytest.mark.parametrize("kind", ["corner_general", "two_corner", "two_block", "quaternion"])
    def test_arrays_are_those_of_the_parsed_payload(self, tmp_path, kind):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(four_kinds()[kind]))
        parsed, loaded = json.loads(path.read_text()), load_json(str(path))
        for stated, read in zip([parsed["target"], *parsed["factors"]], [loaded["target"], *loaded["factors"]], strict=True):
            assert list(read) == list(stated) and isinstance(read["entries"], np.ndarray) and read["entries"].dtype == np.float64
            assert read["entries"].tobytes() == matrix_from_json(stated).tobytes()

    @pytest.mark.parametrize(
        "edit, code, message",
        [
            (
                lambda obj: (obj.update(weight="1/3"), obj["factors"][1]["entries"].__setitem__(5, [1.0, True])),
                2,
                "error: malformed certificate JSON: kind 'quaternion' carries weight 1/3, expected 1/4\n",
            ),
            (
                lambda obj: obj["factors"][1]["entries"].__setitem__(5, [1.0, True]),
                2,
                "error: malformed certificate JSON: malformed matrix entry at index 5: "
                "expected a pair of numbers [re, im], got [1.0, True]\n",
            ),
            (
                lambda obj: obj["factors"][0]["entries"].__setitem__(2, [1.0, 12345.0]),
                2,
                "error: malformed certificate JSON: matrix entries must be finite\n",
            ),
            (lambda obj: obj.update(config={"m": {"rows": 1, "cols": 1, "entries": [[1.0, True]]}}), 0, ""),
        ],
        ids=["weight_before_entry", "entry", "infinite_entry", "matrix_under_config"],
    )
    def test_malformed_file_is_rejected_as_before(self, tmp_path, capsys, edit, code, message):
        path = tmp_path / "cert.json"
        path.write_text(self.malformed(edit))
        assert run(["verify", path]) == code
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize(
        "command, message",
        [("verify", "malformed certificate JSON: 'kind'"), ("check", "malformed block matrix JSON: missing 'block_dim'")],
    )
    def test_bare_matrix_file_is_rejected_by_its_reader(self, tmp_path, capsys, command, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2))))
        assert run([command, path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_peak_memory(self, tmp_path, monkeypatch, traced_peak):
        # the parse holds one chunk's lists, not a matrix's: chunks of 4 KB
        # against matrices of 0.1 to 0.4 MB of text
        h = random_block_psd(GeneratorSpec(seed=1, alpha=4, n=16, rank=3))
        text = json.dumps(certificate_to_json(quaternion_pipeline(h, beta=4)[1]))
        data = text.encode()
        path = tmp_path / "cert.json"
        path.write_bytes(data)

        class ReadBefore(io.BufferedReader):
            """The file, whose whole read returns the bytes read before either peak."""

            def read(self, size=-1):
                return data if size == -1 else super().read(size)

        monkeypatch.setattr(Path, "open", lambda self, mode: ReadBefore(io.FileIO(self, mode)))  # the file is outside both peaks
        monkeypatch.setattr("psdblocks.kernel._READ_BYTES", 4096)
        peaks = [traced_peak(load)[1] for load in (lambda: json.loads(text), lambda: load_json(str(path)))]
        # about 0.12x, the arrays; decoding each matrix's lists as its
        # object closed reached 0.56x
        assert peaks[1] < 0.2 * peaks[0]

    @pytest.mark.parametrize("kind", ["corner_general", "two_corner", "two_block", "quaternion"])
    def test_any_json_layout_is_read(self, tmp_path, kind):
        # indented, keys reversed at every level, and one factor with an
        # extra key, which leaves it to the decode after the parse
        obj = four_kinds()[kind]
        compact, other = tmp_path / "compact.json", tmp_path / "other.json"
        compact.write_bytes(orjson.dumps(obj))
        rewritten = reversed_keys(obj)
        rewritten["factors"][0]["note"] = "not a wire key"
        other.write_text(json.dumps(rewritten, indent=2))
        reports = []
        for path in (compact, other):
            out = tmp_path / f"{path.stem}.report.json"
            assert run(["verify", path, "-o", out]) == 0
            report = json.loads(out.read_text())
            report.pop("config")
            reports.append(report)
        assert reports[0] == reports[1]


class TestPipedInput:
    """A path that cannot seek, such as a pipe given as ``/dev/stdin``, is
    read into memory and then decoded as a file on disk is."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("piped")
        h, h2, cert = tmp / "H.json", tmp / "H2.json", tmp / "cert.json"
        assert run(["gen", "--alpha", 4, "--n", 6, "--seed", 3, "-o", h]) == 0
        assert run(["gen", "--alpha", 2, "--n", 6, "--seed", 3, "-o", h2]) == 0
        assert run(["decompose", "--quaternion", h, "-o", cert]) == 0
        data = cert.read_bytes()
        (tmp / "weight.json").write_bytes(data.replace(b'"1/4"', b'"1/3"'))
        (tmp / "truncated.json").write_bytes(data[: len(data) // 2])
        return tmp

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["verify"], "cert.json"),
            (["verify"], "weight.json"),
            (["verify"], "truncated.json"),
            (["check"], "H.json"),
            (["decompose", "--two-block"], "H2.json"),
            (["decompose", "--quaternion"], "H.json"),
        ],
        ids=["verify", "verify_bad_weight", "verify_truncated", "check", "decompose_two_block", "decompose_quaternion"],
    )
    def test_pipe_reads_as_the_file(self, files, tmp_path, argv, name):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": pythonpath()}
        child = "import sys; from psdblocks.cli import main; sys.exit(main(sys.argv[1:]))"
        outcomes = []
        for piped in (False, True):
            out = tmp_path / f"out{piped}.json"
            argv_out = [*argv, "/dev/stdin", "-o", str(out)]
            with open(files / name, "rb") as source:  # the file itself as stdin, or its bytes through a pipe
                stdin = {"input": source.read()} if piped else {"stdin": source}
                done = subprocess.run([sys.executable, "-c", child, *argv_out], env=env, capture_output=True, timeout=120, **stdin)
            written = json.loads(out.read_bytes()) if out.exists() else None
            if written is not None:
                written["config"].pop("timestamp")
                written["config"].pop("out_path")
            outcomes.append((done.returncode, done.stdout.replace(str(out).encode(), b"OUT"), done.stderr, written))
        assert outcomes[0] == outcomes[1]


class TestIdempotence:
    def test_verify_reports_identical_modulo_timestamp(self, tmp_path):
        h_path = tmp_path / "H.json"
        cert_path = tmp_path / "cert.json"
        run(["gen", "--alpha", 2, "--n", 2, "--seed", 1, "-o", h_path])
        run(["decompose", "--two-block", h_path, "-o", cert_path])
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert run(["verify", cert_path, "-o", r1]) == 0
        assert run(["verify", cert_path, "-o", r2]) == 0
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        for report in (a, b):  # timestamps and target paths are invocation metadata
            report["config"].pop("timestamp")
            report["config"].pop("out_path")
        assert a == b


class TestDemo:
    def test_demo_passes(self, capsys):
        assert run(["demo"]) == 0
        out = capsys.readouterr().out
        assert "demo: PASS" in out
        assert "violated as expected" in out
        assert "quaternion route" in out

    def test_verdict_follows_tolerance(self, capsys):
        # stage identities and defects hold to about 1e-15 relative
        assert run(["demo", "--tol-abs", 0, "--tol-rel", "1e-14"]) == 0
        assert capsys.readouterr().out.endswith("demo: PASS\n")
        assert run(["demo", "--tol-abs", 0, "--tol-rel", "3e-16"]) == 1
        assert capsys.readouterr().out.endswith("demo: FAIL\n")

    def test_tolerance_flags_accepted(self, tmp_path):
        h_path = tmp_path / "H.json"
        run(["gen", "--alpha", 2, "--n", 2, "--seed", 1, "-o", h_path])
        assert run(["check", h_path, "--tol-abs", "1e-9", "--tol-rel", "1e-7"]) == 0
