"""CLI tests: end-to-end pipelines, exit codes, idempotent reports."""

import json
import warnings

import numpy as np
import pytest

from psdblocks import (
    GeneratorSpec,
    block_matrix_to_json,
    certificate_to_json,
    corner_unitary,
    direct_sum,
    matrix_to_json,
    nonhermitian_counterexample,
    psd_sqrt,
    quaternion_pipeline,
    random_block_psd,
    random_psd,
    two_block_isometries,
    two_corner_decomposition,
)
from psdblocks.cli import main


def run(argv):
    return main([str(a) for a in argv])


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

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--alpha", 2, "--frobnicate", "-o", "x.json"])
        assert exc.value.code == 2

    def test_decompose_two_block_on_bad_blocks(self, tmp_path):
        bad = tmp_path / "bad.json"
        write_counterexample(bad)
        assert run(["decompose", "--two-block", bad, "-o", tmp_path / "c.json"]) == 2


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

    def test_tolerance_flags_accepted(self, tmp_path):
        h_path = tmp_path / "H.json"
        run(["gen", "--alpha", 2, "--n", 2, "--seed", 1, "-o", h_path])
        assert run(["check", h_path, "--tol-abs", "1e-9", "--tol-rel", "1e-7"]) == 0
