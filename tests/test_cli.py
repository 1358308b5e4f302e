"""End-to-end behavior of the command-line interface."""

import json
import math

import numpy as np
import pytest

from prcond.cli import main
from prcond.closedform import harmonic_constants
from prcond.core import (
    Field,
    RngSpec,
    SensingMatrix,
    harmonic_frame,
    matrix_to_dict,
    save_matrix,
    sample_gaussian,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

def test_frame_json_matches_library_payload(capsys):
    code, out, _ = run_cli(capsys, "frame", "--m", "5")
    assert code == 0
    assert json.loads(out) == matrix_to_dict(harmonic_frame(5))


def test_frame_csv_format(capsys):
    code, out, _ = run_cli(capsys, "frame", "--m", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "re_1,re_2"
    assert len(lines) == 5


def test_frame_requires_m(capsys):
    code, _, err = run_cli(capsys, "frame")
    assert code == 2
    assert "requires --m" in err


def test_frame_writes_output_file(capsys, tmp_path):
    target = tmp_path / "frame.json"
    code, out, _ = run_cli(capsys, "frame", "--m", "3", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_on_harmonic_frame_matches_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "beta", "--m", "4", "--p", "2", "--starts", "12")
    assert code == 0
    payload = json.loads(out)
    h = harmonic_constants(4, 2)
    assert payload["beta"] == pytest.approx(h.beta, abs=1e-6)
    assert payload["L"] == pytest.approx(h.L, abs=1e-6)
    assert payload["U"] == pytest.approx(h.U, abs=1e-6)
    assert payload["flags"] == []
    assert payload["solver"]["starts"] == 12


def test_beta_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "beta", "--m", "5", "--p", "1", "--starts", "8")
    _, second, _ = run_cli(capsys, "beta", "--m", "5", "--p", "1", "--starts", "8")
    assert first == second


def test_beta_rejects_zero_starts(capsys):
    # 0 is an explicit value, not a request for the default 64 starts
    code, out, err = run_cli(capsys, "beta", "--m", "5", "--starts", "0")
    assert code == 2
    assert out == ""
    assert "starts" in err


def test_beta_reads_matrix_files(capsys, tmp_path):
    A = sample_gaussian(Field.REAL, 7, 2, RngSpec(2024, 3))
    path = tmp_path / "mat.csv"
    save_matrix(A, path)
    code, out, _ = run_cli(capsys, "beta", "--matrix", str(path), "--starts", "8")
    assert code == 0
    payload = json.loads(out)
    assert (payload["m"], payload["d"]) == (7, 2)
    assert payload["beta"] >= math.sqrt(3.0) - 1e-4


def test_beta_reads_matrix_files_at_any_scale(capsys, tmp_path):
    # at 1e-200 the unrescaled planar solve divides by an underflowed sum;
    # L and U underflow there, but beta is that of the unit-scale matrix
    A = sample_gaussian(Field.REAL, 10, 2, RngSpec(1, 0))
    betas = []
    for name, matrix in (("unit.json", A), ("tiny.json", A.scaled(1e-200))):
        save_matrix(matrix, tmp_path / name)
        code, out, _ = run_cli(capsys, "beta", "--matrix", str(tmp_path / name))
        assert code == 0
        betas.append(json.loads(out)["beta"])
    assert math.isfinite(betas[1])
    assert betas[1] == pytest.approx(betas[0], rel=1e-9)


def test_beta_widens_real_files_to_complex(capsys, tmp_path):
    # widening is honored, and the widened matrix is then correctly caught
    # failing complex phase retrieval: u and conj(u) produce the same
    # intensities under real measurement vectors, so L collapses to zero
    A = sample_gaussian(Field.REAL, 8, 2, RngSpec(2024, 4))
    path = tmp_path / "mat.json"
    save_matrix(A, path)
    code, out, _ = run_cli(
        capsys, "beta", "--matrix", str(path), "--field", "complex", "--starts", "8"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["field"] == "complex"
    assert payload["L"] <= 1e-8
    assert "NoPhaseRetrievalSuspected" in payload["flags"]


def test_beta_refuses_narrowing_complex_files(capsys, tmp_path):
    A = sample_gaussian(Field.COMPLEX, 6, 2, RngSpec(2024, 5))
    path = tmp_path / "mat.json"
    save_matrix(A, path)
    code, _, err = run_cli(capsys, "beta", "--matrix", str(path), "--field", "real")
    assert code == 2
    assert "cannot be reinterpreted" in err


def test_beta_flags_non_injective_input_with_exit_3(capsys, tmp_path):
    path = tmp_path / "degenerate.csv"
    path.write_text("1.0,0.0\n1.0,0.0\n1.0,0.0\n")
    code, out, _ = run_cli(capsys, "beta", "--matrix", str(path), "--starts", "8")
    assert code == 3
    payload = json.loads(out)
    assert payload["beta"] is None
    assert "NoPhaseRetrievalSuspected" in payload["flags"]


def test_beta_rejects_conflicting_inputs(capsys, tmp_path):
    path = tmp_path / "mat.csv"
    save_matrix(harmonic_frame(3), path)
    code, _, err = run_cli(capsys, "beta", "--m", "3", "--matrix", str(path))
    assert code == 2
    assert "mutually exclusive" in err
    code, _, err = run_cli(capsys, "beta", "--m", "0", "--matrix", str(path))
    assert code == 2
    assert "mutually exclusive" in err
    code, _, err = run_cli(capsys, "beta")
    assert code == 2


@pytest.mark.parametrize("field", ["real", "complex"])
def test_beta_rejects_one_column_matrices(capsys, tmp_path, field):
    path = tmp_path / "column.csv"
    path.write_text("1.0\n2.0\n")
    code, out, err = run_cli(capsys, "beta", "--matrix", str(path), "--field", field)
    assert code == 2
    assert out == ""
    assert "need dimension d >= 2" in err


def test_beta_rejects_missing_file(capsys):
    code, _, err = run_cli(capsys, "beta", "--matrix", "/nonexistent/path.json")
    assert code == 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_text_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1", "--m", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert "universal lower bounds" in lines[0]
    assert len(lines) == 2 + 4  # header rows plus m = 3..6


def test_bounds_csv_carries_exact_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1", "--m", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,universal_bound,source,harmonic_beta"
    cells = lines[-1].split(",")
    assert cells[0] == "5"
    assert float(cells[1]) == pytest.approx(5.0 * math.tan(math.pi / 10.0), rel=1e-15)
    assert cells[2] == "l1-real-refined"
    assert float(cells[3]) == pytest.approx(harmonic_constants(5, 1).beta, rel=1e-15)


def test_bounds_complex_field_has_no_harmonic_column(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--p", "2", "--field", "complex", "--m", "4", "--format", "csv"
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.endswith(",l2-complex,")


def test_bounds_rejects_tiny_m(capsys):
    code, _, err = run_cli(capsys, "bounds", "--m", "2")
    assert code == 2
    code, out, _ = run_cli(capsys, "bounds", "--m", "0")
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_bands_bracket_harmonic_constants(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "5", "--p", "1")
    assert code == 0
    payload = json.loads(out)
    h = harmonic_constants(5, 1)
    lo_band = payload["lower"]["certified_band"]
    up_band = payload["upper"]["certified_band"]
    assert lo_band[0] <= h.L <= lo_band[1] + 1e-12
    assert up_band[0] - 1e-12 <= h.U <= up_band[1]
    beta_lo, beta_hi = payload["beta_band"]
    assert beta_lo <= h.beta <= beta_hi
    assert "grid" not in payload
    assert payload["orthogonal"]["kind"] == "OrthogonalM"


def test_oracle_gives_no_beta_ceiling_for_a_non_injective_matrix(capsys, tmp_path):
    # the real identity does not do phase retrieval: L = 0 at p=1, so the
    # lower band reaches 0 and beta has no certified ceiling
    path = tmp_path / "identity.json"
    save_matrix(SensingMatrix(Field.REAL, np.eye(2)), path)
    code, out, _ = run_cli(capsys, "oracle", "--matrix", str(path), "--p", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"]["certified_band"][0] <= 0.0
    assert payload["beta_band"][1] is None


def test_oracle_requires_planar_input(capsys, tmp_path):
    A = sample_gaussian(Field.REAL, 6, 3, RngSpec(2024, 6))
    path = tmp_path / "wide.json"
    save_matrix(A, path)
    code, _, err = run_cli(capsys, "oracle", "--matrix", str(path))
    assert code == 2
    assert "d=2" in err


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def test_experiment_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--m", "10", "--d", "2", "--trials", "3",
        "--starts", "6", "--seed", "99",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "gaussian-sweep"
    assert payload["config"]["trials"] == 3
    assert payload["config"]["seed"] == 99
    assert payload["summary"]["failures"] == 0
    assert payload["summary"]["mean_beta"] > 1.0


def test_experiment_csv_and_record_file(capsys, tmp_path):
    target = tmp_path / "records.csv"
    code, out, _ = run_cli(
        capsys, "experiment", "--m", "8", "--d", "2", "--trials", "2",
        "--starts", "6", "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out.startswith("trial,seed,m,d,field,p,L,U,beta,runtime_ms")
    saved = target.read_text().strip().splitlines()
    assert len(saved) == 3


def test_experiment_rejects_zero_starts(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "--m", "8", "--d", "2", "--trials", "1", "--starts", "0",
    )
    assert code == 2
    assert out == ""
    assert "starts" in err


def test_experiment_requires_dimensions(capsys):
    code, _, err = run_cli(capsys, "experiment", "--m", "8")
    assert code == 2
    assert "--d" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_text_report_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "overall: pass" in out
    for name in ("metric-identity", "lagrange-sums", "gk-closed-form",
                 "g-min-at-one", "sub-tan", "expectation-curves"):
        assert name in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["suites"]) == 6
    for suite in payload["suites"]:
        assert suite["max_residual"] <= suite["threshold"]


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["conjure"])


def test_bad_p_choice_is_rejected_by_the_parser():
    with pytest.raises(SystemExit):
        main(["beta", "--m", "4", "--p", "3"])


@pytest.mark.parametrize("command, fmt", [
    ("bounds", "json"), ("beta", "csv"), ("beta", "text"), ("frame", "text"),
    ("oracle", "csv"), ("oracle", "text"), ("experiment", "text"), ("verify", "csv"),
])
def test_formats_a_subcommand_does_not_write_are_usage_errors(capsys, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main([command, "--m", "4", "--format", fmt] if command != "verify"
             else [command, "--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_out_flag_duplicates_stdout(capsys, tmp_path):
    target = tmp_path / "bounds.txt"
    code, out, _ = run_cli(capsys, "bounds", "--m", "4", "--out", str(target))
    assert code == 0
    assert target.read_text().rstrip("\n") == out.rstrip("\n")
