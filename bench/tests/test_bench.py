"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Each workload runs once at a tiny scale, untraced and traced, and each
output check is fed a corrupted result that it must reject.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)
import checks  # noqa: E402
import workloads  # noqa: E402
import numpy as np  # noqa: E402
from prcond.core import UnitPair, harmonic_frame  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _tiny(name, trace):
    return run.measure(name, seed=3, seconds=0, trace=trace, probes=1, tiny=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    record = _tiny(name, trace=False)
    result = record["result"]
    assert record["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = record["environment"]
    assert env["blas_threads"] == 1 and env["cpu_count"] >= 1


# entries each workload must reach in a traced run
REACHED = {
    "sweep-d4": ["lipschitz.condition_number.calls", "experiment.run_gaussian_sweep.trials",
                 "lipschitz.lower_lipschitz.p1.calls", "lipschitz.polish.p2.calls"],
    "planar-certify": ["oracle.grid_lower_l.calls", "oracle.grid_upper_u.calls",
                       "lipschitz.upper_lipschitz.p2.calls", "lipschitz.polish.p1.calls"],
    "cli-cold": ["cli.start.calls", "cli.main.beta.calls", "cli.main.oracle.calls",
                 "experiment.to_json_dict.calls", "lipschitz.condition_number.calls"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    record = _tiny(name, trace=True)
    metrics = record["result"]["metrics"]
    assert record["result"]["failed"] == 0
    assert set(metrics) == PER_LAYER
    assert record["tracer"]["missing"] == []
    for key in REACHED[name]:
        assert metrics[key]["value"] >= 1, key
    assert all(metrics[k]["value"] == 0 for k in metrics if k.endswith(".failures"))


def test_run_without_sources_exits_nonzero_and_prints_no_result():
    copy = BENCH / "out" / "bare-checkout"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep-d4", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# corrupted results
# ---------------------------------------------------------------------------

def _perturbed(w):
    w = w + 1e-2 * np.ones_like(w)
    return w / np.linalg.norm(w)


@pytest.fixture(scope="module")
def sweep():
    wl = workloads.SweepD4(5, tiny=True)
    try:
        out = wl.job(1)
    finally:
        wl.close()
    assert wl.check(1, out) == []
    return wl, out


def _with_record(out, i, **changes):
    results, captured = out
    res = results[i]
    rec = dataclasses.replace(res.records[0], **changes)
    results = list(results)
    results[i] = dataclasses.replace(res, records=(rec,))
    return results, captured


def test_sweep_check_rejects_scaled_l(sweep):
    wl, out = sweep
    rec = out[0][2].records[0]
    assert wl.check(1, _with_record(out, 2, L=rec.L * 1.01))


def test_sweep_check_rejects_p1_u_off_the_eigenvalue(sweep):
    wl, out = sweep
    rec = out[0][0].records[0]
    problems = wl.check(1, _with_record(out, 0, U=rec.U * (1 + 1e-8)))
    assert any("largest eigenvalue" in p for p in problems)


def test_sweep_check_rejects_beta_below_the_floor(sweep):
    wl, out = sweep
    assert wl.check(1, _with_record(out, 1, beta=1.5))
    assert wl.check(1, _with_record(out, 3, beta=math.inf))


def test_sweep_check_rejects_perturbed_witness(sweep):
    wl, out = sweep
    results, captured = out
    A, report = captured[3]
    w = report.lower.witness
    bad = UnitPair(w.field, _perturbed(w.u), w.v, w.constraint)
    report = dataclasses.replace(report, lower=dataclasses.replace(report.lower, witness=bad))
    assert wl.check(1, (results, captured[:3] + [(A, report)]))


def test_sweep_check_rejects_u_that_a_random_vector_beats(sweep):
    wl, out = sweep
    rec = out[0][3].records[0]
    problems = wl.check(1, _with_record(out, 3, U=rec.U * 0.5))
    assert any("random unit vector" in p for p in problems)


@pytest.fixture(scope="module")
def planar():
    wl = workloads.PlanarCertify(5)
    out = wl.job(1)
    assert wl.check(1, out) == []
    return wl, out


def test_planar_check_rejects_scaled_l(planar):
    wl, out = planar
    out = list(out)
    low = out[1][0]
    out[1] = (dataclasses.replace(low, value=low.value * 1.01),) + out[1][1:]
    assert any("outside" in p for p in wl.check(1, out))


def test_planar_check_rejects_perturbed_u_witness(planar):
    wl, out = planar
    out = list(out)
    up = out[3][1]
    out[3] = (out[3][0], dataclasses.replace(up, witness=_perturbed(up.witness))) + out[3][2:]
    assert any("witness gives" in p for p in wl.check(1, out))


def test_planar_check_rejects_band_that_misses_the_exact_l(planar):
    wl, out = planar
    out = list(out)
    glow = out[1][2]
    lo, hi = glow.certified_band
    shifted = dataclasses.replace(glow, certified_band=(lo * 1.01, hi * 1.01))
    out[1] = out[1][:2] + (shifted,) + out[1][3:]
    assert any("exact L" in p for p in wl.check(1, out))


@pytest.mark.parametrize("m", [3, 4, 7, 10])
def test_exact_planar_l_matches_the_harmonic_frame(m):
    assert abs(checks.planar_exact_l_p2(harmonic_frame(m).array) - math.sqrt(m / 8.0)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_planar_l_is_zero_for_a_complex_three_row_matrix(seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert checks.planar_exact_l_p2(arr) < 1e-6


@pytest.fixture(scope="module")
def cli():
    wl = workloads.CliCold(5, tiny=True)
    out = wl.job(1)
    assert wl.check(1, out) == []
    return wl, out


def _replace_call(wl, out, name, rc=None, edit=None):
    i = [c[0] for c in wl.calls].index(name)
    out = list(out)
    code, stdout, stderr, wall, rss = out[i]
    if edit is not None:
        payload = json.loads(stdout)
        edit(payload)
        stdout = json.dumps(payload)
    out[i] = (code if rc is None else rc, stdout, stderr, wall, rss)
    return out


def test_cli_check_rejects_wrong_exit_code(cli):
    wl, out = cli
    assert any("exit code" in p for p in wl.check(1, _replace_call(wl, out, "beta-p2", rc=3)))


def test_cli_check_rejects_harmonic_value_off_by_1e_5(cli):
    wl, out = cli

    def edit(payload):
        payload["L"] += 1e-5

    assert wl.check(1, _replace_call(wl, out, "beta-p1", edit=edit))


def test_cli_check_rejects_perturbed_matrix_witness(cli):
    wl, out = cli

    def edit(payload):
        payload["lower"]["witness"]["u"][0] += 1e-3

    assert wl.check(1, _replace_call(wl, out, "beta-matrix", edit=edit))


def test_cli_check_rejects_oracle_band_that_misses_the_harmonic_value(cli):
    wl, out = cli

    def edit(payload):
        lo, hi = payload["upper"]["certified_band"]
        payload["upper"]["certified_band"] = [lo * 1.01, hi * 1.01]

    assert wl.check(1, _replace_call(wl, out, "oracle", edit=edit))


def test_cli_check_rejects_experiment_min_beta_below_the_floor(cli):
    wl, out = cli

    def edit(payload):
        payload["summary"]["min_beta"] = 1.7

    assert wl.check(1, _replace_call(wl, out, "experiment", edit=edit))


def test_cli_check_rejects_failed_verify():
    wl = workloads.CliCold(5)
    good = {"passed": True, "suites": [{"name": "sub-tan", "passed": True}]}
    assert wl._check_verify(good, "verify") == []
    bad = {"passed": False, "suites": [{"name": "sub-tan", "passed": False}]}
    assert wl._check_verify(bad, "verify")


def test_harmonic_values_follow_the_paper():
    L, U, beta = checks.harmonic_values(7, 1)
    assert abs(beta - 7 * math.tan(math.pi / 14) / math.cos(math.pi / 14)) < 1e-12
    L, U, beta = checks.harmonic_values(8, 1)
    assert abs(beta - 4 * math.tan(math.pi / 8)) < 1e-12
    assert checks.beta_floor(False, 1, 9) < checks.harmonic_values(9, 1)[2]
    assert checks.beta_floor(True, 1, 9) == 2.0
