"""The timing harnesses under tools/ run to completion at a small budget."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_time_pair_kernels_writes_its_record(tmp_path):
    out = tmp_path / "BENCH_pair_kernels.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_pair_kernels.py"),
         "--m", "20", "--starts", "2", "--repeats", "2", "--out", str(out)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    env = record["environment"]
    assert env["cpu_count"] >= 1 and env["blas"] and env["blas_threads"] in (1, None)
    rows = record["results"]
    assert {(r["field"], r["layer"], r["p"]) for r in rows} == {
        (field, layer, p)
        for field in ("real", "complex")
        for layer, p in (("_second_order", 2), ("_second_order", 1), ("_newton_step", 2),
                         ("_decrease", 2), ("lower_lipschitz", 1), ("lower_lipschitz", 2))
    }
    assert all(r["d"] == 4 and r["m"] == 20 and 0.0 < r["min_s"] <= r["median_s"] for r in rows)


def test_time_verify_suites_writes_its_record(tmp_path):
    # the suites run at verify's own budgets, once: about a second
    out = tmp_path / "BENCH_verify_suites.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_verify_suites.py"),
         "--repeats", "1", "--out", str(out)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    env = record["environment"]
    assert env["cpu_count"] >= 1 and env["blas"] and env["blas_threads"] in (1, None)
    rows = record["results"]
    assert [r["suite"] for r in rows] == [
        "metric-identity", "lagrange-sums", "gk-closed-form", "g-min-at-one", "sub-tan",
        "expectation-curves", "verify_all",
    ]
    assert all(r["calls"] == 1 and 0.0 < r["min_s"] <= r["median_s"] for r in rows)
    peaks = [r["peak_rss_mb"] for r in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0.0


def test_time_planar_bands_writes_its_record(tmp_path):
    # twelve bands at the default grid, once each: well under a second
    out = tmp_path / "BENCH_planar_bands.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "time_planar_bands.py"),
         "--m", "4", "--repeats", "1", "--out", str(out)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    env = record["environment"]
    assert env["cpu_count"] >= 1 and env["blas"] and env["blas_threads"] in (1, None)
    assert set(record["settings"]["grid"]) == {"max_levels", "max_cells"}
    rows = record["results"]
    assert [(r["field"], r["p"], r["kind"]) for r in rows] == [
        (field, p, kind) for field in ("real", "complex") for p in (1, 2) for kind in "LMU"
    ]
    for r in rows:
        assert r["m"] == 4 and 0.0 < r["min_s"] <= r["median_s"]
        assert r["stop"] in ("gap", "level cap", "max_cells") and r["evaluations"] > 0
        assert r["band"][0] <= r["band"][1] and r["contains_exact"]
