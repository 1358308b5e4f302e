"""The timing harness under tools/ runs to completion at a tiny size."""

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
