"""End-to-end acceptance checks with pinned tolerances and runtime budgets.

Each test here guards one advertised guarantee of the toolkit at full scale,
prints a single summary line for its criterion (visible with pytest -s),
and fails when either a numerical tolerance or the runtime budget is
violated.  Every random draw is pinned to an explicit seed and stream, so
repeated runs examine exactly the same matrices.
"""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from prcond.cli import main
from prcond.closedform import (
    gaussian_abs_expectation,
    harmonic_constants,
    universal_lower_bound,
)
from prcond.core import (
    Field,
    RngSpec,
    dist_h,
    harmonic_frame,
    sample_gaussian,
    sample_unit,
)
from prcond.experiment import (
    ExperimentConfig,
    asymptotic_beta,
    convergence_table,
    run_gaussian_sweep,
    tail_check_two_to_four,
)
from prcond.lipschitz import (
    OptimizerConfig,
    condition_number,
    lower_lipschitz,
    orthogonal_lower_bound,
    upper_lipschitz,
)
from prcond.oracle import grid_lower_l, grid_upper_u, mc_expectation

SWEEP_OPT = OptimizerConfig(starts=12, max_iters=300, subgradient_iters=1500)

# each criterion appends its time against its budget here (git-ignored), so
# that the margins can be compared from one change to the next
TIMES_LOG = Path(__file__).resolve().parent.parent / "acceptance-times.jsonl"


def _finish(num: int, name: str, failures: list, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    entry = {"criterion": num, "elapsed_s": round(elapsed, 3), "budget_s": budget}
    with open(TIMES_LOG, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    over = elapsed >= budget
    status = "FAIL" if (failures or over) else "pass"
    print(
        f"criterion {num} ({name}): {status}  "
        f"[{elapsed:.1f}s of {budget:.0f}s allowed]"
    )
    assert not failures, f"criterion {num}: {failures[:5]}"
    assert not over, f"criterion {num} ran {elapsed:.1f}s, budget {budget:.0f}s"


def _run_cli(argv: list) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def _spearman(xs, ys) -> float:
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def test_criterion_1_harmonic_l2_constants_via_cli():
    t0 = time.perf_counter()
    failures = []
    for m in range(3, 13):
        code, out = _run_cli(["beta", "--m", str(m), "--p", "2", "--starts", "8"])
        if code != 0:
            failures.append((m, "exit", code))
            continue
        report = json.loads(out)
        for key, target in (
            ("L", math.sqrt(m / 8.0)),
            ("U", math.sqrt(3.0 * m / 8.0)),
            ("beta", math.sqrt(3.0)),
        ):
            if abs(report[key] - target) > 1e-6:
                failures.append((m, key, report[key], target))
    _finish(1, "harmonic l2 constants via cli", failures, t0, 5.0)


def test_criterion_2_harmonic_l1_constants():
    t0 = time.perf_counter()
    failures = []
    for m in range(3, 13):
        frame = harmonic_frame(m)
        exact = harmonic_constants(m, 1)
        report = condition_number(frame, 1, SWEEP_OPT)
        orth = orthogonal_lower_bound(frame, 1, SWEEP_OPT)
        for label, got, want in (
            ("beta", report.beta, exact.beta),
            ("L", report.L, exact.L),
            ("L_orth", orth.value, exact.L_orth),
        ):
            if abs(got - want) > 1e-5:
                failures.append((m, label, got, want))
    _finish(2, "harmonic l1 constants", failures, t0, 30.0)


def test_criterion_3_universal_lower_bounds():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(starts=8, max_iters=200, subgradient_iters=600)
    failures = []
    worst = math.inf
    infinite = 0
    for field, stream in ((Field.REAL, 500), (Field.COMPLEX, 501)):
        rng = RngSpec(20240817, stream).generator()
        for trial in range(200):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(2 * d - 1, 10 * d + 1))
            matrix = sample_gaussian(field, m, d, rng)
            for p in (1, 2):
                report = condition_number(matrix, p, cfg)
                if not math.isfinite(report.beta):
                    infinite += 1
                    continue
                bound = universal_lower_bound(field, p, m).value
                margin = report.beta - bound
                worst = min(worst, margin)
                if margin < -1e-4:
                    failures.append((field.value, p, m, d, trial, report.beta, bound))
    print(f"  (400 matrices, min margin {worst:+.4f}, {infinite} non-injective)")
    _finish(3, "universal lower bounds", failures, t0, 300.0)


def test_criterion_4_gaussian_concentration():
    t0 = time.perf_counter()
    failures = []
    sweeps = (
        (Field.REAL, 1, 2000, 50, 0),
        (Field.REAL, 2, 4000, 50, 100),
        (Field.COMPLEX, 1, 4000, 30, 200),
    )
    for field, p, m, trials, stream in sweeps:
        cfg = ExperimentConfig(
            field=field,
            p=p,
            m=m,
            d=4,
            trials=trials,
            rng=RngSpec(20240817, stream),
            optimizer=SWEEP_OPT,
        )
        summary = run_gaussian_sweep(cfg).summary
        limit = asymptotic_beta(field, p)
        tag = (field.value, p, m)
        if summary.failures:
            failures.append((*tag, "failures", summary.failures))
        if not (limit <= summary.mean_beta <= limit + 0.25):
            failures.append((*tag, "mean", summary.mean_beta, limit))
        if summary.min_beta < limit - 1e-4:
            failures.append((*tag, "min", summary.min_beta, limit))
    rows = convergence_table(
        Field.REAL,
        2,
        4,
        (50, 200, 800, 3200),
        trials=50,
        rng=RngSpec(20240817, 300),
        optimizer=SWEEP_OPT,
    )
    means = [row.mean_beta for row in rows]
    if not all(a > b for a, b in zip(means, means[1:])):
        failures.append(("table not strictly decreasing", means))
    rho = _spearman([row.m for row in rows], means)
    if rho >= 0.0:
        failures.append(("spearman", rho))
    print(f"  (table means {[round(x, 4) for x in means]}, spearman {rho:+.2f})")
    _finish(4, "gaussian concentration", failures, t0, 900.0)


def test_criterion_5_identity_suites():
    t0 = time.perf_counter()
    code, out = _run_cli(["verify", "--format", "json"])
    payload = json.loads(out)
    residuals = {s["name"]: s for s in payload["suites"]}
    failures = []
    if code != 0 or not payload["passed"]:
        failures.append(("verify exit/status", code, payload["passed"]))
    for name, ceiling in (
        ("lagrange-sums", 1e-10),
        ("gk-closed-form", 1e-10),
        ("g-min-at-one", 1e-8),
    ):
        if residuals[name]["max_residual"] > ceiling:
            failures.append((name, residuals[name]["max_residual"], ceiling))
    if not residuals["sub-tan"]["passed"]:
        failures.append(("sub-tan", residuals["sub-tan"]["detail"]))
    _finish(5, "identity suites", failures, t0, 120.0)


def test_criterion_6_expectation_curves():
    t0 = time.perf_counter()
    failures = []
    angles = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
    for field, base in ((Field.REAL, 5), (Field.COMPLEX, 20)):
        for k, theta in enumerate(angles):
            curve = gaussian_abs_expectation(field, theta)
            est = mc_expectation(
                field, theta, 1_000_000, RngSpec(20240817, base + k)
            )
            if abs(est.estimate - curve) > 3.0 * est.stderr:
                failures.append((field.value, theta, est.estimate, curve, est.stderr))
    if abs(gaussian_abs_expectation(Field.REAL, math.pi / 2) - 2.0 / math.pi) > 1e-15:
        failures.append(("real minimum", 2.0 / math.pi))
    if abs(gaussian_abs_expectation(Field.COMPLEX, math.pi / 2) - 0.5) > 1e-15:
        failures.append(("complex minimum", 0.5))
    _finish(6, "expectation curves", failures, t0, 60.0)


def test_criterion_7_certified_band_containment():
    t0 = time.perf_counter()
    cfg = OptimizerConfig(starts=16, max_iters=300, subgradient_iters=2000)
    # U at d=2 is exact at both p (closed form), so no ascent runs and these
    # settings do not change the upper estimates
    cfg_up = OptimizerConfig(starts=8, max_iters=5000)
    failures = []
    for field, base in ((Field.REAL, 700), (Field.COMPLEX, 720)):
        for p in (1, 2):
            rng = RngSpec(20240817, base + p).generator()
            for trial in range(50):
                m = int(rng.integers(3, 11))
                matrix = sample_gaussian(field, m, 2, rng)
                low = lower_lipschitz(matrix, p, cfg)
                lo_band = grid_lower_l(matrix, p).certified_band
                if not (
                    lo_band[0] - 1e-9
                    <= low.value
                    <= lo_band[1] + 1e-6 * (1.0 + abs(lo_band[1]))
                ):
                    failures.append((field.value, p, trial, "L", low.value, lo_band))
                up = upper_lipschitz(matrix, p, cfg_up)
                up_band = grid_upper_u(matrix, p).certified_band
                if not (
                    up_band[0] - 1e-6 * (1.0 + abs(up_band[0]))
                    <= up.value
                    <= up_band[1] + 1e-9
                ):
                    failures.append((field.value, p, trial, "U", up.value, up_band))
    _finish(7, "certified band containment", failures, t0, 300.0)


def test_criterion_8_metric_identity():
    t0 = time.perf_counter()
    rng = RngSpec(20240817, 800).generator()
    failures = []
    for d in range(2, 7):
        for field in (Field.REAL, Field.COMPLEX):
            for trial in range(1000):
                x = sample_unit(field, d, rng)
                y = sample_unit(field, d, rng)
                got = dist_h(x, y)
                outer = np.outer(x, x.conj()) - np.outer(y, y.conj())
                nuclear = float(np.abs(np.linalg.eigvalsh(outer)).sum())
                if abs(got - nuclear) > 1e-10 * max(1.0, got):
                    failures.append((field.value, d, trial, got, nuclear))
    _finish(8, "metric identity", failures, t0, 10.0)


def test_criterion_9_two_to_four_tail():
    t0 = time.perf_counter()
    check = tail_check_two_to_four(
        200,
        4,
        3.0,
        1000,
        rng=RngSpec(20240817, 900),
        optimizer=OptimizerConfig(starts=6, max_iters=150),
    )
    failures = []
    if check.rate > 0.0222 + 3.0 * check.stderr:
        failures.append(("rate", check.rate, check.stderr))
    if abs(check.ceiling - 2.0 * math.exp(-4.5)) > 1e-12:
        failures.append(("ceiling", check.ceiling))
    print(f"  (exceedance rate {check.rate:.4f} over {check.trials} trials)")
    _finish(9, "two-to-four tail", failures, t0, 60.0)
