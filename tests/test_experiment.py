"""Ensemble sweeps, convergence tables, tail checks, and their CSV output."""

import csv
import io
import math

import pytest

from prcond.core import Field, RngSpec
from prcond.experiment import (
    CSV_HEADER,
    ExperimentConfig,
    asymptotic_beta,
    convergence_table,
    records_to_csv,
    run_gaussian_sweep,
    tail_check_two_to_four,
    write_records_csv,
)
from prcond.lipschitz import OptimizerConfig

FAST = OptimizerConfig(starts=6, max_iters=120, subgradient_iters=400)


def small_config(**overrides):
    base = dict(
        field=Field.REAL, p=2, m=12, d=2, trials=4,
        rng=RngSpec(515, 0), optimizer=FAST,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# asymptotes and configuration
# ---------------------------------------------------------------------------

def test_asymptotic_beta_values():
    assert asymptotic_beta(Field.REAL, 1) == pytest.approx(math.pi / 2.0, abs=0)
    assert asymptotic_beta(Field.REAL, 2) == pytest.approx(math.sqrt(3.0), abs=0)
    assert asymptotic_beta(Field.COMPLEX, 1) == 2.0
    assert asymptotic_beta(Field.COMPLEX, 2) == 2.0


def test_config_validates_sizes():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(p=3)


def test_config_warns_below_injectivity_threshold():
    with pytest.warns(UserWarning):
        small_config(m=2, d=2)


def test_config_json_round_trips_through_dumps():
    import json

    cfg = small_config()
    payload = cfg.to_json_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["seed"] == 515 and payload["field"] == "real"


# ---------------------------------------------------------------------------
# gaussian sweeps
# ---------------------------------------------------------------------------

def test_sweep_produces_one_record_per_trial():
    cfg = small_config()
    res = run_gaussian_sweep(cfg)
    assert len(res.records) == cfg.trials
    assert [r.trial for r in res.records] == list(range(cfg.trials))
    for r in res.records:
        assert (r.m, r.d, r.p) == (cfg.m, cfg.d, cfg.p)
        assert r.field is cfg.field
        assert r.seed == cfg.rng.seed
        assert r.U >= r.L > 0.0
        assert r.beta == pytest.approx(r.U / r.L, rel=1e-12)
        assert r.runtime_ms > 0.0


def test_sweep_summary_statistics_are_consistent():
    res = run_gaussian_sweep(small_config(trials=6))
    betas = sorted(r.beta for r in res.records)
    s = res.summary
    assert s.mean_beta == pytest.approx(sum(betas) / len(betas), rel=1e-12)
    assert betas[0] <= s.q05_beta <= s.q95_beta <= betas[-1]
    assert s.min_beta == betas[0]
    assert s.failures == 0
    assert s.asymptote == asymptotic_beta(Field.REAL, 2)
    assert s.gap_to_asymptote == pytest.approx(s.mean_beta - s.asymptote, rel=1e-12)


def test_sweep_is_reproducible_except_for_wall_clock():
    a = run_gaussian_sweep(small_config())
    b = run_gaussian_sweep(small_config())
    for ra, rb in zip(a.records, b.records):
        assert (ra.L, ra.U, ra.beta) == (rb.L, rb.U, rb.beta)
    assert a.summary.mean_beta == b.summary.mean_beta


def test_sweep_trials_use_disjoint_substreams():
    res = run_gaussian_sweep(small_config(trials=5))
    betas = {round(r.beta, 12) for r in res.records}
    assert len(betas) == 5  # distinct draws, distinct conditioning


def test_sweep_beta_respects_universal_floor():
    res = run_gaussian_sweep(small_config(trials=5, m=10))
    floor = asymptotic_beta(Field.REAL, 2)
    for r in res.records:
        assert r.beta >= floor - 1e-4


def test_sweep_json_summary_shape():
    res = run_gaussian_sweep(small_config(trials=2))
    payload = res.to_json_dict()
    assert payload["kind"] == "gaussian-sweep"
    assert payload["generator"] == "philox4x64"
    assert "records" not in payload
    assert set(payload["summary"]) == {
        "mean_beta", "q05_beta", "q95_beta", "asymptote",
        "gap_to_asymptote", "min_beta", "failures",
    }
    with_rows = res.to_json_dict(include_records=True)
    assert len(with_rows["records"]) == 2


def test_sweep_json_code_version_is_the_package_version(monkeypatch):
    import subprocess

    import prcond

    def no_processes(*args, **kwargs):
        raise AssertionError("experiment JSON must not start a process")

    monkeypatch.setattr(subprocess, "run", no_processes)
    res = run_gaussian_sweep(small_config(trials=1))
    assert res.to_json_dict()["code_version"] == prcond.__version__


# ---------------------------------------------------------------------------
# convergence table
# ---------------------------------------------------------------------------

def test_convergence_table_shape_and_downward_drift():
    rows = convergence_table(
        Field.REAL, 2, 2, [6, 24, 96], trials=4,
        rng=RngSpec(626, 0), optimizer=FAST,
    )
    assert [r.m for r in rows] == [6, 24, 96]
    assert all(r.trials == 4 for r in rows)
    assert rows[0].mean_beta > rows[-1].mean_beta
    for r in rows:
        assert r.q95_beta >= r.mean_beta * 0.8


def test_convergence_table_rows_are_stable_under_extension():
    short = convergence_table(
        Field.REAL, 2, 2, [6, 24], trials=3, rng=RngSpec(626, 1), optimizer=FAST
    )
    longer = convergence_table(
        Field.REAL, 2, 2, [6, 24, 48], trials=3, rng=RngSpec(626, 1), optimizer=FAST
    )
    assert short[0].mean_beta == longer[0].mean_beta
    assert short[1].mean_beta == longer[1].mean_beta


# ---------------------------------------------------------------------------
# tail exceedance of the 2->4 norm
# ---------------------------------------------------------------------------

def test_tail_check_fields_and_ceiling():
    check = tail_check_two_to_four(
        20, 2, 2.0, trials=40, rng=RngSpec(737, 0), optimizer=FAST
    )
    assert check.trials == 40
    assert 0 <= check.exceedances <= 40
    assert check.rate == pytest.approx(check.exceedances / 40.0, abs=0)
    assert check.ceiling == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert check.threshold == pytest.approx((3.0 * 20) ** 0.25 + math.sqrt(2.0) + 2.0, rel=1e-12)
    assert check.stderr == pytest.approx(
        math.sqrt(check.ceiling * (1.0 - check.ceiling) / 40.0), rel=1e-9
    )


def test_tail_check_clamps_vacuous_ceilings():
    # at small t the probability ceiling exceeds one and carries no
    # information; the binomial error is clamped instead of going imaginary
    check = tail_check_two_to_four(
        20, 2, 0.0, trials=20, rng=RngSpec(737, 2), optimizer=FAST
    )
    assert check.ceiling == 2.0
    assert check.stderr == pytest.approx(math.sqrt(1e-12 / 20.0), rel=1e-9)


def test_tail_check_rejects_negative_t():
    # the threshold is closedform.two_to_four_norm_bound, whose tail bound
    # needs t >= 0
    with pytest.raises(ValueError):
        tail_check_two_to_four(20, 2, -1.0, trials=1, rng=RngSpec(737, 3), optimizer=FAST)


def test_tail_rate_is_small_at_large_t():
    check = tail_check_two_to_four(
        30, 2, 3.0, trials=30, rng=RngSpec(737, 1), optimizer=FAST
    )
    assert check.rate <= check.ceiling + 3.0 * check.stderr


# ---------------------------------------------------------------------------
# CSV records
# ---------------------------------------------------------------------------

def test_records_csv_header_and_cells():
    res = run_gaussian_sweep(small_config(trials=3))
    text = records_to_csv(res.records)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 4
    first = rows[1]
    assert first[0] == "0" and first[4] == "real" and first[5] == "2"
    # L, U, beta round-trip exactly through repr
    assert float(first[6]) == res.records[0].L
    assert float(first[8]) == res.records[0].beta


def test_records_csv_is_reproducible_except_runtime():
    a = records_to_csv(run_gaussian_sweep(small_config(trials=2)).records)
    b = records_to_csv(run_gaussian_sweep(small_config(trials=2)).records)

    def strip_runtime(text):
        return [row.rsplit(",", 1)[0] for row in text.strip().splitlines()]

    assert strip_runtime(a) == strip_runtime(b)


def test_write_records_csv(tmp_path):
    res = run_gaussian_sweep(small_config(trials=2))
    path = tmp_path / "records.csv"
    write_records_csv(path, res.records)
    text = path.read_text()
    assert text.startswith(",".join(CSV_HEADER))
    assert text.endswith("\n")
