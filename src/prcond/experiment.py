"""Random-ensemble studies of the condition number and the 2-to-4 norm.

Each study draws Gaussian sensing matrices, runs the Lipschitz searches on
every draw, and aggregates the resulting condition numbers against the
large-m limits: pi/2 (real, p=1), sqrt(3) (real, p=2), and 2 over the
complex field.  Trials get disjoint generator substreams derived from one
base `RngSpec`, so a sweep is reproducible record for record (wall-clock
columns aside) and any single trial can be replayed in isolation.
"""

from __future__ import annotations

import csv
import io
import math
import time
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._version import __version__
from .closedform import _check_p, two_to_four_norm_bound, universal_lower_bound
from .core import GENERATOR_NAME, Field, RngSpec, sample_gaussian
from .lipschitz import (
    ConditionReport,
    OptimizerConfig,
    _injectivity_threshold,
    condition_number,
    upper_lipschitz,
)

__all__ = [
    "CSV_HEADER",
    "ExperimentConfig",
    "ExperimentRecord",
    "SweepSummary",
    "SweepResult",
    "ConvergenceRow",
    "TailCheck",
    "asymptotic_beta",
    "run_gaussian_sweep",
    "convergence_table",
    "tail_check_two_to_four",
    "records_to_csv",
    "write_records_csv",
]

CSV_HEADER = ("trial", "seed", "m", "d", "field", "p", "L", "U", "beta", "runtime_ms")


def asymptotic_beta(field: Field, p: int) -> float:
    """Large-m limit of the condition number for Gaussian ensembles.

    It is the m-free universal lower bound on beta: pi/2 (real, p=1),
    sqrt(3) (real, p=2) and 2 over the complex field.
    """
    return universal_lower_bound(field, p).value


@dataclass(frozen=True)
class ExperimentConfig:
    """One Gaussian ensemble: dimensions, norm exponent, and trial budget."""

    field: Field
    p: int
    m: int
    d: int
    trials: int
    rng: RngSpec = RngSpec(20240817, 0)
    optimizer: OptimizerConfig = dc_field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.m < 1 or self.d < 1 or self.trials < 1:
            raise ValueError("m, d, and trials must be positive")
        _check_p(self.p)
        floor = _injectivity_threshold(self.field, self.d)
        if self.m < floor:
            warnings.warn(
                f"m={self.m} is below the injectivity threshold {floor} for "
                f"{self.field.name.lower()} d={self.d}; expect infinite "
                "condition numbers",
                stacklevel=3,
            )

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.name.lower(),
            "p": self.p,
            "m": self.m,
            "d": self.d,
            "trials": self.trials,
            "seed": self.rng.seed,
            "stream": self.rng.stream,
            "optimizer": {"starts": self.optimizer.starts},
        }


@dataclass(frozen=True)
class ExperimentRecord:
    """One trial's outcome, one row of the sweep CSV."""

    trial: int
    seed: int
    m: int
    d: int
    field: Field
    p: int
    L: float
    U: float
    beta: float
    runtime_ms: float

    def row(self) -> tuple:
        return (
            self.trial, self.seed, self.m, self.d, self.field.name.lower(),
            self.p, repr(self.L), repr(self.U), repr(self.beta),
            f"{self.runtime_ms:.3f}",
        )


@dataclass(frozen=True)
class SweepSummary:
    mean_beta: float
    q05_beta: float
    q95_beta: float
    asymptote: float
    gap_to_asymptote: float
    min_beta: float
    failures: int


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    records: tuple[ExperimentRecord, ...]
    summary: SweepSummary

    def to_json_dict(self) -> dict:
        return {
            "kind": "gaussian-sweep",
            "generator": GENERATOR_NAME,
            "code_version": __version__,
            "config": self.config.to_json_dict(),
            "summary": {
                "mean_beta": self.summary.mean_beta,
                "q05_beta": self.summary.q05_beta,
                "q95_beta": self.summary.q95_beta,
                "asymptote": self.summary.asymptote,
                "gap_to_asymptote": self.summary.gap_to_asymptote,
                "min_beta": self.summary.min_beta,
                "failures": self.summary.failures,
            },
        }


def _run_trial(cfg: ExperimentConfig, trial: int) -> ExperimentRecord:
    tick = time.perf_counter()
    stream = cfg.rng.substream(trial)
    A = sample_gaussian(cfg.field, cfg.m, cfg.d, stream)
    try:
        report: ConditionReport = condition_number(A, cfg.p, cfg.optimizer)
        L, U, beta = report.L, report.U, report.beta
    except (ValueError, ArithmeticError):
        L = U = beta = math.nan
    ms = (time.perf_counter() - tick) * 1000.0
    return ExperimentRecord(
        trial, cfg.rng.seed, cfg.m, cfg.d, cfg.field, cfg.p, L, U, beta, ms
    )


def run_gaussian_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Draw `cfg.trials` Gaussian matrices and condition every one of them.

    A trial that fails numerically is recorded with NaN columns and counted
    in `summary.failures` instead of aborting the sweep; non-finite
    condition numbers (failed injectivity) are likewise excluded from the
    aggregates.
    """
    records = tuple(_run_trial(cfg, t) for t in range(cfg.trials))
    betas = np.array([r.beta for r in records], dtype=np.float64)
    finite = betas[np.isfinite(betas)]
    failures = int(betas.size - finite.size)
    asym = asymptotic_beta(cfg.field, cfg.p)
    if finite.size:
        mean = float(finite.mean())
        q05 = float(np.quantile(finite, 0.05))
        q95 = float(np.quantile(finite, 0.95))
        low = float(finite.min())
    else:
        mean = q05 = q95 = low = math.nan
    summary = SweepSummary(mean, q05, q95, asym, mean - asym, low, failures)
    return SweepResult(cfg, records, summary)


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    trials: int
    mean_beta: float
    q95_beta: float


def convergence_table(
    field: Field,
    p: int,
    d: int,
    m_list,
    trials: int,
    rng: RngSpec | None = None,
    optimizer: OptimizerConfig | None = None,
) -> tuple[ConvergenceRow, ...]:
    """Mean and upper-quantile condition numbers along a schedule of m.

    Each m gets its own block of generator substreams, so extending
    `m_list` leaves earlier rows untouched.  As m grows the rows should
    drift down toward the ensemble's asymptote.
    """
    rng = rng or RngSpec(20240817, 0)
    optimizer = optimizer or OptimizerConfig()
    rows = []
    for i, m in enumerate(m_list):
        cfg = ExperimentConfig(
            field, p, int(m), d, trials,
            rng=rng.substream(i * (trials + 1)), optimizer=optimizer,
        )
        res = run_gaussian_sweep(cfg)
        rows.append(
            ConvergenceRow(int(m), trials, res.summary.mean_beta, res.summary.q95_beta)
        )
    return tuple(rows)


@dataclass(frozen=True)
class TailCheck:
    trials: int
    exceedances: int
    rate: float
    ceiling: float
    stderr: float
    threshold: float


def tail_check_two_to_four(
    m: int,
    d: int,
    t: float,
    trials: int,
    rng: RngSpec | None = None,
    optimizer: OptimizerConfig | None = None,
) -> TailCheck:
    """Exceedance rate of the 2-to-4 operator norm over its Gaussian tail.

    For each draw the norm sup_{|u|=1} (sum_j |<a_j,u>|^4)^(1/4) is computed
    by the power iteration of `upper_lipschitz` at p=2, from 16 starts unless
    `optimizer` says otherwise, and the fraction of draws above
    `two_to_four_norm_bound(m, d, t)` = (3m)^(1/4) + sqrt(d) + t, which
    rejects t < 0, is compared to the tail ceiling 2 exp(-t^2/2).  The
    reported stderr is the binomial error of that ceiling at this trial
    count.
    """
    rng = rng or RngSpec(20240817, 0)
    optimizer = optimizer or OptimizerConfig(starts=16)
    threshold = two_to_four_norm_bound(m, d, t)
    hits = 0
    for trial in range(int(trials)):
        A = sample_gaussian(Field.REAL, m, d, rng.substream(trial))
        norm24 = math.sqrt(upper_lipschitz(A, 2, optimizer).value)
        if norm24 > threshold:
            hits += 1
    ceiling = 2.0 * math.exp(-t * t / 2.0)
    stderr = math.sqrt(max(ceiling * (1.0 - ceiling), 1e-12) / trials)
    return TailCheck(int(trials), hits, hits / trials, ceiling, stderr, threshold)


def records_to_csv(records) -> str:
    """The sweep rows as CSV text with the canonical header."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow(r.row())
    return buf.getvalue()


def write_records_csv(path: str, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))
