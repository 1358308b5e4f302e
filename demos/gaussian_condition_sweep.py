"""Condition numbers of random Gaussian sensing matrices, trial by trial.

Draws a batch of m x d Gaussian matrices, conditions each one, and compares
the empirical distribution of beta against the large-m limit (pi/2, sqrt(3),
or 2, depending on field and exponent).  Small batches already show the two
robust features: no trial ever dips below the universal bound, and the mean
drifts down toward the limit as m grows.

Run:  python3 demos/gaussian_condition_sweep.py [--field real] [--p 2]
          [--m 120] [--d 3] [--trials 12] [--seed 20240817]
"""

import argparse

from prcond.core import Field, RngSpec
from prcond.experiment import (
    ExperimentConfig,
    asymptotic_beta,
    run_gaussian_sweep,
)
from prcond.lipschitz import OptimizerConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--field", choices=("real", "complex"), default="real")
    ap.add_argument("--p", type=int, choices=(1, 2), default=2)
    ap.add_argument("--m", type=int, default=120)
    ap.add_argument("--d", type=int, default=3)
    ap.add_argument("--trials", type=int, default=12)
    ap.add_argument("--seed", type=int, default=20240817)
    args = ap.parse_args()

    field = Field.parse(args.field)
    cfg = ExperimentConfig(
        field=field,
        p=args.p,
        m=args.m,
        d=args.d,
        trials=args.trials,
        rng=RngSpec(args.seed, 0),
        optimizer=OptimizerConfig(starts=10),
    )
    result = run_gaussian_sweep(cfg)

    print(f"{args.trials} Gaussian trials, {field.value} field, "
          f"p={args.p}, m={args.m}, d={args.d}")
    print(f"{'trial':>5} {'L':>12} {'U':>12} {'beta':>10} {'ms':>8}")
    for rec in result.records:
        print(f"{rec.trial:>5} {rec.L:>12.6f} {rec.U:>12.6f} "
              f"{rec.beta:>10.6f} {rec.runtime_ms:>8.1f}")

    s = result.summary
    limit = asymptotic_beta(field, args.p)
    print()
    print(f"mean beta      {s.mean_beta:.6f}")
    print(f"5%-95% range   [{s.q05_beta:.6f}, {s.q95_beta:.6f}]")
    print(f"minimum        {s.min_beta:.6f}")
    print(f"large-m limit  {limit:.6f}  (gap {s.gap_to_asymptote:+.6f})")
    if s.failures:
        print(f"failed trials  {s.failures}")


if __name__ == "__main__":
    main()
