"""Gaussian expectation curves and the 2-to-4 norm tail, by simulation.

Two probabilistic facts drive the large-m behaviour of the condition
number.  First, for a Gaussian vector a and unit vectors u, v at principal
angle theta, E |Re(<a,u>* <a,v>)| follows an explicit curve in theta whose
minimum (2/pi real, 1/2 complex) sits at orthogonal pairs.  Second, the
2-to-4 operator norm of an m x d Gaussian matrix concentrates below
(3m)^(1/4) + sqrt(d) + t with failure probability at most 2 exp(-t^2/2).
This script estimates both by Monte Carlo and prints the comparison.

Run:  python3 demos/expectation_and_tails.py [--samples 200000] [--trials 200]
"""

import argparse
import math

from prcond.closedform import gaussian_abs_expectation
from prcond.core import Field, RngSpec
from prcond.experiment import tail_check_two_to_four
from prcond.lipschitz import OptimizerConfig
from prcond.oracle import mc_expectation

ANGLES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200_000,
                    help="Monte-Carlo samples per angle")
    ap.add_argument("--trials", type=int, default=200,
                    help="matrices drawn for the tail estimate")
    args = ap.parse_args()

    print(f"expectation curves, {args.samples} samples per angle")
    print(f"{'field':>8} {'theta':>8} {'curve':>10} {'estimate':>10} "
          f"{'stderr':>9} {'z':>6}")
    for field, base in ((Field.REAL, 5), (Field.COMPLEX, 20)):
        for k, theta in enumerate(ANGLES):
            curve = gaussian_abs_expectation(field, theta)
            est = mc_expectation(field, theta, args.samples,
                                 RngSpec(20240817, base + k))
            z = (est.estimate - curve) / est.stderr
            print(f"{field.value:>8} {theta:>8.4f} {curve:>10.6f} "
                  f"{est.estimate:>10.6f} {est.stderr:>9.6f} {z:>6.2f}")
    print("curve minima: 2/pi =", 2 / math.pi, "(real), 1/2 (complex)")

    print()
    m, d, t = 200, 4, 3.0
    chk = tail_check_two_to_four(
        m, d, t, args.trials,
        rng=RngSpec(20240817, 900),
        optimizer=OptimizerConfig(starts=6),
    )
    print(f"2-to-4 norm tail at m={m}, d={d}, t={t}: threshold "
          f"{chk.threshold:.4f}")
    print(f"observed exceedance rate {chk.rate:.4f} over {chk.trials} trials "
          f"(guaranteed ceiling {chk.ceiling:.4f})")


if __name__ == "__main__":
    main()
