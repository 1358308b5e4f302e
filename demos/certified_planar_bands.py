"""Certified bands at d = 2: the grid oracle brackets the exact solver.

For planar matrices the trigonometric reformulation of both extremal
problems lets a refined grid search certify an interval that provably
contains each true constant.  This script draws one random complex 2-column
matrix, runs the solver (exact at d = 2: vertex enumeration for L and M at
p = 1, eigen-solves for the rest) and the certified oracle side by side,
and prints where each solver value lands inside its band, how the band's
branch and bound ended (its stop reason and the cells it evaluated), and the
orthogonality gap that opens between the restricted and unrestricted lower
constants.

Run:  python3 demos/certified_planar_bands.py [--m 7] [--seed 11]
"""

import argparse

from prcond.core import Constraint, Field, RngSpec, sample_gaussian
from prcond.lipschitz import lower_lipschitz, orthogonal_lower_bound, upper_lipschitz
from prcond.oracle import GridSpec, grid_lower_l, grid_upper_u


def show(name: str, value: float, band) -> None:
    lo, hi = band.certified_band
    rec = band.convergence
    inside = "inside" if lo - 1e-9 <= value <= hi + 1e-9 else "OUTSIDE"
    print(f"  {name:<22} {value:.10f}   band [{lo:.10f}, {hi:.10f}]  {inside}"
          f"  ({rec.stop}, {rec.evaluations} cells)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=7, help="number of rows")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    A = sample_gaussian(Field.COMPLEX, args.m, 2, RngSpec(args.seed, 0))
    grid = GridSpec()

    print(f"random complex {args.m} x 2 matrix, seed {args.seed}")
    for p in (1, 2):
        print(f"p = {p}:")
        low = lower_lipschitz(A, p)
        glow = grid_lower_l(A, p, grid=grid)
        show("lower L (solver)", low.value, glow)

        orth = orthogonal_lower_bound(A, p)
        gorth = grid_lower_l(A, p, constraint=Constraint.ORTHOGONAL, grid=grid)
        show("orthogonal M (solver)", orth.value, gorth)

        up = upper_lipschitz(A, p)
        gup = grid_upper_u(A, p, grid=grid)
        show("upper U (solver)", up.value, gup)

        gap = orth.value - low.value
        print(f"  orthogonality gap      {gap:+.10f}"
              f"  ({'restricted minimum is larger' if gap > 1e-6 else 'negligible'})")


if __name__ == "__main__":
    main()
