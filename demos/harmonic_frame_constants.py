"""Closed-form stability constants of harmonic frames, checked numerically.

The m equiangular unit vectors on the upper semicircle give the best-known
planar sensing matrices.  Their optimal Lipschitz constants have exact
expressions at p = 1 and p = 2, so they make a sharp end-to-end check of the
solver, which is exact at d = 2: every printed residual should sit at
rounding level, far below the constants themselves.

Run:  python3 demos/harmonic_frame_constants.py [--m-max 12]
"""

import argparse
import math

from prcond.closedform import harmonic_constants
from prcond.core import harmonic_frame
from prcond.lipschitz import condition_number, orthogonal_lower_bound


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-max", type=int, default=12, help="largest frame size")
    args = ap.parse_args()

    print("harmonic frames: solver vs closed forms")
    print(f"{'m':>3} {'p':>2} {'L':>12} {'U':>12} {'beta':>12} "
          f"{'dL':>9} {'dU':>9} {'dbeta':>9} {'dM':>9}")
    for m in range(3, args.m_max + 1):
        frame = harmonic_frame(m)
        for p in (1, 2):
            exact = harmonic_constants(m, p)
            rep = condition_number(frame, p)
            orth = orthogonal_lower_bound(frame, p)
            print(
                f"{m:>3} {p:>2} {rep.L:>12.8f} {rep.U:>12.8f} {rep.beta:>12.8f} "
                f"{abs(rep.L - exact.L):>9.1e} {abs(rep.U - exact.U):>9.1e} "
                f"{abs(rep.beta - exact.beta):>9.1e} "
                f"{abs(orth.value - exact.L_orth):>9.1e}"
            )
    print()
    print("p = 2 condition number is sqrt(3) =", math.sqrt(3.0), "for every m;")
    print("p = 1 grows like m tan(pi/2m)/cos(pi/2m) (odd) or (m/2) tan(pi/m) (even).")


if __name__ == "__main__":
    main()
