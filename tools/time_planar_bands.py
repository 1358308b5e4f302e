#!/usr/bin/env python3
"""Per-band times, work and widths of the certified planar oracle.

Runs every band kind of the oracle at its search budget: L, M and U,
at p=1 and p=2, over both fields, each on the draw
`sample_gaussian(field, m, 2, RngSpec(7, m))`.  Each band is computed
--repeats times.  For each kind it reports the median and the least
seconds per call, and the band's `BandRecord` (evaluations, levels, the
largest frontier, which sets the peak memory, and the stop reason).  It
also gives the band's edges and its width relative to the upper edge.
Every band is checked against the closed-form d=2 constant, and the
script exits with code 1 if one misses it.

The machine record comes from the benchmark's `environment`
(`bench/run.py`), whose import pins BLAS to one thread before numpy
loads.  The results go to --out (default BENCH_planar_bands.json,
git-ignored) with the CPU count, the BLAS library and its thread count.
Run it from the repo root:

    python tools/time_planar_bands.py
    python tools/time_planar_bands.py --m 4 --repeats 3
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# the benchmark's record of the machine; importing it pins BLAS to one
# thread, so it comes before numpy
from run import environment  # noqa: E402

from prcond import lipschitz, oracle  # noqa: E402
from prcond.core import Constraint, Field, RngSpec, sample_gaussian  # noqa: E402

# each kind: the oracle call and the closed form it must contain
KINDS = {
    "L": (lambda A, p: oracle.grid_lower_l(A, p, Constraint.REAL_INNER), lipschitz.lower_lipschitz),
    "M": (lambda A, p: oracle.grid_lower_l(A, p, Constraint.ORTHOGONAL),
          lipschitz.orthogonal_lower_bound),
    "U": (oracle.grid_upper_u, lipschitz.upper_lipschitz),
}


def band_row(field: Field, m: int, p: int, kind: str, repeats: int) -> dict:
    A = sample_gaussian(field, m, 2, RngSpec(7, m))
    band, exact = KINDS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        est = band(A, p)
        times.append(time.perf_counter() - t0)
    lo, hi = est.certified_band
    value = exact(A, p).value
    tol = 1e-12 * abs(value)
    rec = est.convergence
    return {"field": field.value, "m": m, "p": p, "kind": kind,
            "median_s": statistics.median(times), "min_s": min(times),
            "evaluations": rec.evaluations, "levels": rec.levels,
            "largest_frontier": rec.largest_frontier, "stop": rec.stop,
            "band": [lo, hi], "rel_width": (hi - lo) / hi if hi > 0 else 0.0,
            "contains_exact": lo - tol <= value <= hi + tol}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=9, help="rows of each planar draw")
    ap.add_argument("--repeats", type=int, default=5, help="calls per band kind")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_planar_bands.json")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be positive")
    if args.m < 1:
        ap.error("--m must be positive")

    rows = [band_row(field, args.m, p, kind, args.repeats)
            for field in Field for p in (1, 2) for kind in KINDS]
    for r in rows:
        print(f"{r['field']:8s} p={r['p']} {r['kind']}  {1e3 * r['median_s']:8.1f} ms"
              f"  {r['evaluations']:8d} evals  {r['largest_frontier']:7d} wide"
              f"  {r['stop']:10s}  width {r['rel_width']:.1e}")
    record = {
        "tool": "time_planar_bands",
        "environment": environment(),
        "settings": {"m": args.m, "repeats": args.repeats,
                     "grid": {"max_cells": oracle._MAX_CELLS}},
        "results": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    missed = [r for r in rows if not r["contains_exact"]]
    if missed:
        print(f"{len(missed)} bands miss the closed-form constant", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
