#!/usr/bin/env python3
"""Per-call times of the layers of the pair search for L and M at d = 4.

For each field and each m it draws one Gaussian matrix and times

  * `_second_order` at p=2 and at p=1 (the smoothed objective at the
    median |c_j| of each row), on 3 x --starts random feasible pairs, the
    size of one group of Newton runs;
  * `_newton_step` on the terms of the p=2 call;
  * `_decrease` from those pairs, with their images from the p=2 call
    and their terms c_j, to the retracted Newton points;
  * one whole `lower_lipschitz` search at p=1 and at p=2 with --starts
    starts.

Each kernel runs --repeats times and each whole search once; the median
and the least time per call are reported.  The matrices and starts come
from seed 1.  The machine record comes from the benchmark's `environment`
(`bench/run.py`), whose import pins BLAS to one thread before numpy
loads.  The results go to --out (default BENCH_pair_kernels.json,
git-ignored) with the CPU count, the BLAS library and its thread count.
Run it from the repo root:

    python tools/time_pair_kernels.py
    python tools/time_pair_kernels.py --m 300 --repeats 20
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

import numpy as np  # noqa: E402

from prcond import lipschitz  # noqa: E402
from prcond.core import Field, RngSpec, sample_gaussian  # noqa: E402
from prcond.lipschitz import OptimizerConfig, lower_lipschitz  # noqa: E402

D = 4
SEED = 1


def per_call(fn, repeats: int) -> dict:
    """Median and least seconds of `repeats` calls of fn()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"calls": repeats, "median_s": statistics.median(times), "min_s": min(times)}


def time_matrix(field: Field, m: int, starts: int, repeats: int) -> list:
    A = sample_gaussian(field, m, D, RngSpec(SEED, 10000 * (field is Field.COMPLEX) + 1000 * D + m))
    blocks = lipschitz._real_blocks(A)
    products = lipschitz._khatri_rao(blocks)
    X = lipschitz._pair_starts(A, False, OptimizerConfig(starts=3 * starts, rng=RngSpec(SEED, 1)))
    c = lipschitz._pair_terms(blocks, X)
    width = np.median(np.abs(c), axis=1)
    _f, g_t, h_t, basis, lam, Y = lipschitz._second_order(blocks, products, X, field, False)
    _least, step = lipschitz._newton_step(g_t, h_t, basis)
    Xn = lipschitz._retract_packed(X + step, field, False)
    cfg = OptimizerConfig(starts=starts, rng=RngSpec(SEED, 2))
    layers = [
        ("_second_order", 2, repeats, lambda: lipschitz._second_order(blocks, products, X, field, False)),
        ("_second_order", 1, repeats, lambda: lipschitz._second_order(blocks, products, X, field, False, width)),
        ("_newton_step", 2, repeats, lambda: lipschitz._newton_step(g_t, h_t, basis)),
        ("_decrease", 2, repeats, lambda: lipschitz._decrease(blocks, Y, c, X, Xn, lam, field, False)),
        ("lower_lipschitz", 1, 1, lambda: lower_lipschitz(A, 1, cfg)),
        ("lower_lipschitz", 2, 1, lambda: lower_lipschitz(A, 2, cfg)),
    ]
    rows = []
    for name, p, count, fn in layers:
        row = {"field": field.value, "d": D, "m": m, "runs": X.shape[0], "layer": name, "p": p}
        row.update(per_call(fn, count))
        rows.append(row)
        print(f"{field.value:8s} m={m:<5d} {name:16s} p={p}  {1e3 * row['median_s']:10.3f} ms", flush=True)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=[300, 2000, 4000], help="row counts to time")
    ap.add_argument("--starts", type=int, default=12, help="starts of the whole searches")
    ap.add_argument("--repeats", type=int, default=50, help="calls per kernel")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_pair_kernels.json")
    args = ap.parse_args(argv)
    if min(args.m) < 1 or args.starts < 1 or args.repeats < 1:
        ap.error("--m, --starts and --repeats must be positive")

    rows = []
    for field in (Field.REAL, Field.COMPLEX):
        for m in args.m:
            rows += time_matrix(field, m, args.starts, args.repeats)
    record = {
        "tool": "time_pair_kernels",
        "environment": environment(),
        "settings": {"d": D, "m": args.m, "starts": args.starts, "repeats": args.repeats},
        "results": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
