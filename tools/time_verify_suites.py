#!/usr/bin/env python3
"""Per-suite times and peak memory of the identity suites of `prcond verify`.

Runs `oracle.verify_all` at its default budgets and seed --repeats times,
with each of its six suites (the benchmark tracer's `SUITES`) wrapped in a
timer, so the suites run in the CLI's order on the CLI's draws.  For each
suite it reports the median and the least seconds per call, and the
process's peak resident set size
(`getrusage` ru_maxrss) right after the suite's first call.  The peak only
grows, so the suite that sets the peak of a cold `verify` is the first
whose figure jumps.  The whole `verify_all` call is reported the same way.

The machine record comes from the benchmark's `environment`
(`bench/run.py`), whose import pins BLAS to one thread before numpy
loads; it is taken after the timed calls, so its own imports do not count
in the peaks.  The results go to --out (default BENCH_verify_suites.json,
git-ignored) with the CPU count, the BLAS library and its thread count.
Run it from the repo root:

    python tools/time_verify_suites.py
    python tools/time_verify_suites.py --repeats 3
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

# the benchmark's record of the machine; importing it pins BLAS to one
# thread, so it comes before numpy
from run import environment  # noqa: E402
from tracing import SUITES  # noqa: E402

from prcond import oracle  # noqa: E402


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, times: dict, peaks: dict):
    """fn, recording each call's seconds and the peak after its first call."""
    def wrapper(*args):
        t0 = time.perf_counter()
        result = fn(*args)
        times.setdefault(result.name, []).append(time.perf_counter() - t0)
        peaks.setdefault(result.name, peak_rss_mb())
        return result
    return wrapper


def row(name: str, times: list, peak: float) -> dict:
    return {"suite": name, "calls": len(times), "median_s": statistics.median(times),
            "min_s": min(times), "peak_rss_mb": peak}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=10, help="verify_all calls")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_verify_suites.json")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be positive")

    times: dict = {}
    peaks: dict = {}
    for fn in SUITES:
        setattr(oracle, fn, timed(getattr(oracle, fn), times, peaks))
    totals = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        report = oracle.verify_all()
        totals.append(time.perf_counter() - t0)
        if not report.passed:
            print("verify_all did not pass", file=sys.stderr)
            return 1
    rows = [row(name, times[name], peaks[name]) for name in times]
    rows.append(row("verify_all", totals, peak_rss_mb()))
    for r in rows:
        print(f"{r['suite']:20s} {1e3 * r['median_s']:9.1f} ms  peak {r['peak_rss_mb']:6.1f} MB")
    record = {
        "tool": "time_verify_suites",
        "environment": environment(),
        "settings": {"repeats": args.repeats},
        "results": rows,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
