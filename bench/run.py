"""prcond benchmark: three closed-loop workloads, one client in one process.

    python3 bench/run.py --workload sweep-d4 --seed 1 --seconds 20 --trace 0

Workloads: sweep-d4, planar-certify and cli-cold (see workloads.py).  The
run measures set-up time in fresh interpreters, runs one untimed warm-up
job, then runs jobs back to back until --seconds have passed, and checks
every job's outputs after the timed loop.  A job whose check fails counts as
failed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, job_p50_s,
peak_rss_mb).  With --trace 1 the run installs timing wrappers
(tracing.py) and reports the per-layer metrics instead.  Each run also
writes its details, with the machine it ran on, to bench/out/.

The script runs prcond from the `src` directory next to `bench`, and exits
with code 2 if there is none.
"""

import os

# One BLAS thread and no trial pool, set before numpy loads: the GEMMs here
# are (starts x d) by (d x m), where extra BLAS threads only add overhead and
# make timings depend on what else the machine runs.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ.pop("PRCOND_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 6


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 63:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2**63)")
    return value


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep-d4", "planar-certify", "cli-cold"))
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a fresh interpreter that only sets up, for setup_s
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # small inputs for the benchmark's own tests
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    """The machine and libraries a run measured."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        # cold starts compile prcond anew when Python may not cache byte code
        "python_writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def probe_setup(workload: str, seed: int, tiny: bool, env: dict) -> float:
    """Seconds until a fresh interpreter has imported and made its inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES, tiny: bool = False) -> dict:
    """One run: set-up probes, warm-up, timed loop, checks.  Returns the record."""
    import workloads
    from tracing import Tracer

    env = workloads.child_env()

    def probe(n):
        return [] if trace else [probe_setup(workload, seed, tiny, env) for _ in range(n)]

    # half the set-up probes run before the warm-up and half after the timed
    # loop, so that one short stretch of a slow or fast machine does not set
    # setup_s alone
    setup = probe(probes // 2)
    wl = workloads.WORKLOADS[workload](seed, tiny)
    tracer = Tracer() if trace else None
    problems: list = []
    try:
        try:
            warm = wl.check(0, wl.job(0))
        except Exception as exc:  # a program fault; the timed jobs will show it too
            warm = []
            problems.append(f"warm-up raised {exc!r}")
        problems += [f"warm-up: {p}" for p in warm]
        if tracer:
            tracer.install()
        times, outputs = [], []
        loop0 = time.perf_counter()
        while True:
            k = len(times) + 1
            if tracer:
                tracer.job = k
                p0 = tracer.paused
            t0 = time.perf_counter()
            try:
                outputs.append(wl.job(k, tracer))
            except Exception as exc:
                outputs.append(exc)
            times.append(time.perf_counter() - t0 - (tracer.paused - p0 if tracer else 0.0))
            if time.perf_counter() - loop0 >= seconds:
                break
        if tracer:
            tracer.uninstall()
        setup += probe(probes - probes // 2)
        done = [o for o in outputs if not isinstance(o, Exception)]
        if wl.in_process:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_rss = max((wl.peak_rss_mb(o) for o in done), default=0.0)
        failed = 0
        checked_ok = True
        for k, out in enumerate(outputs, 1):
            if isinstance(out, Exception):
                failed += 1
                problems.append(f"job {k} raised {out!r}")
                continue
            found = wl.check(k, out)
            if found:
                failed += 1
                checked_ok = False
                problems += found
    finally:
        if tracer:
            tracer.uninstall()
        wl.close()

    if trace:
        metrics = tracer.layer_metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "job_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    return {
        "result": {
            "correct": not warm and checked_ok,
            "attempted": len(outputs),
            "failed": failed,
            "metrics": metrics,
        },
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_s": setup,
        "job_s": times,
        "job_p50_s": statistics.median(times),
        "peak_rss_mb": peak_rss,
        "problems": problems,
        "tracer": tracer.to_json() if tracer else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prcond" / "__init__.py").is_file():
        print(f"error: no prcond sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prcond

    if Path(prcond.__file__).resolve().parent != SRC / "prcond":
        print(f"error: imported prcond from {prcond.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, args.tiny).close()
        print("ready", flush=True)
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny)
    out_dir = BENCH / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed}: {env['cpu_count']} CPUs, {env['blas']} "
          f"with {env['blas_threads']} thread(s), Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, load {env['loadavg'][0]:.2f}")
    print(f"# {len(record['job_s'])} jobs, median {record['job_p50_s']:.4f} s; "
          f"details in {out_dir / stem}.json")
    for problem in record["problems"][:20]:
        print(f"# problem: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
