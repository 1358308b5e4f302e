"""Command-line front end for the condition-number toolkit.

Subcommands:

* ``frame``      emit the planar harmonic frame with m rows
* ``beta``       condition a matrix: L, U, beta, flags, witnesses
* ``bounds``     tabulate universal lower bounds next to harmonic values
* ``oracle``     certified planar bands for a d=2 matrix
* ``experiment`` Gaussian sweep: per-trial records plus a summary
* ``verify``     run the built-in identity and consistency suites

Exit codes: 0 on success, 2 on usage or input errors, 3 when the
conditioned matrix is flagged as unlikely to determine vectors from
intensities, 4 when verification or an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import oracle as oracle_mod
from .closedform import harmonic_constants, universal_lower_bound
from .core import (
    ConsistencyError,
    Constraint,
    Field,
    RngSpec,
    SensingMatrix,
    harmonic_frame,
    load_matrix,
    matrix_to_csv,
    matrix_to_dict,
)
from .experiment import (
    ExperimentConfig,
    records_to_csv,
    run_gaussian_sweep,
    write_records_csv,
)
from .lipschitz import (
    NO_PHASE_RETRIEVAL_FLAG,
    OptimizerConfig,
    condition_number,
    estimate_to_json_dict,
)

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _input_matrix(args) -> SensingMatrix:
    """Resolve --matrix / --m (+ optional --field widening) to a matrix."""
    if args.matrix and args.m is not None:
        raise ValueError("--matrix and --m are mutually exclusive")
    if args.matrix:
        A = load_matrix(args.matrix)
        if args.field and Field.parse(args.field) is not A.field:
            if A.field is Field.REAL and args.field == "complex":
                return SensingMatrix(Field.COMPLEX, A.array.astype(complex))
            raise ValueError("a complex matrix file cannot be reinterpreted over the reals")
        return A
    if args.m is not None:
        A = harmonic_frame(args.m)
        if args.field == "complex":
            return SensingMatrix(Field.COMPLEX, A.array.astype(complex))
        return A
    raise ValueError("provide either --matrix FILE or --m M")


def _optimizer(args) -> OptimizerConfig:
    kwargs = {}
    if getattr(args, "starts", None) is not None:
        kwargs["starts"] = args.starts
    if getattr(args, "seed", None) is not None:
        kwargs["rng"] = RngSpec(args.seed, 0)
    return OptimizerConfig(**kwargs)


def _cmd_frame(args) -> int:
    if args.m is None:
        raise ValueError("frame requires --m")
    A = harmonic_frame(args.m)
    if args.format == "csv":
        _emit(matrix_to_csv(A).rstrip("\n"), args.out)
    else:
        _emit(json.dumps(matrix_to_dict(A), indent=2), args.out)
    return 0


def _cmd_beta(args) -> int:
    A = _input_matrix(args)
    report = condition_number(A, args.p, _optimizer(args))
    _emit(json.dumps(report.to_json_dict(), indent=2), args.out)
    return 3 if NO_PHASE_RETRIEVAL_FLAG in report.flags else 0


def _cmd_bounds(args) -> int:
    field = Field.parse(args.field or "real")
    top = 12 if args.m is None else args.m
    if top < 3:
        raise ValueError("--m must be at least 3 for the bounds table")
    rows = []
    for m in range(3, top + 1):
        bound = universal_lower_bound(field, args.p, m)
        harmonic = harmonic_constants(m, args.p).beta if field is Field.REAL else None
        rows.append((m, bound.value, bound.source, harmonic))
    if args.format == "csv":
        lines = ["m,universal_bound,source,harmonic_beta"]
        for m, val, src, har in rows:
            htxt = "" if har is None else repr(har)
            lines.append(f"{m},{val!r},{src},{htxt}")
        _emit("\n".join(lines), args.out)
    else:
        lines = [f"universal lower bounds on beta, {field.value} field, p={args.p}"]
        lines.append(f"{'m':>4}  {'bound':>18}  {'harmonic beta':>18}  source")
        for m, val, src, har in rows:
            htxt = "" if har is None else f"{har:.12f}"
            lines.append(f"{m:>4}  {val:>18.12f}  {htxt:>18}  {src}")
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_oracle(args) -> int:
    A = _input_matrix(args)
    if A.d != 2:
        raise ValueError(f"the certified oracle needs d=2 input, got d={A.d}")
    grid = (oracle_mod.GridSpec() if args.grid_resolution is None
            else oracle_mod.GridSpec(resolution=args.grid_resolution))
    low = oracle_mod.grid_lower_l(A, args.p, Constraint.REAL_INNER, grid)
    orth = oracle_mod.grid_lower_l(A, args.p, Constraint.ORTHOGONAL, grid)
    high = oracle_mod.grid_upper_u(A, args.p, grid)
    l_lo, l_hi = low.certified_band
    u_lo, u_hi = high.certified_band
    beta_band = [u_lo / l_hi, (u_hi / l_lo) if l_lo > 0 else None]
    payload = {
        "p": args.p,
        "field": A.field.value,
        "m": A.m,
        "d": A.d,
        "grid": asdict(grid),
        "lower": estimate_to_json_dict(low, A.field),
        "orthogonal": estimate_to_json_dict(orth, A.field),
        "upper": estimate_to_json_dict(high, A.field),
        "beta_band": beta_band,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_experiment(args) -> int:
    if args.m is None or args.d is None:
        raise ValueError("experiment requires --m and --d")
    cfg = ExperimentConfig(
        field=Field.parse(args.field or "real"),
        p=args.p,
        m=args.m,
        d=args.d,
        trials=args.trials,
        rng=RngSpec(args.seed if args.seed is not None else 20240817, 0),
        optimizer=OptimizerConfig() if args.starts is None else OptimizerConfig(starts=args.starts),
    )
    result = run_gaussian_sweep(cfg)
    if args.out:
        write_records_csv(args.out, result.records)
    if args.format == "csv":
        print(records_to_csv(result.records).rstrip("\n"))
    else:
        print(json.dumps(result.to_json_dict(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    report = oracle_mod.verify_all()
    if args.format == "json":
        payload = {"passed": report.passed, "suites": [asdict(s) for s in report.suites]}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        width = max(len(s.name) for s in report.suites)
        lines = [f"{'suite':<{width}}  {'max residual':>13}  {'threshold':>10}  status"]
        for s in report.suites:
            lines.append(
                f"{s.name:<{width}}  {s.max_residual:>13.3e}  "
                f"{s.threshold:>10.1e}  {'pass' if s.passed else 'FAIL'}"
            )
        lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return 0 if report.passed else 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prcond",
        description="Lipschitz bounds and condition numbers of intensity maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp, *formats):
        sp.add_argument("--format", choices=formats, default=formats[0],
                        help=f"output format (default {formats[0]})")
        sp.add_argument("--out", help="also write the output to this file")

    def add_p_field(sp):
        sp.add_argument("--p", type=int, default=2, choices=(1, 2),
                        help="norm exponent (default 2)")
        sp.add_argument("--field", choices=("real", "complex"),
                        help="scalar field (default real)")

    def add_m(sp, what):
        sp.add_argument("--m", type=int, help=what)

    def add_matrix(sp):
        sp.add_argument("--matrix", help="matrix file (.json or .csv)")

    def add_solver(sp):
        sp.add_argument("--starts", type=int, help="multi-start count")
        sp.add_argument("--seed", type=int, help="search seed")

    sp = sub.add_parser("frame", help="emit the harmonic frame with m rows")
    add_m(sp, "number of frame rows (at least 3)")
    add_output(sp, "json", "csv")
    sp.set_defaults(handler=_cmd_frame)

    sp = sub.add_parser("beta", help="condition number of one matrix")
    add_p_field(sp)
    add_m(sp, "harmonic frame size, instead of --matrix")
    add_matrix(sp)
    add_solver(sp)
    add_output(sp, "json")
    sp.set_defaults(handler=_cmd_beta)

    sp = sub.add_parser("bounds", help="universal lower bounds per m")
    add_p_field(sp)
    add_m(sp, "largest m in the table (default 12)")
    add_output(sp, "text", "csv")
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("oracle", help="certified planar bands at d=2")
    add_p_field(sp)
    add_m(sp, "harmonic frame size, instead of --matrix")
    add_matrix(sp)
    sp.add_argument("--grid-resolution", type=int, dest="grid_resolution",
                    help="oracle axis budget (default 2048)")
    add_output(sp, "json")
    sp.set_defaults(handler=_cmd_oracle)

    sp = sub.add_parser("experiment", help="Gaussian condition-number sweep")
    add_p_field(sp)
    add_m(sp, "rows per random draw")
    sp.add_argument("--d", type=int, help="ambient dimension")
    sp.add_argument("--trials", type=int, default=50,
                    help="number of random draws (default 50)")
    add_solver(sp)
    add_output(sp, "json", "csv")
    sp.set_defaults(handler=_cmd_experiment)

    sp = sub.add_parser("verify", help="run the identity and consistency suites")
    add_output(sp, "text", "json")
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.handler(args))
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
