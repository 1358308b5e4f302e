"""One cold prcond CLI call with the benchmark's tracer installed.

    python3 bench/cli_shim.py TRACE.json beta --m 5 --p 2

Behaves like `python -m prcond beta --m 5 --p 2` (same output, same exit
code) and writes the call's spans to TRACE.json.  `bench/run.py` uses it for
the traced cli-cold run; the caller sets the environment (one BLAS thread,
`src` on PYTHONPATH).
"""

import sys

from prcond import cli

from tracing import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main())
