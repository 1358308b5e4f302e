"""Package structure: the import graph of prcond and its exported names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import prcond
from prcond import closedform, core, experiment, lipschitz, oracle

PACKAGE = Path(prcond.__file__).resolve().parent

EXPORTED = {
    "BandRecord", "BoundSpec", "CSV_HEADER", "ConditionReport", "ConsistencyError",
    "Constraint", "ConvergenceRecord", "ConvergenceRow", "EstimateKind",
    "ExperimentConfig", "ExperimentRecord", "Field", "GENERATOR_NAME", "GridSpec",
    "HarmonicConstants", "LipschitzEstimate", "McEstimate", "Method",
    "NO_PHASE_RETRIEVAL_FLAG", "OptimizerConfig", "PolarRow", "PowerRecord", "RngSpec",
    "SQRT3", "SensingMatrix", "SubTanCheck", "SuiteResult", "SweepResult",
    "SweepSummary", "TailCheck", "TightFrameCheck", "UnitPair",
    "VerificationReport", "__version__", "asymptotic_beta",
    "check_g_min_at_one", "check_gk_closed_form", "check_lagrange_identities",
    "check_sub_tan", "condition_number", "convergence_table", "dist_h",
    "estimate_to_json_dict", "fourth_moment_floor", "from_polar",
    "gaussian_abs_expectation", "grid_lower_l", "grid_upper_u",
    "harmonic_constants", "harmonic_frame", "is_tight_4_frame", "k_hat",
    "load_matrix", "lower_lipschitz", "matrix_from_csv", "matrix_from_dict",
    "matrix_to_csv", "matrix_to_dict", "mc_expectation",
    "orthogonal_lower_bound", "pair_objective", "psi_map", "records_to_csv",
    "run_gaussian_sweep", "sample_gaussian", "sample_unit", "save_matrix",
    "sub_tan_bound", "tail_check_two_to_four", "to_polar",
    "two_to_four_norm_bound", "universal_lower_bound", "upper_lipschitz",
    "upper_objective", "verify_all", "write_records_csv",
}


def _package_imports(source: str, modules: set[str]) -> set[str]:
    """Modules of the package that `source` imports, at any nesting depth.

    `from . import name` of something that is not a module imports the
    package itself, named `__init__` here.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                target = node.module
            elif (node.module or "").split(".")[0] == "prcond":
                target = node.module.partition(".")[2]
            else:
                continue
            if target:
                found.add(target.split(".")[0])
            else:
                found.update(a.name if a.name in modules else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                top, _, rest = a.name.partition(".")
                if top == "prcond":
                    found.add(rest.split(".")[0] or "__init__")
    return found


def _import_graph() -> dict[str, set[str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {p.stem for p in paths}
    return {p.stem: _package_imports(p.read_text(encoding="utf-8"), modules) for p in paths}


def _find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    state: dict[str, int] = {}  # 1 on the current path, 2 finished
    path: list[str] = []

    def visit(node):
        state[node] = 1
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        path.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_parser_sees_every_form_of_package_import():
    source = (
        "import numpy\n"
        "from . import planar, __version__\n"
        "from .core import Field\n"
        "import prcond.oracle\n"
        "def f():\n"
        "    from .lipschitz import condition_number\n"
        "    from prcond import experiment\n"
    )
    modules = {"__init__", "core", "experiment", "lipschitz", "oracle", "planar"}
    assert _package_imports(source, modules) == {
        "planar", "__init__", "core", "oracle", "lipschitz", "experiment",
    }


def test_cycle_finder_reports_a_cycle():
    assert _find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_package_import_graph_has_no_cycle():
    graph = _import_graph()
    # the parse reaches the real imports, so an empty graph cannot pass
    assert {"core", "closedform", "experiment", "lipschitz", "oracle"} <= graph["__init__"]
    assert "planar" in graph["lipschitz"]
    assert _find_cycle(graph) is None
    assert "oracle" not in graph["lipschitz"]


def test_exported_names_are_the_module_lists():
    modules = (core, closedform, lipschitz, oracle, experiment)
    assert set(prcond.__all__) == {"__version__"}.union(*(m.__all__ for m in modules))
    assert len(prcond.__all__) == len(set(prcond.__all__))
    for name in prcond.__all__:
        assert getattr(prcond, name) is not None
    assert set(prcond.__all__) == EXPORTED


def _fresh_interpreter(code: str) -> str:
    """Run `code` in a new interpreter that imports this checkout of prcond."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_no_prcond_call_imports_scipy():
    # scipy is not a runtime dependency: with every import of it refused,
    # the CLI calls, both p=2 pair searches and the p=1 pair searches at
    # d = 3 with the inert `polish` switched on all still run
    code = """
import contextlib, io, os, sys, tempfile


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is blocked: " + name)
        return None


sys.meta_path.insert(0, NoScipy())
import prcond, prcond.cli
from prcond.core import Field, RngSpec, sample_gaussian, save_matrix
from prcond.lipschitz import OptimizerConfig, lower_lipschitz, orthogonal_lower_bound
from prcond.oracle import verify_all
cfg = OptimizerConfig(starts=4, polish=True)
for field in (Field.REAL, Field.COMPLEX):
    A = sample_gaussian(field, 12, 3, RngSpec(5, 0))
    for p in (1, 2):
        lower_lipschitz(A, p, cfg)
        orthogonal_lower_bound(A, p, cfg)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    path = os.path.join(tmp, "a.json")
    save_matrix(sample_gaussian(Field.COMPLEX, 10, 3, RngSpec(6, 0)), path)
    assert prcond.cli.main(["beta", "--matrix", path, "--p", "2", "--starts", "8"]) == 0
    assert prcond.cli.main(["beta", "--matrix", path, "--p", "1", "--starts", "8"]) == 0
    assert prcond.cli.main(["experiment", "--field", "real", "--p", "2", "--m", "30", "--d", "3",
                            "--trials", "2", "--starts", "8", "--format", "json"]) == 0
    assert prcond.cli.main(["beta", "--m", "9", "--p", "2"]) == 0
    assert prcond.cli.main(["beta", "--m", "7", "--p", "1"]) == 0
    # widened to complex the harmonic frame loses injectivity: exit 3
    assert prcond.cli.main(["beta", "--m", "7", "--p", "1", "--field", "complex"]) == 3
    assert prcond.cli.main(["oracle", "--m", "5", "--p", "1", "--grid-resolution", "64"]) == 0
assert verify_all(metric_pairs=100, lagrange_draws=20, gk_grid_points=3, gmin_instances=2,
                  subtan_instances=40, mc_samples=5_000).passed
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    assert _fresh_interpreter(code) == "[]"
