"""Per-layer spans for the traced benchmark run.

`Tracer.install` wraps public functions of prcond's modules (plus the six
private identity suites that `verify_all` calls) in timing wrappers.  Each
name is patched in every prcond module that holds it, because callers look
names up in their own module: `condition_number` is called through
`prcond.experiment` and `prcond.cli` as well as `prcond.lipschitz`.

A span records its job, its parent span, its name, start and end.  A
layer's self time is its span's duration minus the spans it directly
caused.  Spans stay in memory and are written out once, when the run ends.

Two entries are measured differently:

* `lipschitz.polish.pN` repeats each `lower_lipschitz` call that had the
  polish on with the polish off, on the same inputs, and records the time
  difference and whether the polish lowered the value.  The repeat runs with
  the clock paused: it adds to no span and to no job time.
* `cli.start` is a cold `python -m prcond` call minus the `cli.main` span
  inside that call; `bench/run.py` computes it from the child's trace.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

SUITES = {
    "_metric_suite": "metric-identity",
    "_lagrange_suite": "lagrange-sums",
    "_gk_suite": "gk-closed-form",
    "_gmin_suite": "g-min-at-one",
    "_subtan_suite": "sub-tan",
    "_mc_suite": "expectation-curves",
}


def _by_p(stem):
    return lambda a: f"{stem}.p{a['p']}"


def _cli_label(a):
    argv = a["argv"] if a.get("argv") is not None else sys.argv[1:]
    return f"cli.main.{argv[0]}"


# (module, attribute, label): the label is a name or a function of the call's
# bound arguments
TARGETS = [
    ("prcond.core", "sample_gaussian", "core.sample_gaussian"),
    ("prcond.lipschitz", "lower_lipschitz", _by_p("lipschitz.lower_lipschitz")),
    ("prcond.lipschitz", "upper_lipschitz", _by_p("lipschitz.upper_lipschitz")),
    ("prcond.lipschitz", "condition_number", "lipschitz.condition_number"),
    ("prcond.experiment", "run_gaussian_sweep", "experiment.run_gaussian_sweep"),
    ("prcond.experiment", "SweepResult.to_json_dict", "experiment.to_json_dict"),
    ("prcond.oracle", "grid_lower_l", "oracle.grid_lower_l"),
    ("prcond.oracle", "grid_upper_u", "oracle.grid_upper_u"),
    ("prcond.oracle", "verify_all", "oracle.verify_all"),
    *[("prcond.oracle", fn, f"oracle.suite.{name}") for fn, name in SUITES.items()],
    ("prcond.cli", "main", _cli_label),
]

# the per-layer entries the traced run reports, in BENCHMARK.json's order
TIMED = [
    "core.sample_gaussian",
    "lipschitz.lower_lipschitz.p1",
    "lipschitz.lower_lipschitz.p2",
    "lipschitz.upper_lipschitz.p2",
    "lipschitz.condition_number",
    "oracle.grid_lower_l",
    "oracle.grid_upper_u",
    "oracle.verify_all",
    *[f"oracle.suite.{name}" for name in SUITES.values()],
    "experiment.to_json_dict",
    "cli.main.beta",
    "cli.main.oracle",
    "cli.main.experiment",
    "cli.main.verify",
    "cli.start",
]
SWEEP = "experiment.run_gaussian_sweep"
POLISH = ["lipschitz.polish.p1", "lipschitz.polish.p2"]


class _Span:
    __slots__ = ("job", "id", "parent", "name", "start", "paused0", "children", "units")

    def __init__(self, job, sid, parent, name, start, paused0, units):
        self.job, self.id, self.parent, self.name = job, sid, parent, name
        self.start, self.paused0, self.children, self.units = start, paused0, 0.0, units


class Tracer:
    """Spans of one traced run, kept in memory until `write`."""

    def __init__(self) -> None:
        self.job = None
        self.records: list[list] = []   # job, id, parent, name, start, end, dur, self, units, failed
        self.polish = {name: [0, 0.0, 0] for name in POLISH}   # calls, on - off seconds, lowered
        self.paused = 0.0
        self.missing: list[str] = []
        self._stack: list[_Span] = []
        self._patches: list[tuple] = []
        self._ids = itertools.count()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, units: int) -> _Span:
        parent = self._stack[-1].id if self._stack else None
        span = _Span(self.job, next(self._ids), parent, name,
                     time.perf_counter(), self.paused, units)
        self._stack.append(span)
        return span

    def _exit(self, span: _Span, failed: bool) -> float:
        self._stack.pop()
        end = time.perf_counter()
        dur = end - span.start - (self.paused - span.paused0)
        if self._stack:
            self._stack[-1].children += dur
        self.records.append([span.job, span.id, span.parent, span.name, span.start, end,
                             dur, dur - span.children, span.units, failed])
        return dur

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, label):
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            name = label if isinstance(label, str) else label(a)
            units = a["cfg"].trials if name == SWEEP else 1
            span = tracer._enter(name, units)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span, True)
                raise
            dur = tracer._exit(span, name.startswith("cli.main.") and result != 0)
            if name.startswith("lipschitz.lower_lipschitz."):
                tracer._polish_ab(fn, a, result, dur)
            return result

        return traced

    def _polish_ab(self, fn, a, on, on_dur) -> None:
        from prcond.lipschitz import OptimizerConfig

        cfg = a["cfg"] or OptimizerConfig()
        if not cfg.polish:
            return
        t0 = time.perf_counter()
        off_dur = 0.0
        try:
            off = fn(a["A"], a["p"], dataclasses.replace(cfg, polish=False))
            off_dur = time.perf_counter() - t0
        finally:
            self.paused += time.perf_counter() - t0
        entry = self.polish[f"lipschitz.polish.p{a['p']}"]
        entry[0] += 1
        entry[1] += on_dur - off_dur
        entry[2] += int(on.value < off.value)

    def install(self) -> None:
        for modname, attr, label in TARGETS:
            owner = importlib.import_module(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            original = inspect.unwrap(original)
            holders = [owner] if len(path) > 1 else [
                mod for key, mod in sorted(sys.modules.items())
                if key.startswith("prcond") and mod is not None
            ]
            for holder in holders:
                current = holder.__dict__.get(path[-1])
                if current is not None and inspect.unwrap(current) is original:
                    self._patches.append((holder, path[-1], current))
                    setattr(holder, path[-1], self._wrap(current, label))

    def uninstall(self) -> None:
        while self._patches:
            holder, name, previous = self._patches.pop()
            setattr(holder, name, previous)

    # -- results ----------------------------------------------------------

    def absorb(self, child: dict, job) -> dict:
        """Add a child process's trace to this one; returns its cli.main span.

        The child's paused seconds (its polish repeats) count as paused here
        too, so they stay out of the parent's job times.
        """
        ids = {}
        main = None
        for rec in child["spans"]:
            rec = list(rec)
            ids[rec[1]] = next(self._ids)
            rec[0], rec[1], rec[2] = job, ids[rec[1]], ids.get(rec[2])
            self.records.append(rec)
            if rec[3].startswith("cli.main."):
                main = rec
        self.paused += child["paused_s"]
        for name, (calls, extra, lowered) in child["polish"].items():
            entry = self.polish[name]
            entry[0] += calls
            entry[1] += extra
            entry[2] += lowered
        return main

    def add(self, name: str, dur: float, failed: bool) -> None:
        """Record a span measured outside the wrappers (cli.start)."""
        self.records.append([self.job, next(self._ids), None, name, None, None,
                             dur, dur, 1, failed])

    def stats(self) -> dict:
        """name -> [calls, units, inclusive seconds, self seconds, failures]."""
        out: dict = {}
        for _job, _id, _parent, name, _s, _e, dur, own, units, failed in self.records:
            row = out.setdefault(name, [0, 0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += units
            row[2] += dur
            row[3] += own
            row[4] += int(failed)
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric, zero for layers this workload never called."""
        stats = self.stats()
        out = {}

        def put(key, value, unit):
            out[key] = {"value": value, "unit": unit}

        for name in TIMED:
            calls, _units, total, own, failures = stats.get(name, [0, 0, 0.0, 0.0, 0])
            put(f"{name}.calls", calls, "count")
            put(f"{name}.self_s", own, "s")
            put(f"{name}.s_per_call", total / calls if calls else 0.0, "s")
            put(f"{name}.failures", failures, "count")
        calls, trials, total, own, failures = stats.get(SWEEP, [0, 0, 0.0, 0.0, 0])
        put(f"{SWEEP}.trials", trials, "count")
        put(f"{SWEEP}.self_s", own, "s")
        put(f"{SWEEP}.s_per_trial", total / trials if trials else 0.0, "s")
        put(f"{SWEEP}.failures", failures, "count")
        for name in POLISH:
            calls, extra, lowered = self.polish[name]
            put(f"{name}.calls", calls, "count")
            put(f"{name}.extra_s", extra, "s")
            put(f"{name}.extra_s_per_call", extra / calls if calls else 0.0, "s")
            put(f"{name}.lowered_share", lowered / calls if calls else 0.0, "ratio")
        return out

    def to_json(self) -> dict:
        return {
            "missing": self.missing,
            "paused_s": self.paused,
            "polish": self.polish,
            "spans": self.records,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)
