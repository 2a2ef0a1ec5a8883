"""Span recording for the traced benchmark run, from outside the library.

Each layer is timed by rebinding one of its public functions, in every
loaded ``odeql`` module that holds a reference to it, to a wrapper that
records a span per call.  :func:`installed` puts every original back on
exit, so untraced timings always run the library as shipped.

A span is (name, start, end, parent, task).  Its self time is its duration
minus the part of that interval its child spans cover; per-task figures sum
the self times and call counts of each span name inside one task.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: int


@dataclass
class Recorder:
    """In-memory spans plus per-task work counters.

    ``task`` is the id stamped on every span and count; the benchmark sets
    it before each task (the traced set-up uses -1).
    """

    spans: list[Span] = field(default_factory=list)
    counters: dict[int, dict[str, float]] = field(default_factory=dict)
    task: int = -1
    _open: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.task))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, name: str, n: float) -> None:
        task = self.counters.setdefault(self.task, {})
        task[name] = task.get(name, 0) + n

    def to_json(self) -> dict:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.task] for s in self.spans],
            "counters": {str(t): c for t, c in self.counters.items()},
        }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def per_task(recorder: Recorder) -> dict[int, dict[str, float]]:
    """Per task id: '<span>:self' seconds, '<span>:calls' counts, counters."""
    tasks: dict[int, dict[str, float]] = {}
    for s, own in zip(recorder.spans, self_times(recorder.spans)):
        row = tasks.setdefault(s.task, {})
        row[s.name + ":self"] = row.get(s.name + ":self", 0.0) + own
        row[s.name + ":calls"] = row.get(s.name + ":calls", 0) + 1
    for task, counts in recorder.counters.items():
        tasks.setdefault(task, {}).update(counts)
    return tasks


@dataclass(frozen=True)
class Probe:
    """One traced function: where it lives and how its span is named.

    ``suffix`` names the span after an argument (the suite name), and
    ``after`` records work counters from the call's result.
    """

    module: str
    attr: str
    span: str
    suffix: Callable | None = None
    after: Callable | None = None


def _count_matrix(rec, C):
    rec.count("encoder.nnz", C.nnz)
    rec.count("encoder.bytes_computed", C.data.nbytes + C.indices.nbytes + C.indptr.nbytes)


def _count_rhs(rec, rhs):
    rec.count("encoder.bytes_computed", rhs.nbytes)


def _count_spmv(rec, sol):
    rec.count("solver.spmv_computed", sol.params.m * sol.params.k)


def _count_useful_oracle(rec, report):
    # run() consumes m+1 step-grid norms and one final state from the oracle.
    rec.count("numerics.oracle_useful", report.params.m + 2)


def _suite_name(args, kwargs):
    return args[0] if args else kwargs["name"]


PROBES = (
    Probe("odeql.instances", "generate", "instances.generate"),
    Probe("odeql.numerics", "reference_solution", "numerics.reference_solution"),
    Probe("odeql.numerics", "spectral_norm", "numerics.spectral_norm"),
    Probe("odeql.analysis", "decay_profile", "analysis.decay_profile"),
    Probe("odeql.analysis", "inverse_norm", "analysis.inverse_norm"),
    Probe("odeql.analysis", "matrix_norm_bounds", "analysis.matrix_norm_bounds"),
    Probe("odeql.analysis", "solution_error_report", "analysis.solution_error_report"),
    Probe("odeql.analysis", "success_probability_report",
          "analysis.success_probability_report"),
    Probe("odeql.analysis", "scalar_inverse_columns", "analysis.scalar_inverse_columns"),
    Probe("odeql.encoder", "build_matrix", "encoder.build_matrix", after=_count_matrix),
    Probe("odeql.encoder", "build_rhs", "encoder.build_rhs", after=_count_rhs),
    Probe("odeql.solver", "forward_substitute", "solver.forward_substitute",
          after=_count_spmv),
    Probe("odeql.solver", "generic_solve", "solver.generic_solve"),
    Probe("odeql.solver", "residual", "solver.residual"),
    Probe("odeql.pipeline", "choose_parameters", "pipeline.choose_parameters"),
    Probe("odeql.pipeline", "measure", "pipeline.measure"),
    Probe("odeql.pipeline", "run", "pipeline.run", after=_count_useful_oracle),
    Probe("odeql.suites", "run_suite", "suites", suffix=_suite_name),
)


def _wrap(recorder: Recorder, probe: Probe, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        name = probe.span
        if probe.suffix is not None:
            name = f"{name}.{probe.suffix(args, kwargs)}"
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if probe.after is not None:
            probe.after(recorder, result)
        return result
    return traced


def _odeql_modules():
    return [m for n, m in list(sys.modules.items())
            if n == "odeql" or n.startswith("odeql.")]


@contextmanager
def installed(recorder: Recorder, probes=PROBES):
    """Trace every probe while the block runs; restore all bindings after."""
    homes = [importlib.import_module(p.module) for p in probes]
    modules = _odeql_modules()
    saved = []
    try:
        for probe, home in zip(probes, homes):
            original = getattr(home, probe.attr)
            wrapper = _wrap(recorder, probe, original)
            for module in modules:
                names = [a for a, v in vars(module).items() if v is original]
                for attr in names:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
