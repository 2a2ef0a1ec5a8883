"""Self-time arithmetic and the install/restore contract of the tracer."""

import sys

import pytest

import tracing
from tracing import Recorder, Span, installed, per_task, self_times


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("d", 6.0, 7.0, 3, 0),
        Span("e", 6.5, 8.0, 3, 0),   # overlaps d: counted once
        Span("f", 8.5, 9.5, 3, 0),   # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_per_task_sums_self_times_calls_and_counters():
    rec = Recorder()
    rec.spans = [
        Span("task", 0.0, 5.0, None, 0),
        Span("x", 1.0, 2.0, 0, 0),
        Span("x", 3.0, 3.5, 0, 0),
        Span("task", 6.0, 7.0, None, 1),
    ]
    rec.counters = {0: {"work": 4}}
    rows = per_task(rec)
    assert rows[0] == pytest.approx({"task:self": 3.5, "task:calls": 1,
                                     "x:self": 1.5, "x:calls": 2, "work": 4})
    assert rows[1] == pytest.approx({"task:self": 1.0, "task:calls": 1})


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "odeql" or name.startswith("odeql.")
            for attr, value in vars(module).items()}


def test_install_then_restore_leaves_every_binding_identical():
    import odeql  # noqa: F401
    from odeql import instances, numerics, pipeline, suites  # noqa: F401

    before = _bindings()
    rec = Recorder()
    with installed(rec):
        # the oracle is rebound where it is defined and where it is imported
        assert numerics.reference_solution is not before[("odeql.numerics",
                                                          "reference_solution")]
        assert pipeline.reference_solution is numerics.reference_solution
        assert odeql.generate is instances.generate
        odeql.generate(instances.GenSpec(N=2, seed=0))
    assert [s.name for s in rec.spans] == ["instances.generate"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_happens_when_the_traced_block_raises():
    from odeql import numerics

    original = numerics.spectral_norm
    with pytest.raises(RuntimeError):
        with installed(Recorder()):
            assert numerics.spectral_norm is not original
            raise RuntimeError("boom")
    assert numerics.spectral_norm is original


def test_suite_spans_are_named_after_the_suite():
    from odeql import suites

    rec = Recorder()
    with installed(rec, [p for p in tracing.PROBES if p.span == "suites"]):
        suites.run_suite("lemma1", seed=0)
    assert [s.name for s in rec.spans] == ["suites.lemma1"]
