"""Each workload completes a task at a tiny size, and run.py's metric names
match BENCHMARK.json."""

import json

import pytest

import run
import tracing
from workloads import Emulate, Solve, Verify

TINY = {
    "emulate": lambda seed: Emulate(seed, N=8, T_values=(2.0,)),
    "solve": lambda seed: Solve(seed, N=16, sparsity=2, m=2, k=5),
    "verify": lambda seed: Verify(seed, names=("lemma1", "thm3")),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_completes_without_errors(name):
    tally = run.Tally()
    workload, setup_s = run.set_up(TINY[name], 3, tally, builds=2)
    times, wall = run.timed_loop(workload, 1e-9, tally)
    assert len(times) == 1
    assert setup_s > 0 and wall > 0
    assert tally.attempted == 2
    assert tally.failed / tally.attempted == 0


def test_traced_tiny_solve_reports_every_layer_metric():
    tally = run.Tally()
    rec = tracing.Recorder()
    workload, _ = run.set_up(TINY["solve"], 0, tally)
    with tracing.installed(rec):
        run.attempt(workload, tally, rec)
    metrics = run.layer_metrics(rec)
    assert tally.failed == 0
    assert [m for m, _, _ in run.LAYER_METRICS] == list(metrics)
    assert metrics["numerics.reference_solution_calls"]["value"] == 0
    assert metrics["solver.spmv_computed"]["value"] == 2 * 5
    assert metrics["encoder.nnz"]["value"] > 0


class Flaky:
    name = "flaky"

    def __init__(self):
        self.outputs = iter(["good", "raises", "wrong"])

    def run(self):
        out = next(self.outputs)
        if out == "raises":
            raise RuntimeError("boom")
        return out

    def check(self, out):
        return "wrong output" if out == "wrong" else None


def test_failed_tasks_are_counted_and_give_no_time():
    tally = run.Tally()
    workload = Flaky()
    times = [run.attempt(workload, tally) for _ in range(3)]
    assert times[0] > 0 and times[1:] == [None, None]
    assert (tally.attempted, tally.failed) == (3, 2)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {name: unit for name, _, unit in run.LAYER_METRICS}
    layers["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert {w["name"] for w in spec["workloads"]} == {"emulate", "solve", "verify"}
