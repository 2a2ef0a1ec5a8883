"""odeql benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload emulate --seed 1 --seconds 20 --trace 0

Each task (see bench/workloads.py) starts when the previous one has
finished; tasks run until --seconds have passed, and the one running at
the deadline finishes.  Every task's output is checked; a task that raises
or fails its check is counted in `failed` and the run goes on.  Task times
and tasks_per_s cover the tasks that passed.

Output: one JSON line recording the run (environment, sizes, sample
counts, error rate and, untraced, every end-to-end metric), then, as the
last line, {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones.  With --trace 1 the run alternates
untraced and traced tasks for --seconds, and the metrics are the
per-layer ones: medians per task of self times and counts, plus
trace.overhead_frac.  The spans are written to .bench_out/ at the end.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

# BLAS/OpenMP pool size, fixed so results do not depend on the host's cores.
BLAS_THREADS = 1
# Workload builds per untraced run; setup_s counts their median.
SETUP_BUILDS = 3

END_TO_END_UNITS = {"setup_s": "s", "task_s_p50": "s", "task_s_p90": "s",
                    "tasks_per_s": "1/s", "peak_rss_mb": "MiB"}

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

# (metric, key in the per-task rows of tracing.per_task, unit)
LAYER_METRICS = (
    ("instances.generate_s", "instances.generate:self", "s"),
    ("instances.generate_calls", "instances.generate:calls", "count"),
    ("numerics.reference_solution_s", "numerics.reference_solution:self", "s"),
    ("numerics.reference_solution_calls", "numerics.reference_solution:calls", "count"),
    ("numerics.oracle_useful_frac", "numerics.oracle_useful_frac", "ratio"),
    ("numerics.spectral_norm_s", "numerics.spectral_norm:self", "s"),
    ("numerics.spectral_norm_calls", "numerics.spectral_norm:calls", "count"),
    ("analysis.decay_profile_s", "analysis.decay_profile:self", "s"),
    ("analysis.inverse_norm_s", "analysis.inverse_norm:self", "s"),
    ("analysis.inverse_norm_calls", "analysis.inverse_norm:calls", "count"),
    ("analysis.matrix_norm_bounds_s", "analysis.matrix_norm_bounds:self", "s"),
    ("analysis.solution_error_report_s", "analysis.solution_error_report:self", "s"),
    ("analysis.success_probability_report_s",
     "analysis.success_probability_report:self", "s"),
    ("analysis.scalar_inverse_columns_s", "analysis.scalar_inverse_columns:self", "s"),
    ("encoder.build_matrix_s", "encoder.build_matrix:self", "s"),
    ("encoder.build_rhs_s", "encoder.build_rhs:self", "s"),
    ("encoder.nnz", "encoder.nnz", "count"),
    ("encoder.bytes_computed", "encoder.bytes_computed", "bytes"),
    ("solver.forward_substitute_s", "solver.forward_substitute:self", "s"),
    ("solver.spmv_computed", "solver.spmv_computed", "count"),
    ("solver.generic_solve_s", "solver.generic_solve:self", "s"),
    ("solver.residual_s", "solver.residual:self", "s"),
    ("pipeline.choose_parameters_s", "pipeline.choose_parameters:self", "s"),
    ("pipeline.measure_s", "pipeline.measure:self", "s"),
    ("pipeline.run_self_s", "pipeline.run:self", "s"),
    ("suites.lemma1_self_s", "suites.lemma1:self", "s"),
    ("suites.lemma2_self_s", "suites.lemma2:self", "s"),
    ("suites.lemma3_self_s", "suites.lemma3:self", "s"),
    ("suites.thm1_self_s", "suites.thm1:self", "s"),
    ("suites.thm2_self_s", "suites.thm2:self", "s"),
    ("suites.thm3_self_s", "suites.thm3:self", "s"),
    ("task.unattributed_s", "task:self", "s"),
)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def attempt(workload, tally, recorder=None) -> float | None:
    """Run and check one task; return its wall time, or None if it failed."""
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if recorder is None:
            out = workload.run()
        else:
            recorder.task = tally.attempted
            with recorder.span("task"):
                out = workload.run()
        elapsed = time.perf_counter() - start
        reason = workload.check(out)
    except Exception:
        reason = traceback.format_exc()
    if reason is None:
        return elapsed
    tally.failed += 1
    print(f"task failed ({workload.name}): {reason}", file=sys.stderr)
    return None


def set_up(cls, seed, tally, builds=1):
    """Build the workload `builds` times, then run one untimed warm-up task.

    Returns the workload and its set-up seconds: the median build plus the
    warm-up.
    """
    seconds = []
    for _ in range(builds):
        start = time.perf_counter()
        workload = cls(seed)
        seconds.append(time.perf_counter() - start)
    start = time.perf_counter()
    attempt(workload, tally)
    return workload, statistics.median(seconds) + time.perf_counter() - start


def timed_loop(workload, seconds, tally):
    """Tasks until `seconds` have passed; (times of passed tasks, wall)."""
    times = []
    start = time.perf_counter()
    while True:
        elapsed = attempt(workload, tally)
        if elapsed is not None:
            times.append(elapsed)
        if time.perf_counter() - start >= seconds:
            return times, time.perf_counter() - start


def layer_metrics(recorder) -> dict:
    """Median over traced units (tasks, and the set-up) that recorded each key."""
    rows = tracing.per_task(recorder).values()
    for row in rows:
        calls = row.get("numerics.reference_solution:calls")
        if "numerics.oracle_useful" in row and calls:
            row["numerics.oracle_useful_frac"] = row["numerics.oracle_useful"] / calls
    out = {}
    for metric, key, unit in LAYER_METRICS:
        values = [row[key] for row in rows if key in row]
        out[metric] = {"value": statistics.median(values) if values else 0.0,
                       "unit": unit}
    return out


def environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        build = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_build": build,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("emulate", "solve", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "odeql" / "__init__.py").is_file():
        print(f"odeql sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    cls = WORKLOADS[args.workload]
    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(np, scipy)}

    if not args.trace:
        workload, setup_s = set_up(cls, args.seed, tally, SETUP_BUILDS)
        times, wall = timed_loop(workload, args.seconds, tally)
        if not times:
            print("no task passed its check; nothing to report", file=sys.stderr)
            return 1
        p90 = float(np.percentile(times, 90))
        values = {
            "setup_s": import_s + setup_s,
            "task_s_p50": statistics.median(times),
            "task_s_p90": p90,
            "tasks_per_s": len(times) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        info.update({
            "size": workload.size, "setup_builds": SETUP_BUILDS, "import_s": import_s,
            "samples": len(times), "beyond_p90": sum(t > p90 for t in times),
            "end_to_end": {**metrics, "error_rate": {
                "value": tally.failed / tally.attempted, "unit": "ratio"}},
        })
    else:
        recorder = tracing.Recorder()
        with tracing.installed(recorder), recorder.span("setup"):
            workload, _ = set_up(cls, args.seed, tally)
        # Untraced and traced tasks alternate, so a change in the machine's
        # speed during the run weighs on both halves alike.
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(attempt(workload, tally))
            with tracing.installed(recorder):
                traced.append(attempt(workload, tally, recorder))
            if time.perf_counter() - start >= args.seconds:
                break
        plain = [t for t in plain if t is not None]
        traced = [t for t in traced if t is not None]
        if not (plain and traced):
            print("no task passed its check; nothing to report", file=sys.stderr)
            return 1
        metrics = layer_metrics(recorder)
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(plain) - 1.0,
            "unit": "ratio"}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(recorder.to_json()))
        info.update({"size": workload.size, "samples_untraced": len(plain),
                     "samples_traced": len(traced), "spans": len(recorder.spans),
                     "error_rate": tally.failed / tally.attempted})

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
