"""Golden reports: the JSON that a suite, an emulated run and a sweep write.

``reports()`` recomputes every golden file's content; run this script to
rewrite the files from the current code:

    PYTHONPATH=src python tests/golden/regenerate.py

or, with ``--check``, to print each file's moved fields and their largest
relative difference without writing; it exits 1 when a file would change.
``tests/test_golden.py`` recomputes the same reports and compares them with
the files by :func:`differences`. A regeneration is a declared change of
behaviour: list the fields that moved, and their largest difference, in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from pathlib import Path

from odeql import cli, pipeline, suites
from odeql.instances import GenSpec, generate

HERE = Path(__file__).resolve().parent

GOLDEN_RTOL = 1e-12

SUITE_SEEDS = (0, 10)
SUITE_TRIALS = 50
# The emulate benchmark's instance and accuracy, at two measurement seeds.
EMULATE_SPEC = GenSpec(N=64, kappa_V=3.0, b_mode="random", unit_norm=True)
EMULATE_T = (5.0, 10.0, 20.0)
EMULATE_SEEDS = (1, 2)
EMULATE_EPSILON = 1e-8
# The sweep example of the README, as the command line runs it.
SWEEP_ARGV = ["sweep", "--gen", "N=4,kappa=3,b=random,seed=0", "--T", "2.0",
              "--epsilon", "1e-2,1e-4,1e-6,1e-8"]


def emulate_reports() -> list:
    inst = generate(EMULATE_SPEC)
    return [pipeline.run(inst, pipeline.RunConfig(
                T=T, epsilon=EMULATE_EPSILON, seed=seed,
                delta_injection="auto")).to_json_dict()
            for seed in EMULATE_SEEDS for T in EMULATE_T]


def sweep_report() -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(SWEEP_ARGV)
    return json.loads(out.getvalue())


def reports() -> dict:
    """File name -> the report it holds, each computed afresh."""
    golden = {f"suite_all_seed{seed}.json": suites.run_suite("all", trials=SUITE_TRIALS,
                                                             seed=seed)
              for seed in SUITE_SEEDS}
    golden["emulate_runs.json"] = emulate_reports()
    golden["readme_sweep.json"] = sweep_report()
    return golden


def dump(report) -> str:
    return json.dumps(report, indent=1, default=float) + "\n"


def differences(expected, actual, path="$", rtol=GOLDEN_RTOL) -> list:
    """Where actual departs from expected, one (path, expected, actual) per field.

    Verdicts, integers, strings and booleans must match exactly, floats
    exactly or within a relative rtol. A node whose type, keys or length
    differ is one entry.
    """
    if type(expected) is not type(actual):
        return [(f"{path} (type)", expected, actual)]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [(f"{path} (keys)", sorted(expected), sorted(actual))]
        return [entry for key in expected
                for entry in differences(expected[key], actual[key], f"{path}.{key}", rtol)]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [(f"{path} (length)", len(expected), len(actual))]
        return [entry for i, (e, a) in enumerate(zip(expected, actual))
                for entry in differences(e, a, f"{path}[{i}]", rtol)]
    if isinstance(expected, float):
        if expected == actual or (math.isnan(expected) and math.isnan(actual)):
            return []
        if math.isclose(expected, actual, rel_tol=rtol, abs_tol=0.0):
            return []
    elif expected == actual:
        return []
    return [(path, expected, actual)]


def check() -> bool:
    """Print every field that the current code moves in each golden file, and
    the largest relative difference; write nothing. True when none moves."""
    unchanged = True
    for name, report in reports().items():
        golden, fresh = json.loads((HERE / name).read_text()), json.loads(dump(report))
        moved = differences(golden, fresh, rtol=0.0)
        print(f"{name}: {len(moved)} field(s) moved")
        for path, old, new in moved:
            print(f"  {path}: {old!r} -> {new!r}")
        relative = [abs(new - old) / abs(old) for _, old, new in moved
                    if isinstance(old, float) and isinstance(new, float) and old]
        if relative:
            print(f"  largest relative difference {max(relative):.3g}")
        unchanged = unchanged and not moved
    return unchanged


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite or check the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="print the moved fields and write nothing")
    if parser.parse_args().check:
        sys.exit(0 if check() else 1)
    for name, report in reports().items():
        (HERE / name).write_text(dump(report))
        print(f"wrote {HERE / name}")
