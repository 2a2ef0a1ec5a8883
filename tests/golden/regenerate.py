"""Golden reports: the JSON that a suite, an emulated run and a sweep write.

``reports()`` recomputes every golden file's content; run this script to
rewrite the files from the current code:

    PYTHONPATH=src python tests/golden/regenerate.py

``tests/test_golden.py`` recomputes the same reports and compares them with
the files. A regeneration is a declared change of behaviour: list the fields
that moved, and their largest difference, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from odeql import cli, pipeline, suites
from odeql.instances import GenSpec, generate

HERE = Path(__file__).resolve().parent

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


if __name__ == "__main__":
    for name, report in reports().items():
        (HERE / name).write_text(dump(report))
        print(f"wrote {HERE / name}")
