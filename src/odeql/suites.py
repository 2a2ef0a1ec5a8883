"""Named verification suites over standard instance families.

:func:`run_suite` runs a suite from one of two tables and folds its
BoundReports into one JSON-ready report of one shape: suite, instances,
worst_ratio, reports (one merged BoundReport per bound) and passed.
TRIAL_SUITES (taylor, lemma1, appendixB) draw their samples from a trial
count and a seed. FAMILY_SUITES (lemma2, lemma3, thm1, thm2, thm3) run one
checker on each member of :func:`standard_family`, which follows a fixed
recipe: dimensions {1, 2, 4, 8, 16}, condition numbers {1, 3, 10},
eigenvalues in the closed left half-disk, homogeneous and inhomogeneous
right-hand sides, m = p in {1, 2, 4, 8}, and the layout that
pipeline.choose_parameters picks at FAMILY_EPSILON. A member encodes and
solves its problem once each, on first use, and its system measures ||C||
and ||C^{-1}|| once each: lemma3, lemma2 and thm1 share one system and its
norms, thm2 and thm3 one solution.
"""

from __future__ import annotations

import numpy as np

from . import analysis, pipeline
from .encoder import TaylorParams
from .errors import ParameterError
from .instances import GenSpec, generate
from .taylor import BOUNDARY_CASES, half_disk_samples

SUITE_NAMES = ("taylor", "lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3",
               "appendixB", "all")
# The (m, p) box of lemma1: m and p each in 1..8.
LEMMA1_MP = tuple(range(1, 9))

FAMILY_N = (1, 2, 4, 8, 16)
FAMILY_KAPPA = (1.0, 3.0, 10.0)
FAMILY_M = (1, 2, 4, 8)
FAMILY_EPSILON = 1e-3


def standard_family(seed: int = 0, N_values=FAMILY_N, kappa_values=FAMILY_KAPPA,
                    m_values=FAMILY_M):
    """Return the tuple of analysis.Problem members covering the standard box.

    Each member is generated, and its ODE integrated on its step grid, once
    here; the family suites all read the same tuple, so one family serves a
    whole ``run_suite("all")``. b alternates between zero and random across
    members; T is set a hair under m/||A|| so the step-count rule lands
    exactly on m steps with ||A h|| < 1.
    """
    members = []
    for N in N_values:
        for kappa in kappa_values:
            if N == 1 and kappa != 1.0:
                continue
            for m in m_values:
                b_mode = "random" if len(members) % 2 else "zero"
                spec = GenSpec(N=N, kappa_V=kappa, b_mode=b_mode,
                               seed=seed + 7 * len(members), unit_norm=True)
                inst = generate(spec)
                T = 0.999 * m / inst.norm_A
                decay = pipeline.grid(inst, T)
                if decay.m != m:
                    raise ParameterError(
                        f"family step-count rule produced m={decay.m}, wanted {m}")
                chosen = pipeline.choose_parameters(inst, decay, FAMILY_EPSILON)
                members.append(analysis.Problem(inst, chosen.params, decay))
    return tuple(members)


def _suite_from_reports(name: str, reports) -> dict:
    """Merge the reports per bound, in order of first appearance."""
    by_bound = {}
    for report in reports:
        by_bound.setdefault(report.bound_name, []).append(report)
    merged = [analysis.merge_reports(group) for group in by_bound.values()]
    return {
        "suite": name,
        "instances": sum(r.instances_checked for r in merged),
        "worst_ratio": max(r.worst_ratio for r in merged),
        "reports": [r.to_json_dict() for r in merged],
        "passed": all(r.passed for r in merged),
    }


def _lemma1_reports(trials: int, seed: int) -> list:
    """Scalar inverse-column bounds over a lambda grid and the (m, p) box:
    one block solve per layout covers the whole grid."""
    if trials < 0:
        raise ParameterError(f"need a non-negative trial count, got {trials}")
    lam_grid = np.concatenate([np.array(BOUNDARY_CASES + (-0.5,), dtype=complex),
                               half_disk_samples(trials, seed)])
    return [analysis.scalar_inverse_columns(lam_grid, TaylorParams(m=m, k=k, p=p, h=1.0))
            for m in LEMMA1_MP for p in LEMMA1_MP for k in (5, 7)]


# name -> (default trial count, reports(trials, seed)), sampled from the seed.
TRIAL_SUITES = {
    "taylor": (1000, lambda trials, seed:
               analysis.verify_remainder_bounds(trials, (5, 20), seed)),
    "lemma1": (4, _lemma1_reports),
    "appendixB": (10_000, analysis.state_distance_checks),
}
# name -> the checker run on each member of standard_family(seed).
FAMILY_SUITES = {
    "lemma2": analysis.inverse_norm_bound,
    "lemma3": lambda problem: analysis.matrix_norm_bounds(problem.system),
    "thm1": analysis.condition_number_bound,
    "thm2": analysis.solution_error_report,
    "thm3": analysis.success_probability_report,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> dict:
    """Run one named suite (or "all") and return its JSON-ready report.

    trials applies to the TRIAL_SUITES only; "all" passes it on to those.
    A family suite, or "all", builds standard_family(seed) once and reads it.
    """
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials is not None and name not in (*TRIAL_SUITES, "all"):
        raise ParameterError(f"suite {name!r} sweeps the fixed standard family and "
                             f"takes no trial count; only {', '.join(TRIAL_SUITES)} "
                             "and all do")
    names = SUITE_NAMES[:-1] if name == "all" else (name,)
    family = () if name in TRIAL_SUITES else standard_family(seed)
    results = {}
    for sub in names:
        if sub in TRIAL_SUITES:
            default, reports = TRIAL_SUITES[sub]
            found = reports(default if trials is None else trials, seed)
        else:
            found = [FAMILY_SUITES[sub](problem) for problem in family]
        results[sub] = _suite_from_reports(sub, found)
    if name != "all":
        return results[name]
    return {
        "suite": "all",
        "suites": results,
        "passed": all(r["passed"] for r in results.values()),
    }
