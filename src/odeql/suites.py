"""Named verification suites over standard instance families.

Each suite runs the matching checker from :mod:`odeql.analysis` over seeded
test problems satisfying the relevant hypotheses, and folds the outcomes
into one JSON-ready report of one shape: one merged BoundReport per bound,
and the largest of their ratios as the suite's worst_ratio. The five family
suites (lemma2, lemma3, thm1, thm2, thm3) take one family of
:class:`~odeql.analysis.Problem` members built by :func:`standard_family`,
which follows a fixed recipe: dimensions {1, 2, 4, 8, 16}, condition numbers
{1, 3, 10}, eigenvalues in the closed left half-disk, homogeneous and
inhomogeneous right-hand sides, m = p in {1, 2, 4, 8}, and the truncation
order chosen by the same rule the end-to-end driver uses (clipped to k >= 5). A member encodes and solves its
problem once each, on first use, and its system measures ||C|| and
||C^{-1}|| once each: lemma3, lemma2 and thm1 share one system and its
norms, thm2 and thm3 one solution.
"""

from __future__ import annotations

import numpy as np

from . import analysis, pipeline
from .encoder import TaylorParams
from .errors import HypothesisError, ParameterError
from .instances import GenSpec, generate
from .taylor import BOUNDARY_CASES, half_disk_samples

SUITE_NAMES = ("taylor", "lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3",
               "appendixB", "all")
# The suites that draw a trial count; the others sweep the fixed standard family.
TRIAL_SUITES = ("taylor", "lemma1", "appendixB")

FAMILY_N = (1, 2, 4, 8, 16)
FAMILY_KAPPA = (1.0, 3.0, 10.0)
FAMILY_M = (1, 2, 4, 8)
FAMILY_EPSILON = 1e-3


def standard_family(seed: int = 0, N_values=FAMILY_N, kappa_values=FAMILY_KAPPA,
                    m_values=FAMILY_M, epsilon: float = FAMILY_EPSILON):
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
                chosen = pipeline.choose_parameters(inst, decay, epsilon)
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


def taylor_suite(trials: int = 1000, seed: int = 0) -> dict:
    return _suite_from_reports("taylor", analysis.verify_remainder_bounds(trials, (5, 20), seed))


def lemma1_suite(trials: int = 4, seed: int = 0,
                 mp_values=tuple(range(1, 9))) -> dict:
    """Scalar inverse-column bounds over a lambda grid and the (m, p) box:
    one block solve per layout covers the whole grid."""
    if trials < 0:
        raise ParameterError(f"need a non-negative trial count, got {trials}")
    lam_grid = np.concatenate([np.array(BOUNDARY_CASES + (-0.5,), dtype=complex),
                               half_disk_samples(trials, seed)])
    out = _suite_from_reports("lemma1", [
        analysis.scalar_inverse_columns(lam_grid, TaylorParams(m=m, k=k, p=p, h=1.0))
        for m in mp_values for p in mp_values for k in (5, 7)])
    out["lambda_grid_size"] = lam_grid.size
    return out


def lemma3_suite(family) -> dict:
    return _suite_from_reports(
        "lemma3", [analysis.matrix_norm_bounds(p.system) for p in family])


def lemma2_suite(family) -> dict:
    return _suite_from_reports("lemma2", [analysis.inverse_norm_bound(p) for p in family])


def thm1_suite(family) -> dict:
    return _suite_from_reports("thm1", [analysis.condition_number_bound(p) for p in family])


def thm2_suite(family) -> dict:
    return _suite_from_reports("thm2", [analysis.solution_error_report(p) for p in family])


def thm3_suite(family) -> dict:
    reports = []
    skipped = 0
    for problem in family:
        try:
            reports.append(analysis.success_probability_report(problem))
        except HypothesisError:
            skipped += 1
    out = _suite_from_reports("thm3", reports)
    out["not_claimed"] = skipped
    return out


def appendix_b_suite(trials: int = 10_000, seed: int = 0) -> dict:
    return _suite_from_reports("appendixB", analysis.state_distance_checks(trials, seed))


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> dict:
    """Run one named suite (or "all") and return its JSON-ready report.

    trials applies to the TRIAL_SUITES only; "all" passes it on to those.
    A family suite, or "all", builds standard_family(seed) once and reads it.
    """
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials is not None and name not in TRIAL_SUITES + ("all",):
        raise ParameterError(f"suite {name!r} sweeps the fixed standard family and "
                             f"takes no trial count; only {', '.join(TRIAL_SUITES)} "
                             "and all do")
    trial_suites = {"taylor": taylor_suite, "lemma1": lemma1_suite,
                    "appendixB": appendix_b_suite}
    if name in trial_suites:
        suite = trial_suites[name]
        return suite(seed=seed) if trials is None else suite(trials, seed)
    family = standard_family(seed)
    family_suites = {"lemma2": lemma2_suite, "lemma3": lemma3_suite,
                     "thm1": thm1_suite, "thm2": thm2_suite, "thm3": thm3_suite}
    if name in family_suites:
        return family_suites[name](family)
    results = {
        sub: family_suites[sub](family) if sub in family_suites
        else run_suite(sub, trials, seed)
        for sub in SUITE_NAMES if sub != "all"
    }
    return {
        "suite": "all",
        "suites": results,
        "passed": all(r["passed"] for r in results.values()),
    }
