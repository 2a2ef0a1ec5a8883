"""Named verification suites over standard instance families.

Each suite sweeps a family of seeded test problems satisfying the relevant
hypotheses, runs the matching checker from :mod:`odeql.analysis`, and folds
the outcomes into one JSON-ready report. The families follow a fixed recipe:
dimensions {1, 2, 4, 8, 16}, condition numbers {1, 3, 10}, eigenvalues in
the closed left half-disk, homogeneous and inhomogeneous right-hand sides,
m = p in {1, 2, 4, 8}, and the truncation order chosen by the same rule the
end-to-end driver uses (clipped to k >= 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, pipeline
from .encoder import TaylorParams, encode
from .errors import HypothesisError, ParameterError
from .instances import GenSpec, generate
from .numerics import Instance, spectral_norm
from .solver import forward_substitute
from .taylor import half_disk_samples, verify_remainder_bounds

SUITE_NAMES = ("taylor", "lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3",
               "appendixB", "all")
# The suites that draw a trial count; the others sweep the fixed standard family.
TRIAL_SUITES = ("taylor", "lemma1", "appendixB")

FAMILY_N = (1, 2, 4, 8, 16)
FAMILY_KAPPA = (1.0, 3.0, 10.0)
FAMILY_M = (1, 2, 4, 8)
FAMILY_EPSILON = 1e-3


@dataclass(frozen=True)
class FamilyMember:
    """One standard-family problem with its chosen layout and decay profile."""

    inst: Instance
    params: TaylorParams
    decay: analysis.DecayProfile


def standard_family(seed: int = 0, N_values=FAMILY_N, kappa_values=FAMILY_KAPPA,
                    m_values=FAMILY_M, epsilon: float = FAMILY_EPSILON):
    """Yield FamilyMember problems covering the standard hypothesis box.

    b alternates between zero and random across members; T is set a hair
    under m/||A|| so the step-count rule lands exactly on m steps with
    ||A h|| < 1.
    """
    count = 0
    for N in N_values:
        for kappa in kappa_values:
            if N == 1 and kappa != 1.0:
                continue
            for m in m_values:
                b_mode = "random" if count % 2 else "zero"
                spec = GenSpec(N=N, kappa_V=kappa, b_mode=b_mode,
                               seed=seed + 7 * count, unit_norm=True)
                inst = generate(spec)
                normA = spectral_norm(inst.A, tol=1e-6)
                T = 0.999 * m / normA
                decay = analysis.decay_profile(inst, T, m)
                chosen = pipeline.choose_parameters(
                    T, normA, epsilon, decay.g_grid, inst.kappa_V,
                    float(np.linalg.norm(inst.x_in)),
                    float(np.linalg.norm(inst.b)), decay.q)
                if chosen.params.m != m:
                    raise ParameterError(
                        f"family step-count rule produced m={chosen.params.m}, wanted {m}")
                yield FamilyMember(inst=inst, params=chosen.params, decay=decay)
                count += 1


def _suite_from_reports(name: str, reports) -> dict:
    merged = [r.to_json_dict() for r in reports]
    return {
        "suite": name,
        "instances": sum(r.instances_checked for r in reports),
        "worst_ratio": max((r.worst_ratio for r in reports), default=0.0),
        "reports": merged,
        "passed": all(r.passed for r in reports),
    }


def taylor_suite(trials: int = 1000, seed: int = 0) -> dict:
    report = verify_remainder_bounds(trials, (5, 20), seed)
    report["suite"] = "taylor"
    return report


def lemma1_suite(trials: int = 4, seed: int = 0,
                 mp_values=tuple(range(1, 9))) -> dict:
    """Scalar inverse-column bounds over a lambda grid and the (m, p) box."""
    lam_grid = [0.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j,
                (-1.0 + 1.0j) / math.sqrt(2.0), -0.5 + 0.0j]
    lam_grid += [complex(z) for z in half_disk_samples(trials, seed)]
    reports = []
    for m in mp_values:
        for p in mp_values:
            for k in (5, 7):
                params = TaylorParams(m=m, k=k, p=p, h=1.0)
                for lam in lam_grid:
                    reports.append(analysis.scalar_inverse_columns(lam, params))
    merged = analysis.merge_reports(reports)
    out = _suite_from_reports("lemma1", [merged])
    out["lambda_grid_size"] = len(lam_grid)
    return out


def _family_systems(seed, **kwargs):
    for member in standard_family(seed, **kwargs):
        system = encode(member.inst.A, member.inst.x_in, member.inst.b,
                        member.params)
        yield member, system


def lemma3_suite(seed: int = 0, **kwargs) -> dict:
    reports = [analysis.matrix_norm_bounds(system)
               for _, system in _family_systems(seed, **kwargs)]
    out = _suite_from_reports("lemma3", [analysis.merge_reports(reports)])
    out["components_ok"] = all(r.details["components_ok"] for r in reports)
    out["passed"] = out["passed"] and out["components_ok"]
    return out


def lemma2_suite(seed: int = 0, **kwargs) -> dict:
    reports = [
        analysis.inverse_norm_bound(system, member.inst.kappa_V,
                                    member.inst.eigenvalues)
        for member, system in _family_systems(seed, **kwargs)
    ]
    return _suite_from_reports("lemma2", [analysis.merge_reports(reports)])


def thm1_suite(seed: int = 0, **kwargs) -> dict:
    reports = [
        analysis.condition_number_bound(system, member.inst.kappa_V,
                                        member.inst.eigenvalues)
        for member, system in _family_systems(seed, **kwargs)
    ]
    return _suite_from_reports("thm1", [analysis.merge_reports(reports)])


def thm2_suite(seed: int = 0, **kwargs) -> dict:
    reports = []
    for member in standard_family(seed, **kwargs):
        sol = forward_substitute(member.inst.A, member.params,
                                 member.inst.x_in, member.inst.b)
        reports.append(analysis.solution_error_report(member.inst,
                                                      member.params, sol))
    return _suite_from_reports("thm2", [analysis.merge_reports(reports)])


def thm3_suite(seed: int = 0, **kwargs) -> dict:
    reports = []
    skipped = 0
    for member in standard_family(seed, **kwargs):
        sol = forward_substitute(member.inst.A, member.params,
                                 member.inst.x_in, member.inst.b)
        try:
            reports.append(analysis.success_probability_report(
                member.inst, member.params, sol, member.decay))
        except HypothesisError:
            skipped += 1
    out = _suite_from_reports("thm3", [analysis.merge_reports(reports)])
    out["not_claimed"] = skipped
    return out


def appendix_b_suite(trials: int = 10_000, seed: int = 0) -> dict:
    report = analysis.state_distance_checks(trials, seed)
    report["suite"] = "appendixB"
    return report


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> dict:
    """Run one named suite (or "all") and return its JSON-ready report.

    trials applies to the TRIAL_SUITES only; "all" passes it on to those.
    """
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials is not None and name not in TRIAL_SUITES + ("all",):
        raise ParameterError(f"suite {name!r} sweeps the fixed standard family and "
                             f"takes no trial count; only {', '.join(TRIAL_SUITES)} "
                             "and all do")
    if name == "taylor":
        return taylor_suite(1000 if trials is None else trials, seed)
    if name == "lemma1":
        return lemma1_suite(4 if trials is None else trials, seed)
    if name == "lemma2":
        return lemma2_suite(seed)
    if name == "lemma3":
        return lemma3_suite(seed)
    if name == "thm1":
        return thm1_suite(seed)
    if name == "thm2":
        return thm2_suite(seed)
    if name == "thm3":
        return thm3_suite(seed)
    if name == "appendixB":
        return appendix_b_suite(10_000 if trials is None else trials, seed)
    results = {
        sub: run_suite(sub, trials if sub in TRIAL_SUITES else None, seed)
        for sub in SUITE_NAMES if sub != "all"
    }
    return {
        "suite": "all",
        "suites": results,
        "passed": all(r["passed"] for r in results.values()),
    }
