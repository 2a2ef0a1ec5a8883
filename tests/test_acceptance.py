"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion. Tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from odeql import analysis, pipeline, suites
from odeql.cli import main as cli_main
from odeql.encoder import TaylorParams, build_matrix, build_rhs, encode
from odeql.instances import GenSpec, generate
from odeql.numerics import make_instance
from odeql.solver import forward_substitute, generic_solve, residual


def verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    flag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {flag}: {name}{suffix}")
    assert passed, f"criterion {number} failed: {name} {suffix}"


def seeded_instances(count, seed0=0, N=3, kappa=2.0):
    for i in range(count):
        yield generate(GenSpec(N=N, kappa_V=kappa,
                               b_mode="random" if i % 2 else "zero",
                               seed=seed0 + i, unit_norm=True))


def test_criterion_1_structural_reproduction():
    """The displayed m=2, k=3, p=2 block system, entrywise."""
    a, h = -0.5, 1.0
    params = TaylorParams(m=2, k=3, p=2, h=h)
    A = np.array([[a]], dtype=complex)
    C = build_matrix(sp.csr_matrix(A), params, abs(a)).toarray()

    expected = np.eye(11, dtype=complex)
    for i in range(2):
        for j in range(1, 4):
            expected[i * 4 + j, i * 4 + j - 1] = a * (-h / j)
        for j in range(4):
            expected[(i + 1) * 4, i * 4 + j] += -1.0
    for l in (9, 10):
        expected[l, l - 1] += -1.0

    matrix_ok = np.array_equal(C, expected)
    coeff_ok = (C[2, 1] == a * (-h / 2)) and (C[3, 2] == a * (-h / 3))

    rhs = build_rhs(np.array([1.0 + 0j]), np.array([0.5 + 0j]), params)
    pattern_ok = sorted(int(i) for i in np.nonzero(rhs)[0]) == [0, 1, 5]

    verdict(1, "structural reproduction of the 11-block system",
            matrix_ok and coeff_ok and pattern_ok)


def test_criterion_2_recurrence_certificates():
    """All five defining recurrences, 100 seeded instances, rel <= 1e-12."""
    worst = 0.0
    for count, inst in enumerate(seeded_instances(100)):
        params = TaylorParams(m=2 + count % 3, k=5 + count % 3, p=1 + count % 3,
                              h=0.9)
        sol = forward_substitute(inst.A, params, inst.x_in, inst.b)
        data = sol.data
        A, h, m, k, p = inst.A, params.h, params.m, params.k, params.p
        scale = np.linalg.norm(data)

        assert np.array_equal(data[0], inst.x_in)
        top = m * (k + 1)
        for j in range(1, p + 1):
            assert np.array_equal(data[top + j], data[top])

        gaps = []
        for i in range(m):
            base = i * (k + 1)
            gaps.append(np.linalg.norm(
                data[base + 1] - h * (A @ data[base]) - h * inst.b))
            for j in range(2, k + 1):
                gaps.append(np.linalg.norm(
                    data[base + j] - (h / j) * (A @ data[base + j - 1])))
            gaps.append(np.linalg.norm(
                data[base + k + 1] - data[base:base + k + 1].sum(axis=0)))
        worst = max(worst, max(gaps) / scale)
    verdict(2, "recurrence certificates on 100 instances", worst <= 1e-12,
            f"worst relative gap {worst:.2e}")


def test_criterion_3_taylor_suite():
    """Remainder and magnitude bounds, 1000 samples x k in 5..20."""
    reports = analysis.verify_remainder_bounds(1000, seed=2024)
    worst = max(r.worst_ratio for r in reports)
    verdict(3, "truncated-series bounds on the half-disk",
            all(r.passed for r in reports), f"worst ratio {worst:.6f}")


def test_criterion_4_inverse_columns():
    """Scalar inverse-column norms over the lambda grid and (m,p) box."""
    report = suites.run_suite("lemma1", trials=8, seed=7)
    verdict(4, "inverse-column norm and entry bounds",
            report["passed"], f"worst ratio {report['worst_ratio']:.3f}")


def test_criterion_5_norm_bounds():
    """Matrix norm, inverse norm and condition number on the family."""
    # "all" builds one family and measures ||C|| and ||C^-1|| once per member
    report = suites.run_suite("all", trials=1, seed=10)["suites"]
    lem3, lem2, thm1 = report["lemma3"], report["lemma2"], report["thm1"]
    passed = lem3["passed"] and lem2["passed"] and thm1["passed"]
    detail = (f"|C| ratio {lem3['worst_ratio']:.3f}, "
              f"|C^-1| ratio {lem2['worst_ratio']:.3f}, "
              f"kappa ratio {thm1['worst_ratio']:.3f}")
    verdict(5, "norm and condition-number bounds", passed, detail)


def test_criterion_6_solution_error():
    """Per-step error bound on the family plus the frozen scalar case."""
    family = suites.run_suite("thm2", seed=11)

    inst = make_instance(np.eye(1), [-1.0], np.zeros(1), np.ones(1),
                         label="scalar")
    params = TaylorParams(m=1, k=5, p=1, h=1.0)
    scalar = analysis.solution_error_report(
        analysis.Problem(inst, params, analysis.decay_profile(inst, params.T, params.m)))
    eps_1 = scalar.details["errors"][1]
    scalar_ok = (abs(eps_1 - 0.0012127745047756378) <= 1e-14
                 and abs(scalar.worst_ratio - 0.31185630122802116) <= 1e-9
                 and eps_1 <= 2.8 / 720.0)
    verdict(6, "solution-error bound", family["passed"] and scalar_ok,
            f"family ratio {family['worst_ratio']:.3f}, scalar ratio "
            f"{scalar.worst_ratio:.4f}")


def test_criterion_7_success_probability():
    """Measurement bound, the p=m floor, and the post-injection floor."""
    family_ok = True
    floors_ok = True
    injected_ok = True
    for member in suites.standard_family(seed=12):
        params, decay = member.params, member.decay
        report = analysis.success_probability_report(member)
        family_ok &= report.passed
        # p = m on the whole family: squared success probability floor
        floors_ok &= (report.details["success_prob"]
                      >= 1.0 / (78.0 * decay.g_grid**2) - 1e-12)
        # inject the budgeted delta and re-check the weakened floor
        delta = suites.FAMILY_EPSILON / (25.0 * math.sqrt(params.m)
                                         * decay.g_grid)
        outcome = pipeline.measure(member, seed=99, delta_injection=delta)
        injected_ok &= (outcome.success_prob
                        >= 1.0 / (121.0 * decay.g_grid**2) - 1e-12)
    verdict(7, "measurement success-probability bounds",
            family_ok and floors_ok and injected_ok,
            "per-block, 1/78g^2 and injected 1/121g^2 floors")


def test_criterion_8_end_to_end(tmp_path):
    """Output error within epsilon and slow truncation growth, plus the
    sweep table artifact."""
    epsilons = (1e-2, 1e-4, 1e-6, 1e-8)
    all_ok = True
    k_rows = []
    for seed in (0, 1):
        inst = generate(GenSpec(N=4, kappa_V=3.0, b_mode="random", seed=seed,
                                unit_norm=True))
        for epsilon in epsilons:
            report = pipeline.run(inst, pipeline.RunConfig(
                T=2.0, epsilon=epsilon, seed=17, delta_injection="auto"))
            all_ok &= report.success_conditioned_error <= epsilon
            ceiling = (2.0 * report.log_omega / math.log(report.log_omega)
                       + 2.0)
            all_ok &= report.params.k <= ceiling
            k_rows.append((epsilon, report.params.k))

    csv_path = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--gen", "N=4,kappa=3,b=random,seed=0",
                     "--T", "2.0",
                     "--epsilon", "1e-2,1e-4,1e-6,1e-8",
                     "--seed", "17", "--csv", str(csv_path),
                     "--report", str(tmp_path / "sweep.json")])
    sweep_ok = code == 0 and csv_path.exists()
    table = csv_path.read_text().strip().splitlines()
    sweep_ok &= len(table) == 5  # header + one row per epsilon

    verdict(8, "end-to-end accuracy and truncation growth",
            all_ok and sweep_ok,
            "k per epsilon: " + ", ".join(f"{e:g}->{k}" for e, k in k_rows[:4]))


def test_criterion_9_state_distance_inequalities():
    """The three state-distance inequalities on 10000 random pairs each."""
    reports = analysis.state_distance_checks(trials=10_000, seed=13)
    worst = max(r.worst_ratio for r in reports)
    verdict(9, "state-distance inequalities", all(r.passed for r in reports),
            f"worst ratio {worst:.6f} over 10000 pairs per inequality")


def test_criterion_10_cross_validation():
    """forward_substitute vs generic solve, and residuals, 100 instances."""
    worst_gap = 0.0
    worst_resid = 0.0
    for count, inst in enumerate(seeded_instances(100, seed0=500)):
        params = TaylorParams(m=1 + count % 3, k=5, p=1 + count % 2, h=0.9)
        system = encode(inst.A, inst.x_in, inst.b, params)
        direct = forward_substitute(inst.A, params, inst.x_in, inst.b).vector()
        generic = generic_solve(system)
        worst_gap = max(worst_gap, float(
            np.linalg.norm(direct - generic) / np.linalg.norm(generic)))
        worst_resid = max(worst_resid, residual(system, direct))
    verdict(10, "forward vs generic cross-validation",
            worst_gap <= 1e-12 and worst_resid <= 1e-12,
            f"gap {worst_gap:.2e}, residual {worst_resid:.2e}")
