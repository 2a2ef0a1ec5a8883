"""Plumbing tests for the named verification suites."""

import numpy as np
import pytest
import scipy.sparse as sp

from odeql import analysis, encoder, numerics, suites
from odeql.errors import ParameterError


def _count_work(monkeypatch):
    """Count encodes, block solves and norms of encoded systems.

    Every binding of lanczos_norm is wrapped, and each run is filed by its
    argument: the assembled C (unit diagonal), its inverse (an operator) or
    anything else, such as a Lemma 3 component.
    """
    calls = {"encode": 0, "solve": 0, "norm_C": [], "inverse_norm": [], "component": []}
    lanczos, encode = numerics.lanczos_norm, analysis.encode
    solve = analysis.forward_substitute

    def counted(key, inner):
        def wrapper(*args):
            calls[key] += 1
            return inner(*args)
        return wrapper

    def counted_lanczos(M, tol=0.0):
        if not sp.issparse(M):
            calls["inverse_norm"].append(M)
        elif np.all(M.diagonal() == 1.0):
            calls["norm_C"].append(M)
        else:
            calls["component"].append(M)
        return lanczos(M, tol=tol)

    monkeypatch.setattr(analysis, "encode", counted("encode", encode))
    monkeypatch.setattr(analysis, "forward_substitute", counted("solve", solve))
    for module in (numerics, encoder, analysis):
        if getattr(module, "lanczos_norm", None) is lanczos:
            monkeypatch.setattr(module, "lanczos_norm", counted_lanczos)
    return calls


@pytest.fixture
def builds(monkeypatch, small_family):
    """Make run_suite build the small family; return the list of builds."""
    built = []
    standard_family = suites.standard_family

    def recorded(seed):
        built.append(standard_family(seed))
        return built[-1]

    monkeypatch.setattr(suites, "standard_family", recorded)
    return built


def test_family_members_have_requested_layout(small_family):
    members = list(suites.standard_family(seed=4))
    # N=1 occurs only with kappa=1, so 3 (N, kappa) pairs x 2 m values
    assert len(members) == 6
    for member in members:
        assert isinstance(member, analysis.Problem)
        assert member.params.m == member.params.p
        assert member.params.k >= 5
        assert member.decay.g_grid >= 1.0


@pytest.mark.parametrize("name", [n for n in suites.SUITE_NAMES if n != "all"])
def test_run_suite_dispatch_and_shapes(name, builds):
    # every suite reports one merged BoundReport per bound, in one shape
    trials = 20 if name in suites.TRIAL_SUITES else None
    report = suites.run_suite(name, trials=trials, seed=0)
    assert set(report) == {"suite", "instances", "worst_ratio", "reports", "passed"}
    assert report["suite"] == name
    bounds = [r["bound"] for r in report["reports"]]
    assert len(set(bounds)) == len(bounds)
    assert report["worst_ratio"] == max(r["worst_ratio"] for r in report["reports"])
    assert report["instances"] == sum(r["instances_checked"] for r in report["reports"])
    assert report["passed"] == all(r["verdict"] == "pass" for r in report["reports"])
    assert report["passed"]
    # a merged report keeps its worst case's details beside the merge count
    kept = {"lemma1": {"column_norm_ratio", "entry_ratio", "worst_column"},
            "lemma3": {"component_identity", "component_collector", "component_subdiagonal"},
            "thm2": {"errors", "worst_step"}}.get(name, set())
    for r in report["reports"]:
        assert kept | {"merged"} <= set(r["details"])


def test_small_family_suites_pass(builds):
    for name in ("lemma2", "thm2", "thm3"):
        assert suites.run_suite(name, seed=1)["passed"]


def test_thm2_reads_the_members_trajectories(monkeypatch, small_family):
    family = suites.standard_family(seed=1)
    monkeypatch.setattr(suites, "standard_family", lambda seed: family)
    calls = []

    def counted(*args):
        calls.append(args)
        return numerics.reference_trajectory(*args)

    monkeypatch.setattr(analysis, "reference_trajectory", counted)
    assert suites.run_suite("thm2", seed=1)["passed"]
    assert calls == []


def test_all_builds_one_family_and_shares_it(monkeypatch, builds):
    seen = {name: [] for name in suites.FAMILY_SUITES}

    def recorded(name, check):
        def wrapper(problem):
            seen[name].append(problem)
            return check(problem)
        return wrapper

    for name, check in suites.FAMILY_SUITES.items():
        monkeypatch.setitem(suites.FAMILY_SUITES, name, recorded(name, check))
    report = suites.run_suite("all", trials=1)
    assert report["passed"]
    assert len(builds) == 1
    assert isinstance(builds[0], tuple) and len(builds[0]) == 6
    assert sorted(seen) == ["lemma2", "lemma3", "thm1", "thm2", "thm3"]
    assert all(list(map(id, problems)) == list(map(id, builds[0]))
               for problems in seen.values())
    assert all(report["suites"][name] == suites.run_suite(name) for name in seen)


def test_all_encodes_solves_and_measures_each_member_once(monkeypatch, norm2_calls):
    calls = _count_work(monkeypatch)
    assert suites.run_suite("all", trials=1, seed=0)["passed"]
    # 52 members: one encode, one solve, one ||C|| (lemma3's lower side) and
    # one ||C^-1|| each
    assert calls["encode"] == calls["solve"] == 52
    assert len(calls["norm_C"]) == len(calls["inverse_norm"]) == 52
    # lemma3 proves the components from the layout and measures nothing
    assert calls["component"] == []
    # generate measures ||V|| and ||V^-1||, the family's grid ||A|| and each
    # encode's step gate ||A|| of the system, which lemma3 reads
    assert len(norm2_calls) == 4 * 52


def test_lemma3_reads_the_gate_norm(monkeypatch, norm2_calls):
    family = suites.standard_family(seed=0)
    monkeypatch.setattr(suites, "standard_family", lambda seed: family)
    norm2_calls.clear()
    assert suites.run_suite("lemma3")["passed"]
    # one ||A|| per member, in its encode's step gate
    assert norm2_calls == [member.inst.A.shape for member in family]
    assert all(member.system.norm_A == np.linalg.norm(numerics.as_dense(member.inst.A), 2)
               for member in family)


def test_lone_thm1_runs_arpack_only_on_the_inverse(monkeypatch, builds):
    calls = _count_work(monkeypatch)
    assert suites.run_suite("thm1")["passed"]
    systems = [member.system for member in builds[0]]
    # ||C|| is Lemma 3's proved bound: ARPACK runs once per member, on C^-1
    assert len(calls["inverse_norm"]) == len(systems)
    assert calls["norm_C"] == calls["component"] == []
    assert all("norm_upper" in vars(system) for system in systems)
    assert calls["encode"] == len(systems) and calls["solve"] == 0


def test_lemma3_verdict_ignores_the_lanczos_norm(monkeypatch):
    honest = suites.run_suite("lemma3")
    lanczos = encoder.lanczos_norm
    monkeypatch.setattr(encoder, "lanczos_norm", lambda M, tol=0.0: 0.5 * lanczos(M, tol=tol))
    halved = suites.run_suite("lemma3")
    # the verdict and ratio come from Lemma 3's proof; only the lower side moved
    (before,), (after,) = honest["reports"], halved["reports"]
    assert (after["verdict"], after["worst_ratio"]) == (before["verdict"], before["worst_ratio"])
    assert after["details"]["norm"] == 0.5 * before["details"]["norm"]


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        suites.run_suite("lemma99")


def test_lemma1_reports_grid_size(monkeypatch):
    # six fixed lambdas and two samples, checked on each of 8 layouts
    monkeypatch.setattr(suites, "LEMMA1_MP", (1, 2))
    report = suites.run_suite("lemma1", trials=2, seed=0)
    assert report["passed"]
    assert report["instances"] == 8 * 8


@pytest.mark.parametrize("name", ["lemma2", "lemma3", "thm1", "thm2", "thm3"])
def test_family_suites_reject_trials(name):
    with pytest.raises(ParameterError):
        suites.run_suite(name, trials=1)


def test_all_forwards_trials_to_trial_suites_only(monkeypatch):
    calls = {}
    report = analysis.BoundReport("stub", 1, 0.5, "stub")
    monkeypatch.setattr(suites, "standard_family", lambda seed: (f"member-{seed}",))

    def trial_stub(name):
        def reports(trials, seed):
            calls[name] = (trials, seed)
            return [report]
        return reports

    def family_stub(name):
        def check(member):
            calls[name] = member
            return report
        return check

    for name, (default, _) in suites.TRIAL_SUITES.items():
        monkeypatch.setitem(suites.TRIAL_SUITES, name, (default, trial_stub(name)))
    for name in suites.FAMILY_SUITES:
        monkeypatch.setitem(suites.FAMILY_SUITES, name, family_stub(name))
    assert suites.run_suite("all", trials=3, seed=5)["passed"]
    assert calls == {"taylor": (3, 5), "lemma1": (3, 5), "appendixB": (3, 5),
                     "lemma2": "member-5", "lemma3": "member-5", "thm1": "member-5",
                     "thm2": "member-5", "thm3": "member-5"}
    # without a count, each trial suite draws its default
    assert suites.run_suite("all", seed=5)["passed"]
    assert {name: calls[name] for name in suites.TRIAL_SUITES} == {
        "taylor": (1000, 5), "lemma1": (4, 5), "appendixB": (10_000, 5)}
