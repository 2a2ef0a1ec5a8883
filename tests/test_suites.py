"""Plumbing tests for the named verification suites."""

import pytest

from odeql import suites
from odeql.errors import ParameterError


SMALL_FAMILY = dict(N_values=(1, 2), kappa_values=(1.0, 3.0), m_values=(1, 2))


def test_family_members_have_requested_layout():
    members = list(suites.standard_family(seed=4, **SMALL_FAMILY))
    # N=1 occurs only with kappa=1, so 3 (N, kappa) pairs x 2 m values
    assert len(members) == 6
    for member in members:
        assert member.params.m == member.params.p
        assert member.params.k >= 5
        assert member.decay.g_grid >= 1.0


def test_run_suite_dispatch_and_shapes():
    report = suites.run_suite("taylor", trials=20, seed=0)
    assert report["suite"] == "taylor"
    assert report["passed"]

    report = suites.run_suite("appendixB", trials=50, seed=0)
    assert report["passed"]


def test_small_family_suites_pass():
    assert suites.lemma2_suite(seed=1, **SMALL_FAMILY)["passed"]
    assert suites.thm2_suite(seed=1, **SMALL_FAMILY)["passed"]
    assert suites.thm3_suite(seed=1, **SMALL_FAMILY)["passed"]


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        suites.run_suite("lemma99")


def test_lemma1_reports_grid_size():
    report = suites.lemma1_suite(trials=2, seed=0, mp_values=(1, 2))
    assert report["passed"]
    assert report["lambda_grid_size"] == 8


@pytest.mark.parametrize("name", ["lemma2", "lemma3", "thm1", "thm2", "thm3"])
def test_family_suites_reject_trials(name):
    with pytest.raises(ParameterError):
        suites.run_suite(name, trials=1)


def test_all_forwards_trials_to_trial_suites_only(monkeypatch):
    calls = {}

    def stub(name):
        def suite(*args):
            calls[name] = args
            return {"passed": True}
        return suite

    for name, attr in (("taylor", "taylor_suite"), ("lemma1", "lemma1_suite"),
                       ("lemma2", "lemma2_suite"), ("lemma3", "lemma3_suite"),
                       ("thm1", "thm1_suite"), ("thm2", "thm2_suite"),
                       ("thm3", "thm3_suite"), ("appendixB", "appendix_b_suite")):
        monkeypatch.setattr(suites, attr, stub(name))
    report = suites.run_suite("all", trials=3, seed=5)
    assert report["passed"]
    assert calls == {"taylor": (3, 5), "lemma1": (3, 5), "appendixB": (3, 5),
                     "lemma2": (5,), "lemma3": (5,), "thm1": (5,),
                     "thm2": (5,), "thm3": (5,)}
