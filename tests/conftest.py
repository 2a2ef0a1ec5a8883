"""Run every Hypothesis test from a fixed example sequence, count norms, and
shrink the standard family.

Each test keeps its own ``max_examples``; derandomizing makes the suite give
the same verdict on every run.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def norm2_calls(monkeypatch):
    """The shapes passed to ``numerics.norm2``, one per call, in every odeql
    module that binds it, from the moment the fixture is set up."""
    from odeql import numerics

    calls, real = [], numerics.norm2

    def counted(M):
        calls.append(M.shape)
        return real(M)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "odeql" and getattr(module, "norm2", None) is real:
            monkeypatch.setattr(module, "norm2", counted)
    return calls


@pytest.fixture
def small_family(monkeypatch):
    """Make ``suites.standard_family`` build six members: N in {1, 2},
    kappa_V in {1, 3} (N = 1 only at 1) and m in {1, 2}."""
    from odeql import suites

    monkeypatch.setattr(suites, "FAMILY_N", (1, 2))
    monkeypatch.setattr(suites, "FAMILY_KAPPA", (1.0, 3.0))
    monkeypatch.setattr(suites, "FAMILY_M", (1, 2))
