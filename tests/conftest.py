"""Run every Hypothesis test from a fixed example sequence, and count norms.

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
