"""Run every Hypothesis test from a fixed example sequence.

Each test keeps its own ``max_examples``; derandomizing makes the suite give
the same verdict on every run.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
