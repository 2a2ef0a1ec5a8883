"""Exception types shared across the package.

At the command line every one of them maps to exit code 2. A violated bound
is no exception: it is reported in a verdict (a failed suite, or a run or
sweep whose output error exceeds epsilon), which maps to exit code 1.
"""


class OdeqlError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(OdeqlError, ValueError):
    """A parameter is outside its admissible range (e.g. a step size h with
    ``|A| h > 1``, or an infeasible generation request)."""


class HypothesisError(OdeqlError, ValueError):
    """The hypotheses of a bound are not met, so the bound is not claimed.

    Raised by analysis operations instead of producing a pass/fail verdict,
    so sweeps over invalid corners do not pollute reports.
    """


class DimensionError(OdeqlError, ValueError):
    """Vector or matrix dimensions are inconsistent."""


class DegenerateInputError(OdeqlError, ValueError):
    """Input is degenerate (zero state where a direction is required,
    vanishing final-state norm, zero probability)."""


class IntegrityError(OdeqlError, ValueError):
    """A structural invariant of an encoded system is violated."""


class ConvergenceError(OdeqlError, RuntimeError):
    """An iteration failed to converge within its budget.

    Carries the last iterate and the last residual so callers can inspect
    how far the iteration got.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
