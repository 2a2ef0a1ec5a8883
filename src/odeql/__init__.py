"""Classical construction, solution and verification of the truncated-Taylor
linear-system encoding of linear ODE evolution dx/dt = A x + b.

The package builds the sparse block-triangular system whose solution carries
the stepped Taylor propagation of the ODE (a history of the trajectory plus
padded copies of the final state), solves it exactly by structure-aware
forward substitution, verifies the conditioning / accuracy / measurement
bounds that make the encoding useful, and emulates the end-to-end algorithm
including parameter selection, solver-inexactness injection and measurement
sampling.

The package namespace holds the names the demos use and the error classes;
every other name is imported from its module.
"""

from .analysis import Problem, condition_number_bound, decay_profile, matrix_norm_bounds
from .encoder import TaylorParams, encode
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DimensionError,
    HypothesisError,
    IntegrityError,
    OdeqlError,
    ParameterError,
)
from .instances import GenSpec, generate
from .numerics import reference_trajectory
from .pipeline import RunConfig, run, sweep_grid
from .solver import forward_substitute, residual
from .taylor import truncated_exp, verify_remainder_bounds

__version__ = "0.1.0"
