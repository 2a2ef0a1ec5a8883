"""Classical construction, solution and verification of the truncated-Taylor
linear-system encoding of linear ODE evolution dx/dt = A x + b.

The package builds the sparse block-triangular system whose solution carries
the stepped Taylor propagation of the ODE (a history of the trajectory plus
padded copies of the final state), solves it exactly by structure-aware
forward substitution, verifies the conditioning / accuracy / measurement
bounds that make the encoding useful, and emulates the end-to-end algorithm
including parameter selection, solver-inexactness injection and measurement
sampling.
"""

from .analysis import (
    BoundReport,
    DecayProfile,
    condition_number_bound,
    inverse_norm_bound,
    matrix_norm_bounds,
    scalar_inverse_columns,
    solution_error_report,
    state_distance_checks,
    success_probability_report,
)
from .encoder import (
    BlockIndex,
    EncodedSystem,
    TaylorParams,
    build_matrix,
    build_rhs,
    encode,
    simulate_state_prep,
)
from .errors import (
    BoundViolationError,
    ConvergenceError,
    DegenerateInputError,
    DimensionError,
    HypothesisError,
    IntegrityError,
    OdeqlError,
    ParameterError,
)
from .instances import GenSpec, generate
from .numerics import (
    Instance,
    evolve,
    exp_action,
    make_instance,
    reference_solution,
    reference_trajectory,
    spectral_norm,
)
from .pipeline import (
    ChosenParameters,
    PipelineReport,
    RunConfig,
    amplification_estimate,
    choose_parameters,
    run,
    sweep_grid,
)
from .solver import (
    BlockSolution,
    block_solve,
    forward_substitute,
    generic_solve,
    residual,
)
from .taylor import (
    tail_poly,
    truncated_exp,
    truncated_phi,
    verify_remainder_bounds,
)

__version__ = "0.1.0"
