"""Achievable precision bounds and optimal measurement protocols for
estimating one scalar function of many quantum-process parameters."""

from .errors import (
    ArgumentError,
    ChainViolation,
    ConvergenceError,
    DegenerateModelError,
    EstimationError,
    InconsistentDerivativeError,
    InvariantViolation,
    QprocError,
    ResourceLimitError,
    SchemaError,
    UnboundedVarianceError,
    UnsupportedDimensionError,
)
from .families import (
    BlochFamily,
    EpsilonPairFamily,
    NormMinimizer,
    PauliZFamily,
    ProcessFamily,
    dual_norm,
    minimize_norm,
    unit_ball_mesh,
)
from .operators import (
    DensityOperator,
    HermitianOperator,
    Povm,
    PureState,
    born_probabilities,
    born_rule,
    evolve_pure,
    matrix_from_pairs,
    matrix_to_pairs,
    max_dim,
    pauli_z_diagonal,
    pauli_z_generators,
    seminorm,
    tensor,
)
from .protocols import (
    Branch,
    BranchStack,
    Protocol,
    SignString,
    ZooAmplitudes,
    bloch_protocol,
    branch_distribution,
    corner_protocol,
    hyperedge_protocol,
    hyperface_protocol,
    kissing_residual,
    mixture,
    optimal_protocol,
    parity_eigenvalue,
    parity_operator,
    protocol_fisher,
    zoo_protocol,
)
from .qfisher import (
    ChainReport,
    SldResult,
    bloch_direction_grid,
    classical_fisher,
    qfi_from_sld,
    qfi_pure,
    sld,
    verify_chain,
)
from .simulate import (
    apportion_shots,
    branch_rng,
    debias,
    fit_bias_correction,
    fit_bias_polynomial,
    report,
    sample_estimates,
)
from .tangent import (
    CanonicalForm,
    FisherMatrix,
    OneForm,
    TangentVector,
    canonicalize,
    fisher_dual,
    pair,
)

__version__ = "0.1.0"
