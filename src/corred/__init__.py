"""Generalized and correlated reduction of bipartite quantum states.

The package provides the composite index layout, partial trace and
contraction kernel of bipartite systems (``matrixcore``), validated density
operators and special states (``states``), the family of reduction
algorithms including the correlated fixed-point iteration (``reduction``),
hidden-ensemble decompositions of entangled states (``ensembles``), two
exactly soluble reference models (``models``) and a CLI front end
(``corred`` console script).
"""

from .errors import (
    CorredError,
    DegenerateOverlap,
    DimensionMismatch,
    IndexOutOfRange,
    NonPositiveTemperature,
    NotConverged,
    NotHermitian,
    NotNonnegative,
    TieUndefined,
    ValidationError,
    ZeroTrace,
)
from .matrixcore import (
    BipartiteSystem,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
)
from .states import (
    DensityMatrix,
    Observable,
    epr_state,
    minimum_information_state,
    projector_state,
    spin_pair_initial,
    state_from_observable,
    thermal_state,
    triplet_state,
)
from .reduction import (
    CorrelatorBreakdown,
    ReductionResult,
    conditioned_reduce,
    correlated_mean_pair,
    correlated_reduce,
    correlator,
    mean_value,
    neumann_reduce,
    projective_reduce,
    replacement_operator,
)
from .ensembles import (
    Ensemble,
    EnsembleTerm,
    VerificationReport,
    assemble,
    diagonal_statistics,
    epr_decomposition,
    spin_pair_initial_decomposition,
    spin_pair_reduced_decomposition,
    triplet_decomposition,
    verify_ensemble,
)
from .models import (
    JcmParams,
    SpinPairParams,
    jcm_correlated_limit,
    jcm_system,
    jcm_vacuum_amplitudes,
    jcm_vacuum_density,
    spin_pair_amplitudes,
    spin_pair_density,
    spin_pair_evolution,
)

__version__ = "0.1.0"
