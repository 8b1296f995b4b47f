"""Generalized and correlated reduction of bipartite quantum states.

The package provides the composite index layout, partial trace and
contraction kernel of bipartite systems (``matrixcore``), validated density
operators and special states (``states``), the family of reduction
algorithms including the correlated fixed-point iteration (``reduction``),
hidden-ensemble decompositions of entangled states (``ensembles``), two
exactly soluble reference models (``models``) and a CLI front end
(``corred`` console script).

``import corred`` loads no submodule. Each public name, and each submodule
by its own name, is imported from its submodule on first use and then held
here (PEP 562), so a program, or a CLI command, compiles and runs only the
modules that it uses.
"""

import importlib as _importlib

#: Each submodule and the public names that it defines.
_NAMES = {
    "errors": (
        "CorredError", "DegenerateOverlap", "DimensionMismatch", "IndexOutOfRange",
        "NonPositiveTemperature", "NotConverged", "NotHermitian", "NotNonnegative",
        "TieUndefined", "ValidationError", "ZeroTrace",
    ),
    "matrixcore": ("BipartiteSystem", "matrix_from_json", "matrix_to_json", "partial_trace"),
    "states": (
        "DensityMatrix", "Observable", "epr_state", "minimum_information_state",
        "projector_state", "spin_pair_initial", "state_from_observable", "thermal_state",
        "triplet_state",
    ),
    "reduction": (
        "CorrelatorBreakdown", "ReductionResult", "conditioned_reduce", "correlated_mean_pair",
        "correlated_reduce", "correlator", "mean_value", "neumann_reduce", "projective_reduce",
        "replacement_operator",
    ),
    "ensembles": (
        "Ensemble", "EnsembleTerm", "VerificationReport", "assemble", "diagonal_statistics",
        "epr_decomposition", "spin_pair_initial_decomposition",
        "spin_pair_reduced_decomposition", "triplet_decomposition", "verify_ensemble",
    ),
    "models": (
        "JcmParams", "SpinPairParams", "jcm_correlated_limit", "jcm_system",
        "jcm_vacuum_amplitudes", "jcm_vacuum_density", "spin_pair_amplitudes",
        "spin_pair_density", "spin_pair_evolution",
    ),
}
#: Each public name and the submodule that defines it.
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = [*_NAMES, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _NAMES:
        value = _importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
