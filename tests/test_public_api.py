import subprocess
import sys
from pathlib import Path

import corred

# The names ``import corred`` exposes. Adding or removing one is a deliberate
# change to the public API, made by editing this list.
PUBLIC_NAMES = [
    "BipartiteSystem", "CorredError", "CorrelatorBreakdown", "DegenerateOverlap",
    "DensityMatrix", "DimensionMismatch", "Ensemble", "EnsembleTerm", "IndexOutOfRange",
    "JcmParams", "NonPositiveTemperature", "NotConverged", "NotHermitian", "NotNonnegative",
    "Observable", "ReductionResult", "SpinPairParams", "TieUndefined", "ValidationError",
    "VerificationReport", "ZeroTrace", "assemble", "conditioned_reduce",
    "correlated_mean_pair", "correlated_reduce", "correlator", "diagonal_statistics",
    "ensembles", "epr_decomposition", "epr_state", "errors", "jcm_correlated_limit",
    "jcm_system", "jcm_vacuum_amplitudes", "jcm_vacuum_density", "matrix_from_json",
    "matrix_to_json", "matrixcore", "mean_value", "minimum_information_state", "models",
    "neumann_reduce", "partial_trace", "projective_reduce", "projector_state", "reduction",
    "replacement_operator", "spin_pair_amplitudes", "spin_pair_density",
    "spin_pair_evolution", "spin_pair_initial", "spin_pair_initial_decomposition",
    "spin_pair_reduced_decomposition", "state_from_observable", "states", "thermal_state",
    "triplet_decomposition", "triplet_state", "verify_ensemble",
]


def test_public_names_are_pinned():
    # A fresh interpreter, so that submodules other tests import (corred.cli)
    # do not show up as attributes of the package.
    src = str(Path(corred.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import corred; print(*sorted(n for n in dir(corred) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True, cwd=src, timeout=60,
    )
    assert proc.stdout.split() == sorted(PUBLIC_NAMES)
