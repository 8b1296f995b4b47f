import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def fresh(script: str, *args: str, cwd=None) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports corred
    from this checkout."""
    src = str(Path(corred.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          check=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return proc.stdout


def test_public_names_are_pinned():
    # A fresh interpreter, so that submodules other tests import (corred.cli)
    # do not show up as attributes of the package.
    script = "import corred; print(*sorted(n for n in dir(corred) if not n.startswith('_')))"
    assert fresh(script).split() == sorted(PUBLIC_NAMES)


# Each public name, reached first by attribute or by "from corred import",
# is the object that its defining submodule holds under that name; each
# submodule name is that submodule.
RESOLVES = """
import sys
import corred
for name in sys.argv[2:]:
    if sys.argv[1] == "from":
        exec(f"from corred import {name} as got")
    else:
        got = getattr(corred, name)
    module = sys.modules.get(f"corred.{name}")
    assert got is (module or getattr(sys.modules[got.__module__], name)), name
    assert got is getattr(corred, name), name
print("ok")
"""


@pytest.mark.parametrize("how", ["attribute", "from"])
def test_every_public_name_resolves_to_its_submodules_object(how):
    assert fresh(RESOLVES, how, *PUBLIC_NAMES) == "ok\n"


def test_star_import_binds_every_pinned_name():
    script = "from corred import *; print(*sorted(n for n in dir() if not n.startswith('_')))"
    assert fresh(script).split() == sorted(PUBLIC_NAMES)


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'corred' has no attribute 'no_such_name'"):
        corred.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from corred import no_such_name  # noqa: F401


# Runs one command line through cli.main and prints its exit code and the
# corred modules that the process then holds.
LOADED = """
import contextlib, io, json, sys
import corred
if sys.argv[1:]:
    from corred import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("corred"))]))
"""
ALL_MODULES = ["corred", *(f"corred.{name}" for name in ("cli", "ensembles", "errors",
                                                         "matrixcore", "models", "reduction",
                                                         "states"))]


#: Command lines (run in a directory that holds state.json and config.json)
#: and the corred modules that each leaves unloaded.
UNLOADED = {
    "import corred": ([], ALL_MODULES[1:]),
    "reduce": (["reduce", "state.json", "--dims", "2", "2", "--method", "correlated"],
               ["corred.ensembles", "corred.models"]),
    "validate": (["validate", "state.json"], ["corred.ensembles", "corred.models"]),
    "run": (["run", "--config", "config.json"], ["corred.ensembles"]),
    "decompose": (["decompose", "spin_pair_t", "--t", "0.5", "--report-only"], []),
}


@pytest.mark.parametrize("argv, unloaded", UNLOADED.values(), ids=UNLOADED)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unloaded):
    # The console script enters through corred.cli, and a submodule that the
    # command does not run is never compiled.
    (tmp_path / "state.json").write_text(json.dumps(corred.projector_state(4, 1).to_json()))
    (tmp_path / "config.json").write_text(json.dumps({
        "experiment": "jcm_vacuum", "params": {"n_max": 2},
        "time_grid": {"start": 0.0, "stop": 1.0, "steps": 3},
        "reduction": {"method": "correlated"}}))
    code, loaded = json.loads(fresh(LOADED, *argv, cwd=tmp_path))
    assert code == 0
    assert sorted(set(ALL_MODULES) - set(loaded)) == unloaded


EPR, PAIR = corred.epr_state().matrix, corred.BipartiteSystem(2, 2)
SKEW = np.array([[0.0, 1.0], [0.0, 0.0]])  # not hermitian
HALF = np.eye(2) / 2


def _ensemble(*terms):
    return corred.Ensemble(terms=tuple(corred.EnsembleTerm(*term) for term in terms), system=PAIR)


# A public call on an argument it refuses, the error it raises and the start
# of its message.
REFUSALS = {
    "max_iter-0": (lambda: corred.correlated_reduce(EPR, PAIR, max_iter=0),
                   ValueError, "max_iter must be >= 1, got 0"),
    # No sweep would run, and the verdict would read a residual of none.
    "max_iter-nan": (lambda: corred.correlated_reduce(EPR, PAIR, max_iter=float("nan")),
                     ValueError, "max_iter must be >= 1, got nan"),
    # 2.5 would run 3 sweeps.
    "max_iter-2.5": (lambda: corred.correlated_reduce(EPR, PAIR, max_iter=2.5),
                     ValueError, "max_iter must be an integer, got 2.5"),
    # inf times the zero gap of the EPR tie would be nan.
    "tol-inf": (lambda: corred.correlated_reduce(EPR, PAIR, tol=float("inf")),
                ValueError, "tol must be finite, got inf"),
    "tol-nan": (lambda: corred.correlated_reduce(EPR, PAIR, tol=float("nan")),
                ValueError, "tol must be > 0, got nan"),
    # Each would fail later, at the first reshape or array of that size.
    "dims-2.0": (lambda: corred.BipartiteSystem(2.0, 2), corred.DimensionMismatch,
                 "subsystem dimensions must be integers, got (2.0, 2)"),
    "dims-nan": (lambda: corred.BipartiteSystem(float("nan"), 2), corred.DimensionMismatch,
                 "subsystem dimensions must be integers, got (nan, 2)"),
    "n_max-2.5": (lambda: corred.JcmParams(1.0, 1.0, 2.5),
                  corred.DimensionMismatch, "n_max must be an integer, got 2.5"),
    "given_side-gamma": (lambda: corred.conditioned_reduce(EPR, PAIR, HALF, "gamma"),
                         ValueError, "given_side must be 'alpha' or 'beta', got 'gamma'"),
    "given_side-gamma-3x3": (lambda: corred.conditioned_reduce(EPR, PAIR, np.eye(3) / 3, "gamma"),
                             ValueError, "given_side must be 'alpha' or 'beta', got 'gamma'"),
    # np.arange(2) == 1.5 would be a zero projector: a degenerate overlap.
    "level-1.5": (lambda: corred.projective_reduce(EPR, PAIR, 1.5),
                  corred.IndexOutOfRange, "level 1.5 is not an integer"),
    # A model's one-point block (1, r, c) is no composite state of the system.
    "block-neumann": (lambda: corred.neumann_reduce(np.array([[[0.0, 1.0]]]), PAIR),
                      corred.DimensionMismatch, "expected a 2-D matrix, got ndim=3"),
    "block-correlated": (lambda: corred.correlated_reduce(np.array([[[1.0, 0.0]]]), PAIR),
                         corred.DimensionMismatch, "expected a 2-D matrix, got ndim=3"),
    "block-correlated-seed": (lambda: corred.correlated_reduce(np.array([[[1.0, 0.0]]]), PAIR,
                                                               seed=np.diag([0.0, 1.0])),
                              corred.DimensionMismatch, "expected a 2-D matrix, got ndim=3"),
    "observed-gamma": (lambda: corred.replacement_operator(EPR, PAIR, observed="gamma"),
                       ValueError, "observed must be 'alpha' or 'beta', got 'gamma'"),
    "over-gamma": (lambda: corred.partial_trace(EPR, PAIR, over="gamma"),
                   ValueError, "over must be 'alpha' or 'beta', got 'gamma'"),
    "dimension-0": (lambda: corred.minimum_information_state(0),
                    corred.IndexOutOfRange, "dimension must be >= 1, got 0"),
    "observable-not-hermitian": (lambda: corred.Observable(SKEW, "a"),
                                 corred.NotHermitian, "observable 'a' is not hermitian"),
    "operator-not-hermitian": (lambda: corred.state_from_observable(SKEW),
                               corred.NotHermitian, "operator is not hermitian"),
    "negative-weight": (lambda: _ensemble((1.5, HALF, HALF), (-0.5, HALF, HALF)),
                        ValueError, "negative weight -0.5"),
    "term-shape": (lambda: _ensemble((1.0, np.eye(3) / 3, HALF)),
                   corred.DimensionMismatch, "term shape (3, 3) vs dimension 2"),
    "target-size": (lambda: corred.verify_ensemble(corred.epr_decomposition(0.0), HALF),
                    corred.DimensionMismatch, "target shape (2, 2) vs composite dim 4"),
    # Refused before any array is made: 2 * 10**18 complex entries.
    "n_max-1e18": (lambda: corred.jcm_vacuum_amplitudes(corred.JcmParams(1.0, 1.0, 10**18), 0.5),
                   corred.ValidationError, "n_max=1000000000000000000 is too large: "),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_a_public_call_refuses_a_bad_argument(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("level", [1, 1.0, np.int64(1)], ids=["int", "float", "int64"])
def test_an_integral_level_of_any_type_is_the_level(level):
    got, want = corred.projective_reduce(EPR, PAIR, level), corred.projective_reduce(EPR, PAIR, 1)
    assert got.rho_alpha.matrix.tobytes() == want.rho_alpha.matrix.tobytes()
    assert got.rho_beta.matrix.tobytes() == want.rho_beta.matrix.tobytes()


def test_integral_settings_of_any_type_are_taken():
    # max_iter 10.0 as 10, as an integral level is the level; numpy integers
    # as dimensions.
    got, want = (corred.correlated_reduce(EPR, PAIR, max_iter=n) for n in (10.0, 10))
    assert (got.verdict, got.iterations) == (want.verdict, want.iterations)
    assert got.rho_alpha.matrix.tobytes() == want.rho_alpha.matrix.tobytes()
    assert corred.BipartiteSystem(np.int64(2), np.int64(3)).dim == 6
    assert corred.jcm_system(corred.JcmParams(1.0, 1.0, np.int64(3))).dim == 8
