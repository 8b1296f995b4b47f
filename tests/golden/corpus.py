"""The committed output corpus of ``corred``: small command lines, their
configs and state files, and the stdout, stderr and exit code each gives.

``CASES`` names each case's argv and, for ``run``, its config. In both,
"{dir}" stands for a scratch directory that holds the config and a copy of
the state files in ``states/``; in the recorded output it stands for that
directory again. ``record`` runs a case in process and returns (exit code,
stdout, stderr).

    PYTHONPATH=src python tests/golden/corpus.py

writes the state files that are missing and each case's ``<name>.out`` and
``<name>.err``, and the exit codes in ``codes.json``, from the code on the
path, and deletes the ``.out`` and ``.err`` files of cases that ``CASES``
no longer names. ``tests/test_golden.py`` runs every case and compares.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from corred import cli
from corred.states import DensityMatrix, epr_state

HERE = Path(__file__).resolve().parent
STATES = HERE / "states"

GRID = {"start": 0.0, "stop": 10.0, "steps": 20}
# A grid of 40 points: chunks of 32 and 8 at cli.CHUNK = 32, of 16, 16 and 8 at 16.
GRID_40 = {"start": 0.0, "stop": 10.0, "steps": 40}
CONSTANT_GRID = {"start": 0.0, "stop": 1.0, "steps": 3}
# Per experiment: its params, its time grid, and its conditioning state on
# the beta side (dim_beta levels).
EXPERIMENTS = {
    "epr": ({}, CONSTANT_GRID, "sigma2"),
    "spin_pair": ({"omega": 1.1, "j": 0.3, "c": 0.5, "d": 0.2, "phi": 0.4}, GRID, "sigma2"),
    "jcm_vacuum": ({"omega": 1.0, "rabi": 1.3, "n_max": 3}, GRID, "sigma4"),
    "custom": ({"state": "{dir}/custom23.json", "dims": [2, 3]}, CONSTANT_GRID, "sigma3"),
}
METHODS = {
    "neumann": {"method": "neumann"},
    "projective": {"method": "projective", "level": 1},
    "conditioned": {"method": "conditioned", "state": "{dir}/%s.json"},
    "correlated": {"method": "correlated", "tol": 1e-12, "max_iter": 10000},
}


def _run_cases() -> dict:
    cases = {}
    for experiment, (params, grid, sigma) in EXPERIMENTS.items():
        for method, rcfg in METHODS.items():
            rcfg = {k: v % sigma if k == "state" else v for k, v in rcfg.items()}
            for fmt in ("csv", "json"):
                cfg = {"experiment": experiment, "params": params, "time_grid": grid,
                       "reduction": rcfg, "output": {"format": fmt}}
                cases[f"run-{experiment}-{method}-{fmt}"] = (cfg, None)
    return cases


def _jcm(reduction: dict, grid: dict = GRID, n_max: int = 3) -> dict:
    return {"experiment": "jcm_vacuum", "params": {"n_max": n_max}, "time_grid": grid,
            "reduction": reduction}


RUN_CASES = {
    **_run_cases(),
    "run-readme-20-steps": (_jcm({"method": "correlated", "tol": 1e-12, "max_iter": 10000},
                                 {"start": 0.0, "stop": 10.0, "steps": 20}, 16), None),
    # Grids that span several chunks of cli.CHUNK points, the last one short.
    "run-readme-40-steps": (_jcm({"method": "correlated", "tol": 1e-12, "max_iter": 10000},
                                 GRID_40, 16), None),
    "run-spin-pair-40-steps": ({"experiment": "spin_pair", "params": EXPERIMENTS["spin_pair"][0],
                                "time_grid": GRID_40, "reduction": {"method": "correlated"}}, None),
    # A state that does not change, its one row written across chunks.
    **{f"run-{experiment}-40-steps-{fmt}": (
        {"experiment": experiment, "params": EXPERIMENTS[experiment][0], "time_grid": GRID_40,
         "reduction": {"method": "correlated"}, "output": {"format": fmt}}, None)
       for experiment in ("epr", "custom") for fmt in ("csv", "json")},
    # Wide rows, every field population off the 2 x 2 block a literal 0.
    "run-jcm-n64-neumann-csv": (_jcm({"method": "neumann"}, GRID, 64), None),
    "run-jcm-file-seed": (_jcm({"method": "correlated", "seed": "file:{dir}/sigma2.json"}), None),
    "run-jcm-conditioned-alpha": (_jcm({"method": "conditioned", "state": "{dir}/sigma2.json",
                                        "given_side": "alpha"}), None),
    # t = pi / 2, an exact tie of the step limit, and points 1e-8 from it.
    "run-jcm-tie": (_jcm({"method": "correlated"},
                         {"start": 0.0, "stop": 3.141592653589793, "steps": 3}), None),
    "run-jcm-near-tie": (_jcm({"method": "correlated"},
                              {"start": 1.5707963167948966, "stop": 1.5707963367948966,
                               "steps": 3}), None),
    "run-spin-pair-defaults": ({"experiment": "spin_pair"}, None),
    # Blocks with an all-zero row or column: the JCM vacuum at t = 0 alone,
    # Psi = [[0, 1], [0, 0]] at every t of the spin pair at default params.
    **{f"run-jcm-t0-{name}": ({"experiment": "jcm_vacuum", "params": {"n_max": 3},
                              "reduction": rcfg}, None)
       for name, rcfg in (("correlated", {"method": "correlated"}),
                          ("projective", {"method": "projective", "level": 1}),
                          ("conditioned-alpha", {"method": "conditioned", "given_side": "alpha",
                                                 "state": "{dir}/sigma2.json"}))},
    "run-spin-pair-defaults-correlated": ({"experiment": "spin_pair", "time_grid": GRID,
                                           "reduction": {"method": "correlated"}}, None),
    "run-spin-pair-defaults-file-seed": ({"experiment": "spin_pair", "time_grid": GRID,
                                          "reduction": {"method": "correlated",
                                                        "seed": "file:{dir}/sigma2.json"}}, None),
    "run-format-flag": ({"experiment": "epr", "output": {"format": "csv"}}, ["--format", "json"]),
    # A phase that overflows at t = 2, inside the first chunk.
    "run-spin-pair-overflow": ({"experiment": "spin_pair", "params": {"c": 1e308},
                                "time_grid": {"start": 0, "stop": 10, "steps": 11}}, None),
}
# JSON twins of CSV cases: long zero runs, a point reduced alone inside a
# chunk, a partial document after a nonzero exit, and a chunk boundary.
RUN_CASES |= {
    f"{name.removesuffix('-csv')}-json": ({**RUN_CASES[name][0], "output": {"format": "json"}}, None)
    for name in ("run-jcm-n64-neumann-csv", "run-jcm-tie", "run-spin-pair-overflow",
                 "run-readme-40-steps")
}

# Configs that exit 2 before any row is written.
REFUSED_CONFIGS = {
    "refused-config-list": [1, 2],
    "refused-experiment-unknown": {"experiment": "nope"},
    "refused-experiment-missing": {},
    "refused-params-list": {"experiment": "spin_pair", "params": [1, 2]},
    "refused-time-grid-list": {"experiment": "spin_pair", "time_grid": [1]},
    "refused-output-list": {"experiment": "epr", "output": [1]},
    "refused-reduction-list": {"experiment": "epr", "reduction": []},
    "refused-grid-key-missing": {"experiment": "epr", "time_grid": {"stop": 1, "steps": 2}},
    "refused-steps-zero": {"experiment": "epr", "time_grid": {"start": 0, "stop": 1, "steps": 0}},
    "refused-steps-fractional": {"experiment": "epr",
                                 "time_grid": {"start": 0, "stop": 1, "steps": 3.7}},
    "refused-stop-before-start": {"experiment": "epr",
                                  "time_grid": {"start": 1, "stop": 0, "steps": 2}},
    "refused-n-max-fractional": {"experiment": "jcm_vacuum", "params": {"n_max": 2.9}},
    "refused-n-max-null": {"experiment": "jcm_vacuum", "params": {"n_max": None}},
    "refused-c-string": {"experiment": "spin_pair", "params": {"c": "0.5"}},
    "refused-custom-state-missing": {"experiment": "custom", "params": {"dims": [2, 3]}},
    "refused-custom-dims-missing": {"experiment": "custom",
                                    "params": {"state": "{dir}/custom23.json"}},
    "refused-custom-dims-short": {"experiment": "custom",
                                  "params": {"state": "{dir}/custom23.json", "dims": [6]}},
    "refused-custom-dims-mismatch": {"experiment": "custom",
                                     "params": {"state": "{dir}/custom23.json", "dims": [3, 3]}},
    "refused-method-unknown": {"experiment": "epr", "reduction": {"method": "bogus"}},
    "refused-reduction-key-unknown": {"experiment": "epr",
                                      "reduction": {"method": "correlated", "max_iters": 5}},
    "refused-level-missing": {"experiment": "epr", "reduction": {"method": "projective"}},
    "refused-level-null": {"experiment": "epr",
                           "reduction": {"method": "projective", "level": None}},
    "refused-level-out-of-range": _jcm({"method": "projective", "level": 5}),
    "refused-state-missing": {"experiment": "epr", "reduction": {"method": "conditioned"}},
    "refused-state-shape": _jcm({"method": "conditioned", "state": "{dir}/sigma2.json"}),
    "refused-given-side": {"experiment": "epr",
                           "reduction": {"method": "conditioned", "state": "{dir}/sigma2.json",
                                         "given_side": "gamma"}},
    "refused-seed-string": {"experiment": "epr",
                            "reduction": {"method": "correlated", "seed": "partial"}},
    "refused-seed-null": {"experiment": "epr", "reduction": {"method": "correlated", "seed": None}},
    "refused-seed-shape": _jcm({"method": "correlated", "seed": "file:{dir}/sigma4.json"}),
    "refused-tol-negative": {"experiment": "epr", "reduction": {"method": "correlated", "tol": -1}},
    "refused-max-iter-zero": {"experiment": "epr",
                              "reduction": {"method": "correlated", "max_iter": 0}},
    "refused-format-unknown": {"experiment": "epr", "output": {"format": "xml"}},
    "refused-format-null": {"experiment": "epr", "output": {"format": None}},
    "refused-path-not-string": {"experiment": "epr", "output": {"path": 1}},
}

REDUCE = ["reduce", "{dir}/epr.json", "--dims", "2", "2"]
CUSTOM = ["reduce", "{dir}/custom23.json", "--dims", "2", "3"]
ARGV_CASES = {
    "reduce-epr-neumann": [*REDUCE],
    "reduce-epr-projective": [*REDUCE, "--method", "projective", "--level", "1"],
    "reduce-epr-conditioned": [*REDUCE, "--method", "conditioned", "--sigma", "{dir}/sigma2.json"],
    "reduce-epr-conditioned-alpha": [*REDUCE, "--method", "conditioned", "--sigma",
                                     "{dir}/sigma2.json", "--given-side", "alpha"],
    "reduce-epr-correlated": [*REDUCE, "--method", "correlated"],
    "reduce-custom-neumann": [*CUSTOM],
    "reduce-custom-projective": [*CUSTOM, "--method", "projective"],
    "reduce-custom-conditioned": [*CUSTOM, "--method", "conditioned", "--sigma", "{dir}/sigma3.json"],
    "reduce-custom-correlated": [*CUSTOM, "--method", "correlated", "--tol", "1e-10",
                                 "--max-iter", "500"],
    "reduce-custom-file-seed": [*CUSTOM, "--method", "correlated", "--seed",
                                "file:{dir}/sigma2.json"],
    # An overlap denominator of 1e-12, which the result's warnings report.
    "reduce-projective-near-degenerate": ["reduce", "{dir}/near-degenerate23.json", "--dims", "2",
                                          "3", "--method", "projective", "--level", "2"],
    # Flags of other methods are ignored.
    "reduce-custom-neumann-other-flags": [*CUSTOM, "--tol", "0", "--level", "7",
                                          "--given-side", "alpha"],
    "reduce-refused-tol-zero": [*CUSTOM, "--method", "correlated", "--tol", "0"],
    "reduce-refused-tol-nan": [*CUSTOM, "--method", "correlated", "--tol", "nan"],
    "reduce-refused-max-iter-zero": [*CUSTOM, "--method", "correlated", "--max-iter", "0"],
    "reduce-refused-no-sigma": [*CUSTOM, "--method", "conditioned"],
    "reduce-refused-seed": [*CUSTOM, "--method", "correlated", "--seed", "partial"],
    "reduce-refused-level": [*CUSTOM, "--method", "projective", "--level", "3"],
    "reduce-refused-dims-zero-alpha": ["reduce", "{dir}/epr.json", "--dims", "0", "4"],
    "reduce-refused-dims-zero-beta": ["reduce", "{dir}/epr.json", "--dims", "4", "0"],
    "reduce-refused-dims-negative-alpha": ["reduce", "{dir}/epr.json", "--dims", "-1", "4"],
    # State files that parse but hold no state, as the state, sigma or seed.
    "reduce-refused-entry-not-pair": ["reduce", "{dir}/entry-not-pair.json", "--dims", "2", "2"],
    "reduce-refused-not-square": ["reduce", "{dir}/not-square.json", "--dims", "2", "2"],
    "reduce-refused-sigma-not-hermitian": [*REDUCE, "--method", "conditioned", "--sigma",
                                           "{dir}/not-hermitian.json"],
    "reduce-refused-seed-not-hermitian": [*REDUCE, "--method", "correlated", "--seed",
                                          "file:{dir}/not-hermitian.json"],
    "validate-refused-entry-not-pair": ["validate", "{dir}/entry-not-pair.json"],
    "validate-refused-not-square": ["validate", "{dir}/not-square.json"],
    "validate-refused-not-hermitian": ["validate", "{dir}/not-hermitian.json"],
    # A level that is neither "strict" nor "relaxed", which reduce refuses too.
    "validate-refused-bogus-level": ["validate", "{dir}/bogus-level.json"],
    "validate-custom": ["validate", "{dir}/custom23.json"],
    "decompose-epr": ["decompose", "epr", "--theta", "0.3"],
    "decompose-triplet": ["decompose", "triplet", "--theta", "0.7"],
    # Away from |tan(phi)| = 1 the two-term approximation misses: exit 3.
    "decompose-spin-pair-initial": ["decompose", "spin_pair_initial", "--phi", "0.3",
                                    "--theta", "0.2"],
    "decompose-spin-pair-t": ["decompose", "spin_pair_t", "--phi", "0.3", "--c", "0.7", "--t", "0.4"],
    "decompose-spin-pair-t-report-only": ["decompose", "spin_pair_t", "--phi", "0.3", "--c", "0.7",
                                          "--t", "0.4", "--report-only"],
    # cos(2 c t) = 6e-17 at c t = pi / 4: the branch tie.
    "decompose-spin-pair-t-tie": ["decompose", "spin_pair_t", "--c", "1", "--t",
                                  "0.7853981633974483"],
    # argparse's usage errors: its usage text and one "error:" line.
    "usage-unknown-flag": ["validate", "{dir}/epr.json", "--bogus"],
    "usage-run-without-config": ["run"],
    "usage-method-choice": [*REDUCE, "--method", "bogus"],
    # The help text of corred and of each command, at 80 columns.
    "help": ["--help"],
    **{f"help-{command}": [command, "--help"] for command in cli.COMMANDS},
}

#: name -> (config or None, argv)
CASES = {
    **{name: (cfg, ["run", "--config", "{dir}/config.json", *(extra or [])])
       for name, (cfg, extra) in RUN_CASES.items()},
    **{name: (cfg, ["run", "--config", "{dir}/config.json"])
       for name, cfg in REFUSED_CONFIGS.items()},
    **{name: (None, argv) for name, argv in ARGV_CASES.items()},
}


def _states() -> dict:
    """The state files of the corpus: states as ``DensityMatrix.to_json``
    writes them, one with beta level 2 at 1e-12, three files that parse but
    hold no state, and a state with an unknown validation level."""
    rng = np.random.default_rng(26)

    def wishart(n):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = g @ g.conj().T
        return DensityMatrix(m / np.trace(m).real).to_json()

    half = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
    return {"epr": epr_state().to_json(), "sigma2": wishart(2), "sigma3": wishart(3),
            "sigma4": wishart(4), "custom23": wishart(6),
            "near-degenerate23": DensityMatrix(np.diag([1 - 1e-12, 0, 1e-12, 0, 0, 0])).to_json(),
            "entry-not-pair": {"rows": 2, "cols": 2, "data": [*half[:3], [0.5]]},
            "not-square": {"rows": 1, "cols": 4, "data": half},
            "not-hermitian": {"rows": 2, "cols": 2, "data": [half[0], [0.25, 0.0], *half[2:]]},
            "bogus-level": {**epr_state().to_json(), "validation": "bogus"}}


def record(name: str, workdir: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of case ``name`` run in process in
    ``workdir``, with the path of ``workdir`` written "{dir}". argparse wraps
    its usage text at the terminal width, which is fixed at 80 columns."""
    cfg, argv = CASES[name]
    for path in STATES.glob("*.json"):
        shutil.copy(path, workdir / path.name)
    here = str(workdir)
    if cfg is not None:
        (workdir / "config.json").write_text(json.dumps(cfg).replace("{dir}", here))
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.dict(os.environ, COLUMNS="80")):
        try:
            code = cli.main([arg.replace("{dir}", here) for arg in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue().replace(here, "{dir}"), err.getvalue().replace(here, "{dir}")


def main() -> None:
    STATES.mkdir(exist_ok=True)
    for name, obj in _states().items():
        path = STATES / f"{name}.json"
        if not path.exists():
            path.write_text(json.dumps(obj))
    codes = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = record(name, Path(tmp))
        codes[name] = code
        (HERE / f"{name}.out").write_text(out)
        (HERE / f"{name}.err").write_text(err)
    (HERE / "codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    for path in orphans():
        path.unlink()


def openblas_config() -> list[str]:
    """"<library>: <config string>" of each OpenBLAS that numpy bundles. The
    config string names the core type whose kernels run (SkylakeX, Haswell,
    ...), which decides the last bits of most cases; numpy.show_runtime()
    does not name it without threadpoolctl."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    found = []
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                found.append(f"{os.path.basename(path)}: {getattr(lib, name)().decode()}")
                break
    return found


def orphans() -> list[Path]:
    """The ``.out`` and ``.err`` files of no case in ``CASES``."""
    return sorted(path for path in [*HERE.glob("*.out"), *HERE.glob("*.err")]
                  if path.stem not in CASES)


if __name__ == "__main__":
    main()
