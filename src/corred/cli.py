"""Command-line front end.

Subcommands:

* ``run`` -- run a reproduction experiment from a JSON config and write a
  time series (CSV or JSON).
* ``reduce`` -- apply any reduction algorithm to a density-matrix file.
* ``decompose`` -- emit a hidden-ensemble decomposition plus verification.
* ``validate`` -- validate a density-matrix file.

All frequencies/energies are dimensionless (hbar = k_B = 1).

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 I/O error. Commands raise and ``main`` alone maps the error class to the
code, first match wins: ``OSError`` -> 4, ``DegenerateOverlap`` or
``TieUndefined`` -> 3, any other ``CorredError`` -> 2. Malformed JSON and
config values are raised as ``ValidationError``. The only codes a command
returns itself are 3 from ``decompose`` when verification misses and 2 from
``validate`` after its ``{"valid": false}`` report.

``run`` reads its whole config and opens its output before the time loop.
The ``reduction`` section takes only the keys in ``REDUCTION_KEYS``; an
unknown key and a correlated ``tol`` <= 0 are config errors.
Every reduction returns a ``ReductionResult``; its ``verdict`` and
``iterations`` fill the row's columns of the same name ("-" and 0 for the
one-shot methods), and a correlated ``file:`` seed is the starting alpha
state of every time point where the loop does not start at its closed form
(see ``reduction``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import ensembles, matrixcore as mc, models, reduction
from .errors import CorredError, DegenerateOverlap, DimensionMismatch, TieUndefined, ValidationError
from .matrixcore import BipartiteSystem
from .states import DensityMatrix, epr_state, spin_pair_initial, triplet_state

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Keys of the ``reduction`` config section, shared by ``run`` and ``reduce``.
REDUCTION_KEYS = ("method", "level", "state", "given_side", "tol", "max_iter", "seed")

log = logging.getLogger("corred")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _setup_logging() -> None:
    level = os.environ.get("CORRED_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))


def _load_json(path: str):
    if not isinstance(path, str):
        raise ValidationError(f"file path must be a string, got {path!r}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _section(cfg: dict, key: str, default: dict | None = None) -> dict:
    """The object-valued config section ``key``, ``default`` (or {}) when absent."""
    return _object(cfg.get(key, {} if default is None else default), key)


def _number(section: dict, key: str, default=None, kind=float):
    """``section[key]`` (or ``default``) read by ``_finite``."""
    return _finite(section.get(key, default), key, kind)


def _finite(value, key: str, kind=float):
    """``value`` of config key ``key`` as a finite float, or an integral one as an int.

    A JSON string or boolean is no number, though ``float`` would take it.
    """
    try:
        number = math.nan if isinstance(value, (str, bool)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ValidationError(f"{key} must be an integer, got {value!r}")
        return int(number)
    return number


def _load_density(path: str, validation: str | None = None) -> DensityMatrix:
    """The state in a state file, validated at its own level or at ``validation``."""
    obj = _object(_load_json(path), f"state file {path}")
    try:
        if validation is None:
            return DensityMatrix.from_json(obj)
        return DensityMatrix(mc.matrix_from_json(obj), validation=validation)
    except KeyError as exc:
        raise ValidationError(f"{path}: state file lacks key {exc}") from exc
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad state file: {exc}") from exc


# ---------------------------------------------------------------- run


def _time_grid(grid: dict) -> np.ndarray:
    start, stop = _number(grid, "start"), _number(grid, "stop")
    steps = _number(grid, "steps", kind=int)
    if steps < 1 or stop < start:
        raise ValidationError(f"bad time grid {grid}")
    return np.linspace(start, stop, steps)


def _state_factory(cfg: dict):
    """Returns (system, rho_of_t) for the configured experiment.

    The two models evolve pure states, so their rho_of_t gives the amplitude
    vector, which the reductions take in place of the N x N state.
    """
    experiment = cfg.get("experiment")
    params = _section(cfg, "params")
    if experiment == "epr":
        rho = epr_state()
        return BipartiteSystem(2, 2), lambda t: rho
    if experiment == "spin_pair":
        p = models.SpinPairParams(
            omega=_number(params, "omega", 1.0),
            j_coupling=_number(params, "j", 0.0),
            c_coupling=_number(params, "c", 0.0),
            d_coupling=_number(params, "d", 0.0),
        )
        phi = _number(params, "phi", 0.0)
        return models.SPIN_PAIR_SYSTEM, lambda t: models.spin_pair_amplitudes(p, phi, t)
    if experiment == "jcm_vacuum":
        p = models.JcmParams(
            omega=_number(params, "omega", 1.0),
            rabi=_number(params, "rabi", 1.0),
            n_max=_number(params, "n_max", 16, int),
        )
        return models.jcm_system(p), lambda t: models.jcm_vacuum_amplitudes(p, t)
    if experiment == "custom":
        rho = _load_density(params["state"])
        na, nb = (_finite(n, "dims", int) for n in params["dims"])
        return BipartiteSystem(na, nb), lambda t: rho
    raise ValidationError(f"unknown experiment {experiment!r}")


def _required(rcfg: dict, key: str):
    if rcfg.get(key) is None:
        raise ValidationError(f"reduction method {rcfg.get('method')!r} needs {key!r}")
    return rcfg[key]


def _reducer(rcfg: dict, sys_: BipartiteSystem):
    """Check a reduction config once and return the reduction it names.

    The returned function maps a state to a ReductionResult. State files
    named by the config are read here, once; the reduction itself checks
    their shapes against the system (DimensionMismatch).
    """
    for key in rcfg:
        if key not in REDUCTION_KEYS:
            raise ValidationError(f"unknown reduction key {key!r}")
    method = rcfg.get("method", "neumann")
    if method == "neumann":
        return lambda rho: reduction.neumann_reduce(rho, sys_)
    if method == "projective":
        _required(rcfg, "level")
        level = _number(rcfg, "level", kind=int)
        return lambda rho: reduction.projective_reduce(rho, sys_, level)
    if method == "conditioned":
        sigma = _load_density(_required(rcfg, "state"))
        given = rcfg.get("given_side", "beta")
        if given not in ("alpha", "beta"):
            raise ValidationError(f"given_side must be 'alpha' or 'beta', got {given!r}")
        return lambda rho: reduction.conditioned_reduce(rho, sys_, sigma, given)
    if method == "correlated":
        seed = rcfg.get("seed", "neumann")
        if isinstance(seed, str) and seed.startswith("file:"):
            seed = _load_density(seed[5:])
        elif seed == "neumann":
            seed = None
        else:
            raise ValidationError(f"seed must be 'neumann' or file:<path>, got {seed!r}")
        tol = _number(rcfg, "tol", 1e-12)
        max_iter = _number(rcfg, "max_iter", 10_000, int)
        if tol <= 0:
            raise ValidationError(f"tol must be > 0, got {tol!r}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")

        return lambda rho: reduction.correlated_reduce(rho, sys_, seed, tol=tol, max_iter=max_iter)
    raise ValidationError(f"unknown reduction method {method!r}")


def _max_coherence(m: np.ndarray) -> float:
    if m.shape[0] < 2:
        return 0.0
    off = np.abs(m)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def cmd_run(args) -> int:
    cfg = _object(_load_json(args.config), "config")
    try:
        grid = _section(cfg, "time_grid", {"start": 0.0, "stop": 0.0, "steps": 1})
        sys_, rho_of_t = _state_factory(cfg)
        ts = _time_grid(grid)
        reducer = _reducer(_section(cfg, "reduction"), sys_)
        out_cfg = _section(cfg, "output")
        fmt = args.format or out_cfg.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ValidationError(f"output.format must be 'csv' or 'json', got {fmt!r}")
        path = args.out or out_cfg.get("path")
        if path is not None and not isinstance(path, str):
            raise ValidationError(f"output.path must be a string, got {path!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad config: {exc!r}") from exc

    # Open the output first, so an unwritable path fails before the computation.
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        _write_series(_series(ts, rho_of_t, reducer), cfg, fmt, out)
    return 0


def _series(ts: np.ndarray, rho_of_t, reducer) -> list[dict]:
    """One output row per time point; points with a degenerate overlap are skipped."""
    rows = []
    for t in ts:
        rho = rho_of_t(float(t))
        try:
            res = reducer(rho)
        except DegenerateOverlap as exc:
            log.warning("t=%g: %s", t, exc)
            continue
        ra = res.rho_alpha.matrix
        row = {
            "t": float(t),
            "pop_alpha": ra.diagonal().real.tolist(),
            "coh_alpha": _max_coherence(ra),
            "reconstruction_error": res.reconstruction_error,
            "verdict": res.verdict,
            "iterations": res.iterations,
        }
        if res.rho_beta is not None:
            rb = res.rho_beta.matrix
            row["pop_beta"] = rb.diagonal().real.tolist()
            row["coh_beta"] = _max_coherence(rb)
        rows.append(row)

    if not rows:
        raise DegenerateOverlap("degenerate overlap at every time point")
    return rows


def _write_series(rows: list[dict], cfg: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump({"config": cfg, "rows": rows}, out, indent=2)
        out.write("\n")
        return
    na = len(rows[0]["pop_alpha"])
    nb = len(rows[0].get("pop_beta", []))
    header = (
        ["t"]
        + [f"pop_alpha_{i}" for i in range(na)]
        + [f"pop_beta_{i}" for i in range(nb)]
        + ["coh_alpha"]
        + (["coh_beta"] if nb else [])
        + ["reconstruction_error", "verdict", "iterations"]
    )
    out.write(f"# config: {json.dumps(cfg, sort_keys=True)}\n")
    out.write(",".join(header) + "\n")
    for r in rows:
        cells = [_fmt(r["t"])]
        cells += [_fmt(x) for x in r["pop_alpha"]]
        cells += [_fmt(x) for x in r.get("pop_beta", [])]
        cells.append(_fmt(r["coh_alpha"]))
        if nb:
            cells.append(_fmt(r["coh_beta"]))
        error = r["reconstruction_error"]
        cells += ["" if error is None else _fmt(error), str(r["verdict"]), str(r["iterations"])]
        out.write(",".join(cells) + "\n")


# ---------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    rho = _load_density(args.state)
    rcfg = {
        "method": args.method,
        "level": args.level,
        "state": args.sigma,
        "given_side": args.given_side,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "seed": args.seed,
    }
    out = _reducer(rcfg, BipartiteSystem(args.dims[0], args.dims[1]))(rho)
    print(json.dumps(out.to_json(), indent=2))
    return 0


# ---------------------------------------------------------------- decompose


def cmd_decompose(args) -> int:
    flags = ("theta", "phi", "c", "t", "omega", "tol")
    theta, phi, c, t, omega, tol = (_finite(getattr(args, f), f"--{f}") for f in flags)
    if tol <= 0:
        raise ValidationError(f"--tol must be > 0, got {tol!r}")
    if args.kind == "epr":
        ens = ensembles.epr_decomposition(theta)
        target = epr_state()
    elif args.kind == "triplet":
        ens = ensembles.triplet_decomposition(theta)
        target = triplet_state()
    elif args.kind == "spin_pair_initial":
        ens = ensembles.spin_pair_initial_decomposition(phi, theta)
        target = spin_pair_initial(phi)
    else:  # spin_pair_t
        ens = ensembles.spin_pair_reduced_decomposition(phi, c, t, theta)
        p = models.SpinPairParams(omega=omega, c_coupling=c)
        target = models.spin_pair_density(p, phi, t)

    report = ensembles.verify_ensemble(ens, target, tol=tol)
    obj = ens.to_json()
    obj["verification"] = {
        "max_error": report.max_error,
        "diagonal_error": report.diagonal_error,
        "coherence_error": report.coherence_error,
        "matches": report.matches,
        "tolerance": report.tolerance,
    }
    print(json.dumps(obj, indent=2))
    if args.report_only or report.matches:
        return 0
    return _fail(EXIT_NUMERICAL, f"verification error {report.max_error:g} above {tol:g}")


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    try:
        dm = _load_density(args.state, args.level)
    except ValidationError as exc:
        print(json.dumps({"valid": False, "reason": str(exc)}))
        return EXIT_CONFIG
    print(
        json.dumps(
            {
                "valid": True,
                "dim": dm.dim,
                "min_eigenvalue": dm.min_eigenvalue,
                "purity": dm.purity(),
            }
        )
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corred",
        description="Reduction algorithms for bipartite quantum states "
        "(dimensionless units, hbar = k_B = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config path")
    p_run.add_argument("--out", help="output file (default stdout)")
    p_run.add_argument("--format", choices=["csv", "json"], help="override output format")
    p_run.set_defaults(func=cmd_run)

    p_red = sub.add_parser("reduce", help="reduce a density-matrix file")
    p_red.add_argument("state", help="density matrix JSON file")
    p_red.add_argument("--dims", type=int, nargs=2, required=True, metavar=("NA", "NB"))
    p_red.add_argument(
        "--method",
        choices=["neumann", "projective", "conditioned", "correlated"],
        default="neumann",
    )
    p_red.add_argument("--level", type=int, default=0, help="projective level index")
    p_red.add_argument("--sigma", help="conditioning state file")
    p_red.add_argument("--given-side", choices=["alpha", "beta"], default="beta")
    p_red.add_argument("--tol", type=float, default=1e-12)
    p_red.add_argument("--max-iter", type=int, default=10_000)
    p_red.add_argument("--seed", default="neumann", help="'neumann' or file:<path>")
    p_red.set_defaults(func=cmd_reduce)

    p_dec = sub.add_parser("decompose", help="hidden-ensemble decomposition")
    p_dec.add_argument(
        "kind", choices=["epr", "triplet", "spin_pair_initial", "spin_pair_t"]
    )
    p_dec.add_argument("--theta", type=float, default=0.0, help="hidden phase")
    p_dec.add_argument("--phi", type=float, default=0.0, help="initial mixing angle")
    p_dec.add_argument("--c", type=float, default=1.0, help="flip-flop coupling")
    p_dec.add_argument("--t", type=float, default=0.0, help="time")
    p_dec.add_argument("--omega", type=float, default=1.0, help="Zeeman frequency")
    p_dec.add_argument("--tol", type=float, default=1e-10)
    p_dec.add_argument(
        "--report-only",
        action="store_true",
        help="exit 0 even when the assembled ensemble misses the target",
    )
    p_dec.set_defaults(func=cmd_decompose)

    p_val = sub.add_parser("validate", help="validate a density-matrix file")
    p_val.add_argument("state")
    p_val.add_argument("--level", choices=["strict", "relaxed"], default="strict")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except (DegenerateOverlap, TieUndefined) as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except CorredError as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
