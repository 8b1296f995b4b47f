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
``validate`` after its ``{"valid": false}`` report. A nonempty
``CORRED_LOG`` that names no level of ``LOG_LEVELS`` is a config error.

A command imports only the modules that it runs: ``models`` is imported
where ``run`` makes its state and by ``decompose``, and ``ensembles`` by
``decompose`` alone, so ``reduce`` and ``validate`` compile neither.

``run`` reads its whole config and opens its output before the time loop.
It then holds one chunk of ``CHUNK`` time points at a time, and makes each
chunk's t values as ``np.linspace`` makes them, so memory does not grow
with ``steps``. A model makes a chunk's amplitude matrices in one call, on
the leading levels that can hold its state (a 2 x 2 block for the JCM
vacuum at any n_max), and the stacked kernels (``reduction.reduce_stack``)
reduce the chunk on those levels, so a chunk holds nothing of size K x N.
A point the stack does not settle is made as its own one-point block, on
the same levels, and reduced alone by the one entry of the reductions
(``reduction._reduce_one``, with the public semantics), its result a stack
of one; no whole vector is made. A reduction setting that does not fit the
system (a projective level, the shape of a conditioning state or of a
seed) is a config error before the output is opened, and so is a model's
phase that overflows at any t of the grid (``_refuse_overflow``). A state
that does not change (``epr``, ``custom``) is reduced once, at the first t,
by the same entry, its warnings logged once, and its row is written at
every t. The rows reach the writer as pieces (points, stack): a run of a
chunk's stack, a point reduced alone, or the one reduced state. A row, a
CSV line or a JSON row object, is formatted from one template made per
stack, whose populations on the levels that the stack's reduced states
leave out are literal text ("0" or "0.0"), so no row holds a list of N
populations; the chunk's states are freed before the next chunk is made.
Once the output is open, only a degenerate overlap at every point (no row)
and an I/O error can fail the run; after an I/O error the output holds the
rows written before it.

Every config section is read through one table (``PARAMS`` by experiment,
``REDUCTION`` by method, ``SECTIONS`` for the rest), which holds each key's
kind and default: a key that it does not list for the chosen experiment or
method, a missing key without a default and a value of the wrong kind are
config errors, raised before the output is opened, since a run that ignored
a misspelt key would quietly take the default it was meant to change.
``reduce`` passes the flags that its method reads through the same table.
Every reduction returns a ``ReductionResult``; its ``verdict`` and
``iterations`` fill the row's columns of the same name ("-" and 0 for the
one-shot methods), and a correlated ``file:`` seed is the starting alpha
state of every time point where the loop does not start at the top
operator-Schmidt pair, which on an N x N state is searched for from it
(see ``reduction``).

Indented JSON output (``reduce``, ``decompose``, ``run --format json``) is
byte for byte the stdlib's ``json.dumps`` with an indent of 2. ``reduce`` and
``decompose`` write through ``_dumps``, to which ``reduce`` hands the result's
matrices as arrays (``_matrix_block``); ``run`` writes its config through it
and each row from its stack's template (``_lines``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import itertools
import json
import logging
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from . import matrixcore as mc, reduction
from .errors import (CorredError, DegenerateOverlap, DimensionMismatch, IndexOutOfRange, TieUndefined,
                     ValidationError)
from .matrixcore import BipartiteSystem
from .states import DensityMatrix, _check_level, epr_state, spin_pair_initial, triplet_state

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Time points that ``run`` reduces together. numpy's fixed cost per call is
#: what a stack saves, while the kernels' temporaries grow with it, so a
#: larger chunk runs faster and peaks higher. The reconstruction error walks
#: a chunk in tiles of states (``reduction.ERROR_TILE_BYTES``), so the
#: correlated start, its outer product and its conditionings, sets the
#: peak: 64 points run the README config in about 0.8 of the time 32 took
#: and peak about 5 % below what 32 peaked before the tiles; 96 would peak
#: 7 to 26 % above that.
#: The measurements are in CHANGES.md, in its entry on chunks of 64 points.
CHUNK = 64

log = logging.getLogger("corred")


#: The values that ``CORRED_LOG`` takes, in any case, and their levels.
LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING,
              "error": logging.ERROR, "critical": logging.CRITICAL}


def _setup_logging() -> None:
    """The root logger at the level that ``CORRED_LOG`` names (unset or
    empty: error). Any other value is a config error."""
    value = os.environ.get("CORRED_LOG") or "error"
    if value.lower() not in LOG_LEVELS:
        _one_of(*LOG_LEVELS)(value, "CORRED_LOG")  # raises, naming the levels
    logging.basicConfig(level=LOG_LEVELS[value.lower()])


@contextlib.contextmanager
def _collector_paused():
    """The cyclic garbage collector off meanwhile, and back on after only if
    it was on, so pauses nest."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(path: str):
    """The JSON value in the file at ``path``, parsed with the cyclic garbage
    collector paused (``_load_density`` keeps it paused longer).

    A JSON value holds no reference cycle, so a collection during the parse
    would only walk the growing tree and free nothing. The file is read as
    UTF-8 whatever the locale; text that is not UTF-8 and text that is no
    JSON are a ``ValidationError``, and a file that cannot be opened raises
    ``OSError``.
    """
    with _collector_paused():
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


_encode_scalar = json.JSONEncoder().encode
_encode_key = json.encoder.encode_basestring_ascii


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps`` of ``obj`` with an indent of 2, byte for byte, for JSON values (str keys).

    A complex array in ``obj`` is written as the "data" of ``matrix_to_json``
    would be (``_matrix_block``), so ``_dumps(mc._matrix_fields(m))`` is
    ``json.dumps(mc.matrix_to_json(m), indent=2)``.

    CPython's C encoder ignores ``indent``, so the stdlib writes indented
    JSON in pure Python. Here every dict and list is walked in Python too,
    one frame per level, and each scalar is encoded as the stdlib encodes
    it. What is written is a checked config or a result, none nested more
    than a few levels deep; its matrices come as arrays, and its longest
    list, ``residuals``, holds one number per sweep.
    """
    if isinstance(obj, np.ndarray):
        return _matrix_block(obj, indent)
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{_encode_key(key)}: {_dumps(value, inner)}" for key, value in obj.items())
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join(_dumps(value, inner) for value in obj) + indent + "]"
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)  # what the C encoder writes, without its set-up
    return _encode_scalar(obj)  # another scalar, {} or []


def _matrix_block(m: np.ndarray, indent: str) -> str:
    """The "data" of ``matrix_to_json(m)`` as ``json.dumps(..., indent=2)``
    writes it at ``indent``, made from the complex array ``m`` with no
    [re, im] list.

    Each float is written as the stdlib writes it (``_floats``), once per
    distinct pair of a hermitian matrix: an entry below the diagonal whose
    real part has the bits of its mirror's and whose imaginary part has the
    bits of the mirror's negation, that is m[i, j] == conj(m[j, i]) bit for
    bit, takes the mirror's strings, the imaginary one with its leading "-"
    flipped. Every other entry (above or on the diagonal, not finite, not
    matched, or of a matrix that is not square) is written itself. The
    strings and the separators between them are laid out in one object
    array, row-major, and joined once.
    """
    m = np.ascontiguousarray(m)
    rows, cols = m.shape
    inner, cell = indent + "  ", indent + "    "
    parts = np.empty((rows, cols, 4), dtype=object)
    parts[..., 1] = "," + cell
    parts[..., 3] = f"{inner}],{inner}[{cell}"
    parts[-1, -1, 3] = f"{inner}]{indent}]"
    re, im = parts[..., 0], parts[..., 2]
    mirror = np.zeros(m.shape, dtype=bool)
    if rows == cols:
        same = m.view(np.uint64) == np.ascontiguousarray(m.conj().T).view(np.uint64)
        mirror = same.reshape(rows, cols, 2).all(-1) & np.isfinite(m) & np.tri(rows, k=-1, dtype=bool)
    own = ~mirror
    re[own] = _floats(m.real[own])
    im[own] = _floats(m.imag[own])
    i, j = np.nonzero(mirror)
    re[i, j] = re[j, i]
    im[i, j] = [s[1:] if s[0] == "-" else "-" + s for s in im[j, i]]
    return f"[{inner}[{cell}" + "".join(parts.ravel().tolist())


def _floats(x: np.ndarray) -> list[str]:
    """Each float of ``x`` as ``json.dumps`` writes it: its repr, or NaN, Infinity or -Infinity."""
    return list(map(float.__repr__ if np.isfinite(x).all() else _encode_scalar, x.tolist()))


def _fail(code: int, msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _finite(value, key: str) -> float:
    """``value`` of config key ``key`` as a finite float.

    A JSON string or boolean is no number, though ``float`` would take it.
    """
    try:
        number = math.nan if isinstance(value, (str, bool)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be a finite number, got {value!r}")
    return number


def _integer(value, key: str) -> int:
    """``value`` as an int: a finite number with no fractional part (``2.0`` and ``1e4`` are integers)."""
    number = _finite(value, key)
    if not number.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _positive(value, key: str) -> float:
    number = _finite(value, key)
    if number <= 0:
        raise ValidationError(f"{key} must be > 0, got {number!r}")
    return number


def _count(value, key: str) -> int:
    number = _integer(value, key)
    if number < 1:
        raise ValidationError(f"{key} must be >= 1, got {number}")
    return number


def _path(value, key: str) -> str:
    """``value`` as a file path: a nonempty string that ``os.fsencode``
    encodes with no NUL byte. ``open`` refuses any other string, with a
    ValueError, a UnicodeEncodeError or, for "", FileNotFoundError."""
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    if not value:
        raise ValidationError(f"{key} must be a nonempty file path, got ''")
    try:
        ok = b"\0" not in os.fsencode(value)
    except UnicodeEncodeError:
        ok = False
    if not ok:
        raise ValidationError(f"{key} must be a file path the file system can encode, "
                              f"with no NUL character, got {value!r}")
    return value


def _one_of(*choices: str):
    """The kind of a key whose value is one of the strings ``choices``."""
    def kind(value, key: str) -> str:
        if value not in choices:
            names = ", ".join(map(repr, choices[:-1])) + f" or {choices[-1]!r}"
            raise ValidationError(f"{key} must be {names}, got {value!r}")
        return value
    return kind


def _seed(value, key: str) -> str:
    if value == "neumann":
        return value
    if isinstance(value, str) and value.startswith("file:"):
        return "file:" + _path(value[5:], key)
    raise ValidationError(f"{key} must be 'neumann' or file:<path>, got {value!r}")


def _dims(value, key: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValidationError(f"{key} must be a list of two integers, got {value!r}")
    return _integer(value[0], key), _integer(value[1], key)


#: The default of a key that has none: leaving it out is a config error.
REQUIRED = object()
#: The keys where a JSON null stands for the key left out; anywhere else
#: null is a value of the wrong kind.
NULL_IS_ABSENT = ("level", "state", "path")

# The config table: every key of each section, as (kind, default). A kind
# reads a value, ``kind(value, "section.key")``, and raises a
# ValidationError that names the key. Any key not listed here is refused.

#: The ``params`` keys of each experiment.
PARAMS = {
    "epr": {},
    "spin_pair": {"omega": (_finite, 1.0), "j": (_finite, 0.0), "c": (_finite, 0.0),
                  "d": (_finite, 0.0), "phi": (_finite, 0.0)},
    "jcm_vacuum": {"omega": (_finite, 1.0), "rabi": (_finite, 1.0), "n_max": (_integer, 16)},
    "custom": {"state": (_path, REQUIRED), "dims": (_dims, REQUIRED)},
}
#: The ``reduction`` keys of each method, besides ``method`` (``METHOD``).
REDUCTION = {
    "neumann": {},
    "projective": {"level": (_integer, REQUIRED)},
    "conditioned": {"state": (_path, REQUIRED), "given_side": (_one_of("alpha", "beta"), "beta")},
    "correlated": {"tol": (_positive, 1e-12), "max_iter": (_count, 10_000),
                   "seed": (_seed, "neumann")},
}
METHOD = (_one_of(*REDUCTION), "neumann")
#: The keys of the top level ("config") and of the other sections.
SECTIONS = {
    "config": {
        "experiment": (_one_of(*PARAMS), REQUIRED),
        "params": (_object, {}),
        "time_grid": (_object, {"start": 0.0, "stop": 0.0, "steps": 1}),
        "reduction": (_object, {}),
        "output": (_object, {}),
    },
    "time_grid": {"start": (_finite, REQUIRED), "stop": (_finite, REQUIRED),
                  "steps": (_integer, REQUIRED)},
    "output": {"format": (_one_of("csv", "json"), "csv"), "path": (_path, None)},
}


def _read(obj: dict, section: str, keys: dict, chosen: str = "") -> dict:
    """Config section ``obj`` read through its table ``keys``: each key's
    value read by its kind, or its default where the key is absent.

    A key that ``keys`` does not list and an absent key without a default
    are config errors, which name ``section``, the key and ``chosen``, the
    experiment or method that chose ``keys``.
    """
    for key in obj:
        if key not in keys:
            raise ValidationError(f"unknown {section} key {key!r}{chosen}")
    values = {}
    for key, (kind, default) in keys.items():
        value = obj.get(key)
        if value is None and (key not in obj or key in NULL_IS_ABSENT):
            if default is REQUIRED:
                raise ValidationError(f"missing {section} key {key!r}{chosen}")
            values[key] = default
        else:
            values[key] = kind(value, f"{section}.{key}")
    return values


def _load_density(path: str, validation: str | None = None) -> DensityMatrix:
    """The state in a state file, validated at its own level (as
    ``DensityMatrix.from_json`` reads it) or at ``validation``; a file's own
    level is checked either way, so every command refuses the same files.
    Every refusal names ``path``.

    A state file parses into one [re, im] list per entry, 264,196 lists for
    a 514 x 514 state. The collector stays paused until that tree has been
    made into the matrix and dropped: a collection in between would walk
    every list and free none, and the tree is not held while the matrix is
    validated.
    """
    with _collector_paused():
        obj = _object(_load_json(path), f"state file {path}")
        declared = obj.get("validation", "strict")
        with _bad_state_file(path):
            m = mc.matrix_from_json(obj)
        del obj
    with _bad_state_file(path):
        dm = DensityMatrix(m, validation=declared if validation is None else validation)
        _check_level(declared)
        return dm


@contextlib.contextmanager
def _bad_state_file(path: str):
    """An error of a malformed state file, or of a matrix that is no state,
    raised meanwhile as a ``ValidationError`` that names ``path``."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{path}: state file lacks key {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (DimensionMismatch, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: bad state file: {exc}") from exc


# ---------------------------------------------------------------- run


class _Grid:
    """The time grid ``np.linspace(start, stop, steps)``, a slice at a time.

    ``grid[i:j]`` is ``np.linspace(start, stop, steps)[i:j]`` bit for bit,
    made as linspace makes it: i * step + start, or (i / div) * delta + start
    where the step underflows to 0, and the last point set to ``stop``. So no
    array of ``steps`` points is ever made.
    """

    def __init__(self, start: float, stop: float, steps: int):
        self.start, self.stop, self.steps = start, stop, steps

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, s: slice) -> np.ndarray:
        first, last, _ = s.indices(self.steps)
        y = np.arange(first, last, dtype=float)
        div = self.steps - 1
        delta = np.subtract(self.stop, self.start)
        step = delta / div if div else delta
        if div and step == 0:
            y /= div
            step = delta
        y *= step
        y += self.start
        if div and first < last == self.steps:
            y[-1] = self.stop
        return y


def _time_grid(grid: dict) -> _Grid:
    g = _read(grid, "time_grid", SECTIONS["time_grid"])
    start, stop, steps = g["start"], g["stop"], g["steps"]
    # A span stop - start that overflows would make the first t 0 * inf = nan.
    if not 1 <= steps <= sys.maxsize or stop < start or math.isinf(stop - start):
        raise ValidationError(f"bad time grid {grid}")
    return _Grid(start, stop, steps)


def _zeros(n: int) -> list[float]:
    """n exact zeros. Only the probe of ``_state_factory``'s refusal of an
    n_max too large to list: no row is made from it."""
    return [0.0] * n


def _state_factory(cfg: dict):
    """Returns (system, state) for the experiment and params of ``cfg``.

    The two models evolve pure states, which the reductions take as
    amplitudes in place of the N x N state: their state is a function of an
    array of K times to the amplitude matrices on the leading levels that
    can hold the state, every alpha level and c beta levels, the (K, Na, c)
    block that ``reduction.reduce_stack`` reduces on those levels. The
    states of ``epr`` and ``custom`` do not change, so their state is that
    state itself.
    """
    from . import models  # here, so that reduce and validate never load it
    experiment = cfg["experiment"]
    params = _read(cfg["params"], "params", PARAMS[experiment], f" for experiment {experiment!r}")
    if experiment == "epr":
        return BipartiteSystem(2, 2), epr_state()
    if experiment == "spin_pair":
        p = models.SpinPairParams(omega=params["omega"], j_coupling=params["j"],
                                  c_coupling=params["c"], d_coupling=params["d"])
        return models.SPIN_PAIR_SYSTEM, lambda ts: (
            models.spin_pair_amplitudes(p, params["phi"], ts).reshape(-1, 2, 2))
    if experiment == "jcm_vacuum":
        p = models.JcmParams(omega=params["omega"], rabi=params["rabi"], n_max=params["n_max"])
        # Each row's template holds a cell for each of the n_max + 1 field
        # populations: the first thing of the run that grows with n_max. A
        # field too large to list is refused here, once, before the output
        # is opened.
        try:
            _zeros(p.n_max + 1)
        except (MemoryError, OverflowError):
            raise ValidationError(f"n_max={p.n_max} is too large: a row of its "
                                  f"{p.n_max + 1} field populations cannot be allocated") from None
        return models.jcm_system(p), lambda ts: models._jcm_vacuum_block(p, ts)
    rho = _load_density(params["state"])  # custom
    na, nb = params["dims"]
    # Checked before anything of size na or nb is made.
    if na * nb != rho.dim:
        raise DimensionMismatch(
            f"matrix shape {rho.matrix.shape} does not match composite dimension {na * nb}")
    return BipartiteSystem(na, nb), rho


def _reducer(rcfg: dict, sys_: BipartiteSystem) -> dict:
    """The reduction that the ``reduction`` section ``rcfg`` names, read
    through ``METHOD`` and its method's ``REDUCTION`` keys: the keywords of
    ``reduction._reduce_one`` after the system, the ``method`` and its
    settings (sigma and given_side, level, or the correlated seed, tol and
    max_iter), which are also those of ``reduction.reduce_stack`` and, the
    method aside, of the public ``reduction.<method>_reduce``.

    State files named by the config are read here, once. The settings are
    then checked against ``sys_`` on no level: a projective level's range and
    the shapes of sigma and a seed, with no matrix of the system's size
    built, so that ``run`` refuses them before it opens the output. A
    refusal names the key and, for a file, its path.
    """
    method = _read({k: v for k, v in rcfg.items() if k == "method"}, "reduction",
                   {"method": METHOD})["method"]
    r = _read(rcfg, "reduction", {"method": METHOD, **REDUCTION[method]}, f" for method {method!r}")
    settings = {key: r[key] for key in ("level", "given_side", "tol", "max_iter") if key in r}
    # The one setting of the method that the system can refuse.
    checked = "reduction.level"
    if "state" in r:
        checked = f"reduction.state: {r['state']}"
        settings["sigma"] = _load_density(r["state"])
    if r.get("seed", "neumann") != "neumann":  # "file:<path>"; "neumann" is the default seed
        checked = f"reduction.seed: {r['seed'][5:]}"
        settings["seed"] = _load_density(r["seed"][5:])
    try:
        reduction._weights(sys_, method, 0, **settings)
    except (DimensionMismatch, IndexOutOfRange) as exc:
        raise type(exc)(f"{checked}: {exc}") from exc
    return {"method": method, **settings}


def _max_coherence(m: np.ndarray) -> np.ndarray:
    """Largest |m_ij|, i != j, of each matrix of a stack (..., n, n); 0 for n < 2.

    One |m| of the whole stack: a chunk's or a point's reduced states on
    its model block's levels, or the one reduced state of a
    state that does not change, whose own state file is many times its size.
    """
    n = m.shape[-1]
    off = np.abs(m).reshape(*m.shape[:-2], n * n)
    off[..., ::n + 1] = 0.0  # the diagonal
    return off.max(axis=-1, initial=0.0)


def cmd_run(args) -> int:
    raw = _object(_load_json(args.config), "config")
    try:
        cfg = _read(raw, "config", SECTIONS["config"])
        sys_, rho_of_t = _state_factory(cfg)
        ts = _time_grid(cfg["time_grid"])
        output = _read(cfg["output"], "output", SECTIONS["output"])
        fmt = args.format or output["format"]
        path = output["path"] if args.out is None else _path(args.out, "--out")
        # Read last: it checks the settings against the system once every
        # key of the config has been read.
        reducer = _reducer(cfg["reduction"], sys_)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad config: {exc!r}") from exc
    if callable(rho_of_t):
        _refuse_overflow(ts, rho_of_t)

    # Open the output first, so an unwritable path fails before the computation.
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as out:
        _write_series(_series(ts, sys_, rho_of_t, reducer), raw, fmt, out, sys_)
    return 0


def _refuse_overflow(ts: _Grid, model: Callable) -> None:
    """Raise the error of the first point of ts where ``model`` raises, a
    phase rate * t that overflows (``models._check_phases``), before the
    output is opened, with no array of the grid's points made.

    |rate * t| grows with |t|, so if any point overflows, an endpoint does:
    the first where the grid starts below 0, else the last. Past a first
    point that does not, the points that overflow are the grid's tail,
    whose first point a bisection over one-point slices finds.
    """
    def overflows(i: int) -> bool:
        try:
            model(ts[i:i + 1])
        except ValidationError:
            return True
        return False

    ok, bad = -1, len(ts) - 1
    if ts.start < 0:
        model(ts[:1])
        ok = 0
    if not overflows(bad):
        return
    while bad - ok > 1:
        mid = (ok + bad) // 2
        ok, bad = (ok, mid) if overflows(mid) else (mid, bad)
    model(ts[bad:bad + 1])


def _series(ts: np.ndarray | _Grid, sys_: BipartiteSystem, state,
            reducer: dict) -> Iterator[tuple[list[float], reduction.Stack]]:
    """The time points of ts (an array or a ``_Grid``) in order, in pieces
    (points, stack) whose stack is done at every entry or at none (a
    degenerate overlap, no row), each reduced on ``sys_`` as ``reducer``
    (``_reducer``) says. Point j of a piece is entry j of its stack, or its
    only entry: a state that does not change (not a model, a function of t)
    is reduced once, at the first t, and that stack of one is the stack of
    every chunk. Each chunk of ``CHUNK`` points is reduced only when its
    first piece is asked for (``_chunk``)."""
    if callable(state):
        return itertools.chain.from_iterable(
            _chunk(ts[i:i + CHUNK], state, sys_, reducer) for i in range(0, len(ts), CHUNK))
    once = _alone(ts[:1].item(), state, sys_, reducer)
    return ((ts[i:i + CHUNK].tolist(), once) for i in range(0, len(ts) if once.done[0] else 0, CHUNK))


def _chunk(ts: np.ndarray, model: Callable, sys_: BipartiteSystem,
           reducer: dict) -> Iterator[tuple[list[float], reduction.Stack]]:
    """The pieces of the time points ts.

    A model makes the chunk's amplitude matrices in one call, on the levels
    that can hold its state, reduced together by ``reduction.reduce_stack``;
    each run of points that it does is a piece of that stack. A point the
    stack leaves undone is made as its own one-point block, on the same
    levels, and reduced alone (``_alone``) when its piece is asked for,
    after the pieces before it. Neither raises: ``_refuse_overflow`` refused a
    phase that overflows, and ``_reducer`` the settings, before the output
    was opened.
    """
    stack = reduction.reduce_stack(model(ts), sys_, **reducer)
    points = ts.tolist()  # after the stack, whose peak it would add to
    first = 0
    for j in np.flatnonzero(~stack.done).tolist():
        if first < j:
            yield points[first:j], _part(stack, first, j)
        yield points[j:j + 1], _alone(points[j], model(ts[j:j + 1]), sys_, reducer, block=True)
        first = j + 1
    if first < len(points):
        yield points[first:], _part(stack, first, len(points))


def _part(stack: reduction.Stack, a: int, b: int) -> reduction.Stack:
    """Entries a to b of a stack."""
    return stack._replace(**{key: value[a:b] for key, value in stack._asdict().items()
                             if isinstance(value, np.ndarray)})


def _alone(t: float, state, sys_: BipartiteSystem, reducer: dict,
           block: bool = False) -> reduction.Stack:
    """Time point t reduced alone on ``sys_`` (``reduction._reduce_one``), a
    whole state or, with ``block``, a model's one-point block, as a stack of
    one on the leading levels that its reduced states cover: every level of
    the system for a whole state, the block's for a block (see
    ``reduction._reduce_one``). Not done, with no reduced state, where its
    overlap is degenerate. Its exception, or each of its result's warnings,
    is logged after t."""
    try:
        res = reduction._reduce_one(state, sys_, block=block, **reducer)
    except DegenerateOverlap as exc:
        log.warning("t=%g: %s", t, exc)
        return reduction.Stack(None, None, None, np.zeros(1, dtype=bool))
    for warning in res.warnings:
        log.warning("t=%g: %s", t, warning)
    rb = None if res.rho_beta is None else res.rho_beta.matrix[None]
    error = None if res.reconstruction_error is None else np.array([res.reconstruction_error])
    return reduction.Stack(res.rho_alpha.matrix[None], rb, error, np.ones(1, dtype=bool),
                           res.verdict, res.iterations)


def _write_series(pieces: Iterable[tuple[list[float], reduction.Stack]], cfg: dict, fmt: str,
                  out, sys_: BipartiteSystem) -> None:
    """Write the rows of each piece of ``_series`` (``_lines``) as it
    arrives: the format's head before the first, its separator between two
    and its tail after the last. A series of no row writes nothing and
    raises ``DegenerateOverlap``. A piece is let go before the next one is
    made.

    The JSON document is byte for byte ``_dumps({"config": cfg, "rows":
    [...]})`` of the rows as dicts, and a line break: a value nested d
    levels deep is its own ``_dumps`` with 2 d spaces after each line break,
    since encoded JSON holds literal line breaks only as indentation.
    """
    separator, tail = (",\n    ", "\n  ]\n}\n") if fmt == "json" else ("", "")
    head = True
    for ts, stack in pieces:
        for line in _lines(ts, stack, sys_, fmt):
            if head:
                for text in _head(cfg, fmt, sys_.dim_alpha, 0 if stack.rho_beta is None else sys_.dim_beta):
                    out.write(text)
                head = False
            elif separator:
                out.write(separator)
            out.write(line)
        del ts, stack
    if head:
        raise DegenerateOverlap("degenerate overlap at every time point")
    out.write(tail)


def _head(cfg: dict, fmt: str, na: int, nb: int) -> Iterator[str]:
    """What a series of na alpha and nb beta populations writes before its
    first row: in JSON the document up to the rows, in CSV the config line
    and the header (``_csv_header``)."""
    if fmt == "json":
        yield '{\n  "config": ' + _dumps(cfg).replace("\n", "\n  ") + ',\n  "rows": [\n    '
    else:
        yield f"# config: {json.dumps(cfg, sort_keys=True)}\n"
        yield from _csv_header(na, nb)


def _lines(ts: list[float], stack: reduction.Stack, sys_: BipartiteSystem, fmt: str) -> Iterator[str]:
    """The row of each point ts of a piece of ``_series``, none if its stack
    is not done: a CSV line, or a JSON row object as ``_dumps`` writes it in
    the list of rows. Each is formatted from the stack's ``_template``, with
    t and a row of its table listed as the row is made, so no K x N array
    is made. The template is made in a call of its own, so that what it is
    made from (a wide run's text of the populations) is not held while the
    rows are formatted."""
    if not stack.done[0]:
        return
    template, table = _template(stack, sys_, fmt)
    if fmt == "json" and not (np.isfinite(ts).all() and np.isfinite(table).all()):
        # "%s" writes a finite float as its repr; NaN and ±Infinity are
        # written as JSON writes them.
        ts = _floats(np.array(ts))
        table = np.array(_floats(table.ravel()), dtype=object).reshape(table.shape)
    for t, numbers in zip(ts, np.broadcast_to(table, (len(ts), table.shape[1]))):
        yield template % (t, *numbers.tolist())


def _template(stack: reduction.Stack, sys_: BipartiteSystem, fmt: str) -> tuple[str, np.ndarray]:
    """The %-template of a row of a done stack in the format ``fmt``, and the
    (K, m) table of the numbers it takes after t, a row per state.

    A row holds t, each side's populations (the diagonal of its reduced
    state, on as many leading levels as the state has rows, and the exact
    0.0 on the others) and largest
    off-diagonal (``_max_coherence``), the reconstruction error, the verdict
    and the iterations. JSON keys them "t", "pop_alpha", "coh_alpha",
    "reconstruction_error", "verdict", "iterations", then "pop_beta" and
    "coh_beta" where the stack has a beta side. CSV writes each number as
    "%.17g" formats it, JSON as ``_floats`` does.

    The template holds as text all that every row of the stack shares: a
    population off its leading levels ("0" in CSV, which is what "%.17g"
    writes of 0.0, and "0.0" in JSON), an error of None (an empty cell, or
    null), the verdict and the iterations. So only the numbers on the levels
    of the stack are formatted, and no list of a row's populations is made.
    """
    sides = [(stack.rho_alpha, sys_.dim_alpha)]
    if stack.rho_beta is not None:
        sides.append((stack.rho_beta, sys_.dim_beta))
    diags = [m.diagonal(axis1=-2, axis2=-1).real for m, _ in sides]
    cohs = [_max_coherence(m)[:, None] for m, _ in sides]
    errors = [] if stack.error is None else [stack.error[:, None]]
    if fmt == "csv":
        pops = (_cells(m.shape[-1], n, "%.17g", "0", ",") for m, n in sides)
        template = ",".join(["%.17g", *pops, *["%.17g"] * len(sides), "%.17g" if errors else "",
                             stack.verdict.replace("%", "%%"), f"{stack.iterations}\n"])
        return template, np.concatenate([*diags, *cohs, *errors], axis=1)
    item = ",\n        "  # between two populations
    pops = [f'"pop_{side}": [\n        {_cells(m.shape[-1], n, "%s", "0.0", item)}\n      ]'
            for side, (m, n) in zip(("alpha", "beta"), sides)]
    fields = ['{\n      "t": %s', pops[0], '"coh_alpha": %s',
              f'"reconstruction_error": {"%s" if errors else "null"}',
              f'"verdict": {_encode_scalar(stack.verdict).replace("%", "%%")}',
              f'"iterations": {stack.iterations}']
    columns = [diags[0], cohs[0], *errors]
    if len(sides) == 2:
        fields += [pops[1], '"coh_beta": %s']
        columns += [diags[1], cohs[1]]
    fields[-1] += "\n    }"
    return ",\n      ".join(fields), np.concatenate(columns, axis=1)


def _cells(r: int, n: int, number: str, zero: str, sep: str) -> str:
    """The text of n populations joined by sep: the conversion ``number``
    on the leading r levels and the literal ``zero`` on the others, with no
    list of n cells."""
    return (number + sep) * (r - 1) + number + (sep + zero) * (n - r)


def _csv_header(na: int, nb: int) -> Iterator[str]:
    """The CSV header line of a series of na alpha and nb beta populations
    (no beta columns for nb = 0), in pieces of up to 1,024 names each, so
    that a wide run (8,200 columns at n_max = 4096) holds no list of one
    name per column."""
    names = itertools.chain(
        ["t"],
        (f"pop_alpha_{i}" for i in range(na)),
        (f"pop_beta_{i}" for i in range(nb)),
        ["coh_alpha"] + (["coh_beta"] if nb else []),
        ["reconstruction_error", "verdict", "iterations"],
    )
    piece = ",".join(itertools.islice(names, 1024))
    while piece:
        following = ",".join(itertools.islice(names, 1024))
        yield piece + ("," if following else "\n")
        piece = following


# ---------------------------------------------------------------- reduce


def cmd_reduce(args) -> int:
    rho = _load_density(args.state)
    # The flags that the method reads, by their reduction keys (--sigma is
    # "state"); a flag left out takes the key's default.
    flags = {**vars(args), "state": args.sigma}
    rcfg = {key: flags[key] for key in ("method", *REDUCTION[args.method]) if flags[key] is not None}
    sys_ = BipartiteSystem(args.dims[0], args.dims[1])
    reducer = _reducer(rcfg, sys_)
    # The public reduction, looked up by name, so that bench/spans.py's
    # span on it times the reduction of ``reduce``.
    out = getattr(reduction, f"{reducer.pop('method')}_reduce")(rho, sys_, **reducer)
    print(_dumps(out._to_json(mc._matrix_fields)))
    return 0


# ---------------------------------------------------------------- decompose


def cmd_decompose(args) -> int:
    from . import ensembles, models  # here, so that no other command loads them
    flags = ("theta", "phi", "c", "t", "omega")
    theta, phi, c, t, omega = (_finite(getattr(args, f), f"--{f}") for f in flags)
    tol = _positive(args.tol, "--tol")
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
    obj["verification"] = dataclasses.asdict(report)
    print(_dumps(obj))
    if args.report_only or report.matches:
        return 0
    return _fail(EXIT_NUMERICAL, f"verification error {report.max_error:g} above {tol:g}")


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    # Strictness is decided by the eigenvalue printed below, so a strict check
    # pays the one eigensolve and no Cholesky certificate on top of it.
    try:
        dm = _load_density(args.state, "relaxed")
        if args.level == "strict":
            with _bad_state_file(args.state):
                dm._check_positive()
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


#: Each command's help, its function and its arguments, in the order
#: ``corred --help`` lists them: an argument's name (a flag's starts with
#: "-") and its keywords of ``ArgumentParser.add_argument``. ``build_parser``
#: adds them in this order, and ``_plain`` reads them directly.
COMMANDS = {
    "run": ("run an experiment from a JSON config", cmd_run, {
        "--config": {"required": True, "help": "experiment config path"},
        "--out": {"help": "output file (default stdout)"},
        "--format": {"choices": ["csv", "json"], "help": "override output format"},
    }),
    "reduce": ("reduce a density-matrix file", cmd_reduce, {
        "state": {"help": "density matrix JSON file"},
        "--dims": {"type": int, "nargs": 2, "required": True, "metavar": ("NA", "NB")},
        "--method": {"choices": list(REDUCTION), "default": METHOD[1]},
        "--level": {"type": int, "default": 0, "help": "projective level index"},
        "--sigma": {"help": "conditioning state file"},
        "--given-side": {"choices": ["alpha", "beta"]},
        "--tol": {"type": float},
        "--max-iter": {"type": int},
        "--seed": {"help": "'neumann' or file:<path>"},
    }),
    "decompose": ("hidden-ensemble decomposition", cmd_decompose, {
        "kind": {"choices": ["epr", "triplet", "spin_pair_initial", "spin_pair_t"]},
        "--theta": {"type": float, "default": 0.0, "help": "hidden phase"},
        "--phi": {"type": float, "default": 0.0, "help": "initial mixing angle"},
        "--c": {"type": float, "default": 1.0, "help": "flip-flop coupling"},
        "--t": {"type": float, "default": 0.0, "help": "time"},
        "--omega": {"type": float, "default": 1.0, "help": "Zeeman frequency"},
        "--tol": {"type": float, "default": 1e-10},
        "--report-only": {"action": "store_true",
                          "help": "exit 0 even when the assembled ensemble misses the target"},
    }),
    "validate": ("validate a density-matrix file", cmd_validate, {
        "state": {},
        "--level": {"choices": ["strict", "relaxed"], "default": "strict"},
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``corred`` parser, with every command's subparser and arguments."""
    parser = argparse.ArgumentParser(
        prog="corred",
        description="Reduction algorithms for bipartite quantum states "
        "(dimensionless units, hbar = k_B = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """argv read as ``build_parser().parse_args`` reads it, with no parser
    made, if it is plain: a command's name, then its positionals and its
    flags spelled out in full, each flag followed by its values, no token
    of which starts with "-", every value of its type and among its
    choices, and every required argument there. None for any other command
    line, which argparse reads, and reports where it is wrong. An argument
    of ``COMMANDS`` whose action is not ``store_true`` is a TypeError.

    Building argparse's parsers costs more than a small ``run`` itself; the
    measurements are in CHANGES.md, in its entry on steadying
    ``jcm_n256_neumann``'s cpu_s.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, arguments = COMMANDS[argv[0]]
    values, given = {"command": argv[0], "func": func}, set()
    for name, kw in arguments.items():
        if kw.get("action", "store_true") != "store_true":
            raise TypeError(f"_plain does not read action={kw['action']!r}")
        default = kw.get("default", False if "action" in kw else None)
        # argparse passes a default given as a string through the type.
        values[name] = kw.get("type", str)(default) if isinstance(default, str) else default
    positionals = (name for name in arguments if not name.startswith("-"))
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token.startswith("-")
        name = (token if token in arguments else None) if flag else next(positionals, None)
        if name is None:
            return None
        kw = arguments[name]
        count = 0 if "action" in kw else kw.get("nargs", 1)
        raw = list(itertools.islice(tokens, count)) if flag else [token]
        if len(raw) != count or any(v.startswith("-") for v in raw):
            return None
        try:
            got = [kw.get("type", str)(v) for v in raw]
        except ValueError:
            return None
        if "choices" in kw and any(v not in kw["choices"] for v in got):
            return None
        # A switch is True, one value itself, and nargs values a list.
        values[name] = True if count == 0 else got if "nargs" in kw else got[0]
        given.add(name)
    if next(positionals, None) or any(kw.get("required") and name not in given
                                      for name, kw in arguments.items()):
        return None
    # Each value under the attribute that argparse stores it as.
    return argparse.Namespace(**{name.lstrip("-").replace("-", "_"): value
                                 for name, value in values.items()})


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read by ``_plain``, or else, its negative values glued to their
    flags (``_glue_negative_values``), parsed by ``build_parser()``. The
    glue changes only a line with a token that starts with "-" after a
    flag, which ``_plain`` never reads.

    argparse's back-references make a parser a reference cycle, which only
    the cyclic garbage collector frees. Made with the collector paused, the
    parsers stay in its youngest generation, and one collection of it
    (about 0.04 ms) frees them before the command runs.
    """
    args = _plain(argv)
    if args is None:
        with _collector_paused():
            args = build_parser().parse_args(_glue_negative_values(argv))
        gc.collect(0)
    return args


def _glue_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1e5`` as ``--flag=-1e5``, so that argparse reads the value:
    it takes a token that starts with "-" for a value only if it is a plain
    decimal such as -1 or -0.5 (its pattern is the lookahead below), and
    reads -1e5, -inf or -nan as a flag. A plain decimal is left alone, so
    that ``--dims -1 4`` gives a two-value flag both its values."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[^=]+", out[-1]) and re.fullmatch(r"-(?!\d+$|\d*\.\d+$).*", arg):
            with contextlib.suppress(ValueError):
                float(arg)
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        _setup_logging()
        return args.func(args)
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except (DegenerateOverlap, TieUndefined) as exc:
        return _fail(EXIT_NUMERICAL, str(exc))
    except CorredError as exc:
        return _fail(EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
