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
It then holds one chunk of ``CHUNK`` time points at a time, and makes each
chunk's t values as ``np.linspace`` makes them, so memory does not grow
with ``steps``. A model makes a chunk's amplitude matrices in one call, on
the levels that can hold its state (a 2 x 2 block for the JCM vacuum at any
n_max); they are cut to the support of the chunk (``reduction.support``)
before the stacked kernels run (``reduction.reduce_stack``), so a chunk
holds nothing of size K x N. A point the stack does not settle is made as
its own one-point block, on the same levels, and reduced alone
(``reduction._reduce_block``, the same body with the public semantics),
its result a stack of one, and so is every point of a chunk that holds a
state that cannot be made; no whole vector is made. A reduction setting
that does not fit the system (a projective level, the shape of a
conditioning state or of a seed) is a config error before the output is
opened. A state that does not change (``epr``, ``custom``) is reduced
once, at the first t, its warnings logged once, and its row is written at
every t. The rows reach the writer as pieces (points, stack): a run of a
chunk's stack, a point reduced alone, or the one reduced state. A CSV line
is formatted from one template made per stack, whose populations off the
stack's levels are a literal 0, and a JSON row is one dict; the chunk's
states are freed before the next chunk is made. After a nonzero
exit the output holds only the rows of the points before the failure.

Every config section is read through one table (``PARAMS`` by experiment,
``REDUCTION`` by method, ``SECTIONS`` for the rest), which holds each key's
kind and default: a key that it does not list for the chosen experiment or
method, a missing key without a default and a value of the wrong kind are
config errors, raised before the output is opened. ``reduce`` passes the
flags that its method reads through the same table.
Every reduction returns a ``ReductionResult``; its ``verdict`` and
``iterations`` fill the row's columns of the same name ("-" and 0 for the
one-shot methods), and a correlated ``file:`` seed is the starting alpha
state of every time point where the loop does not start at its closed form
(see ``reduction``).

Indented JSON output (``reduce``, ``decompose``, ``run --format json``) goes
through ``_dumps``, byte for byte the stdlib's ``json.dumps`` with an indent of 2;
``reduce`` hands it the result's matrices as arrays (``_matrix_block``).
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
from typing import NamedTuple

import numpy as np

from . import ensembles, matrixcore as mc, models, reduction
from .errors import CorredError, DegenerateOverlap, DimensionMismatch, TieUndefined, ValidationError
from .matrixcore import BipartiteSystem
from .states import DensityMatrix, epr_state, spin_pair_initial, triplet_state

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

#: Time points that ``run`` reduces together. numpy's fixed cost per call is
#: what a stack saves, while each point's amplitudes are held until the
#: chunk is cut to its support and the kernels' temporaries grow with it:
#: ``reduction.reduce_stack`` peaks about 0.7 KB per state above its entry
#: (14.7, 26.2 and 49.3 KB at K = 16, 32 and 64 on the README config, in
#: process). Medians of 3 ``bench/run.py --seed 0 --seconds 5 --trace 0``
#: runs per cell on a 2-core host, run_s (ms) / peak_mem_mb (KB) at K = 16,
#: 32 and 48, with ``main``'s parser freed before the first chunk and each
#: CSV line formatted from its stack's template:
#: ``jcm_n16_correlated`` 7.3/56.9, 5.4/67.9, 4.7/77.4;
#: ``spin_pair_correlated`` 7.6/56.8, 5.6/66.7, 5.0/79.3;
#: ``jcm_n256_neumann`` (one chunk of 10 points) 1.8/51.5, 1.8/51.7, 1.9/51.5.
#: With the parser held through the first chunk, K = 16 peaked at 70.2 and
#: 71.3 KB on the first two. K = 32 fits under that; K = 48 peaks 14 to 19 %
#: above K = 32, over the benchmark's 10 % bound. These figures were taken
#: while ``main`` still built argparse's parsers for every command line; a
#: plain one now builds none (``_plain``), which takes about 9 KB off each
#: ``run`` peak and about 1 ms off each run_s.
CHUNK = 32

log = logging.getLogger("corred")


def _setup_logging() -> None:
    level = os.environ.get("CORRED_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR))


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
#: Types of the entries of a number block; see ``_dumps``.
_NUMBER_TYPES = {float, int, bool, type(None)}


def _block_depth(value) -> int:
    """1 for a non-empty list of numbers, booleans and nulls, 2 for a non-empty
    list of such lists (``matrix_to_json``'s ``data``), 0 for anything else."""
    if not isinstance(value, list) or not value:
        return 0
    if _NUMBER_TYPES.issuperset(map(type, value)):
        return 1
    if (
        set(map(type, value)) == {list}
        and all(value)
        and _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(value)))
    ):
        return 2
    return 0


def _dumps(obj, indent: str = "\n") -> str:
    """``json.dumps`` of ``obj`` with an indent of 2, byte for byte, for JSON values (str keys).

    A complex array in ``obj`` is written as the "data" of ``matrix_to_json``
    would be (``_matrix_block``), so ``_dumps(mc._matrix_fields(m))`` is
    ``json.dumps(mc.matrix_to_json(m), indent=2)``.

    CPython's C encoder ignores ``indent``, so the stdlib writes indented
    JSON in pure Python. Here dicts and lists are walked in Python, one
    frame per level, but a number block (``_block_depth``) is encoded
    compactly in one C call and then indented at its separators. That is
    exact because no encoded number, ``true``, ``false``, ``null``, ``NaN``
    or ``Infinity`` contains a bracket or ", ". What is written is a checked
    config, a row or a result, none nested more than a few levels deep.
    """
    if isinstance(obj, np.ndarray):
        return _matrix_block(obj, indent)
    inner = indent + "  "
    depth = _block_depth(obj)
    if depth == 1:
        return f"[{inner}{json.dumps(obj)[1:-1].replace(', ', ',' + inner)}{indent}]"
    if depth == 2:
        cell = inner + "  "
        body = json.dumps(obj)[2:-2].replace("], [", f"{inner}],{inner}[{cell}")
        return f"[{inner}[{cell}{body.replace(', ', ',' + cell)}{inner}]{indent}]"
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


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
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
    if value == "neumann" or isinstance(value, str) and value.startswith("file:"):
        return value
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
    "custom": {"state": (_string, REQUIRED), "dims": (_dims, REQUIRED)},
}
#: The ``reduction`` keys of each method, besides ``method`` (``METHOD``).
REDUCTION = {
    "neumann": {},
    "projective": {"level": (_integer, REQUIRED)},
    "conditioned": {"state": (_string, REQUIRED), "given_side": (_one_of("alpha", "beta"), "beta")},
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
    "output": {"format": (_one_of("csv", "json"), "csv"), "path": (_string, None)},
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
    ``DensityMatrix.from_json`` reads it) or at ``validation``. Every
    refusal names ``path``.

    A state file parses into one [re, im] list per entry, 264,196 lists for
    a 514 x 514 state. The collector stays paused until that tree has been
    made into the matrix and dropped: a collection in between would walk
    every list and free none, and the tree is not held while the matrix is
    validated.
    """
    with _collector_paused():
        obj = _object(_load_json(path), f"state file {path}")
        level = obj.get("validation", "strict") if validation is None else validation
        with _bad_state_file(path):
            m = mc.matrix_from_json(obj)
        del obj
    with _bad_state_file(path):
        return DensityMatrix(m, validation=level)


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
    """n exact zeros: a row's populations off the levels of its stack."""
    return [0.0] * n


def _state_factory(cfg: dict):
    """Returns (system, state) for the experiment and params of ``cfg``.

    The two models evolve pure states, which the reductions take as
    amplitudes in place of the N x N state: their state is a function of an
    array of K times to the amplitude matrices on the leading levels that
    can hold the state, every alpha level and c beta levels, the (K, Na, c)
    stack that ``reduction.support`` takes. The states of ``epr`` and
    ``custom`` do not change, so their state is that state itself.
    """
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
        # Each JSON row lists the n_max + 1 field populations, and each CSV
        # template holds a cell for each: the first things of the run that
        # grow with n_max. A field too large to list is refused here, once,
        # before the output is opened.
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


class _Reducer(NamedTuple):
    """The reduction a config names: its ``method`` on the system ``sys``,
    with the ``weights`` (the keywords of ``reduction._weights``: sigma and
    given_side, level or seed) and the correlated ``tol`` and ``max_iter``,
    None for the one-shot methods, which read neither."""

    sys: BipartiteSystem
    method: str
    weights: dict
    tol: float | None
    max_iter: int | None

    def one(self, rho) -> reduction.ReductionResult:
        """The public reduction of a state, ``reduction.<method>_reduce``."""
        run = {"tol": self.tol, "max_iter": self.max_iter} if self.method == "correlated" else {}
        return getattr(reduction, f"{self.method}_reduce")(rho, self.sys, **self.weights, **run)

    def stack(self, cut: reduction.Support) -> reduction.Stack:
        return reduction.reduce_stack(cut, self.sys, self.method, tol=self.tol, **self.weights)

    def point(self, block: np.ndarray) -> reduction.ReductionResult:
        return reduction._reduce_block(block, self.sys, self.method, tol=self.tol,
                                       max_iter=self.max_iter, **self.weights)


def _reducer(rcfg: dict, sys_: BipartiteSystem) -> _Reducer:
    """The reduction that the ``reduction`` section ``rcfg`` names, read
    through ``METHOD`` and its method's ``REDUCTION`` keys.

    State files named by the config are read here, once; the reduction
    itself checks their shapes against the system (DimensionMismatch), and
    ``run`` checks them first.
    """
    method = _read({k: v for k, v in rcfg.items() if k == "method"}, "reduction",
                   {"method": METHOD})["method"]
    r = _read(rcfg, "reduction", {"method": METHOD, **REDUCTION[method]}, f" for method {method!r}")
    weights = {key: r[key] for key in ("level", "given_side") if key in r}
    if "state" in r:
        weights["sigma"] = _load_density(r["state"])
    if "seed" in r:
        weights["seed"] = None if r["seed"] == "neumann" else _load_density(r["seed"][5:])
    return _Reducer(sys_, method, weights, r.get("tol"), r.get("max_iter"))


def _max_coherence(m: np.ndarray) -> np.ndarray:
    """Largest |m_ij|, i != j, of each matrix of a stack (..., n, n); 0 for n < 2.

    One |m| of the whole stack: a chunk's reduced states on its support, a
    point's on its model block's levels, or the one reduced state of a
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
        reducer = _reducer(cfg["reduction"], sys_)
        output = _read(cfg["output"], "output", SECTIONS["output"])
        fmt, path = args.format or output["format"], args.out or output["path"]
        # The weights on no level: a projective level's range and the shapes
        # of sigma and a seed checked against the system, before the output
        # is opened, with no matrix of the system's size built.
        reduction._weights(sys_, reducer.method, *[np.arange(0)] * 2, **reducer.weights)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad config: {exc!r}") from exc

    # Open the output first, so an unwritable path fails before the computation.
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as out:
        _write_series(_series(ts, sys_, rho_of_t, reducer), raw, fmt, out, sys_)
    return 0


def _series(ts: np.ndarray | _Grid, sys_: BipartiteSystem, state,
            reducer: _Reducer) -> Iterator[tuple[list[float], reduction.Stack]]:
    """The time points of ts (an array or a ``_Grid``) in order, in pieces
    (points, stack) whose stack is done at every entry or at none (a
    degenerate overlap, no row). Point j of a piece is entry j of its stack,
    or its only entry: a state that does not change (not a model, a
    function of t) is reduced once, at the first t, and that stack of one
    is the stack of every chunk. Each chunk of ``CHUNK`` points is reduced
    only when its first piece is asked for (``_chunk``)."""
    if callable(state):
        return itertools.chain.from_iterable(
            _chunk(ts[i:i + CHUNK], sys_, state, reducer) for i in range(0, len(ts), CHUNK))
    once = _alone(ts[:1].item(), state, reducer.one, sys_)
    return ((ts[i:i + CHUNK].tolist(), once) for i in range(0, len(ts) if once.done[0] else 0, CHUNK))


def _chunk(ts: np.ndarray, sys_: BipartiteSystem, model: Callable,
           reducer: _Reducer) -> Iterator[tuple[list[float], reduction.Stack]]:
    """The pieces of the time points ts.

    A model makes the chunk's amplitude matrices in one call, on the levels
    that can hold its state, reduced together by ``reducer.stack``; each run
    of points that it does is a piece of that stack. A point the stack
    leaves undone is made as its own one-point block, on the same levels,
    and reduced alone (``_alone``, ``reducer.point``) when its piece is
    asked for, after the pieces before it, and so is every point of a chunk
    where one state raises: the rows before it are written, then its error.
    """
    points = ts.tolist()
    try:
        stack = reducer.stack(reduction.support(model(ts)))
    except CorredError:
        stack = None
    first = 0
    for j in range(len(points)) if stack is None else np.flatnonzero(~stack.done).tolist():
        if first < j:
            yield points[first:j], _part(stack, first, j)
        yield points[j:j + 1], _alone(points[j], model(ts[j:j + 1]), reducer.point, sys_)
        first = j + 1
    if first < len(points):
        yield points[first:], _part(stack, first, len(points))


def _part(stack: reduction.Stack, a: int, b: int) -> reduction.Stack:
    """Entries a to b of a stack."""
    return stack._replace(**{key: value[a:b] for key, value in stack._asdict().items()
                             if key in ("rho_alpha", "rho_beta", "error", "done") and value is not None})


def _stack_rows(ts: list[float], stack: reduction.Stack, sys_: BipartiteSystem) -> Iterable[dict]:
    """The row of each point ts of a piece of ``_series``, none if its stack
    is not done: the rows that JSON writes.

    The populations are the diagonal of each reduced state on the levels of
    the stack and exact zeros off them, its coherence the largest
    off-diagonal there; on a chunk's support no Na x Na or Nb x Nb matrix is
    built. The rows are made one at a time from these columns, each row's
    populations when it is made.
    """
    if not stack.done[0]:
        return ()
    sides = {"alpha": (stack.rho_alpha, stack.rows, sys_.dim_alpha)}
    if stack.rho_beta is not None:
        sides["beta"] = (stack.rho_beta, stack.cols, sys_.dim_beta)
    pops, cohs = {}, {}
    for side, (m, levels, n) in sides.items():
        pops[side] = _populations(m.diagonal(axis1=-2, axis2=-1).real, levels, n)
        cohs[side] = _max_coherence(m).tolist()
    errors = [None] * len(stack.done) if stack.error is None else stack.error.tolist()

    def row(j: int, t: float) -> dict:
        out = {
            "t": t,
            "pop_alpha": pops["alpha"](j),
            "coh_alpha": cohs["alpha"][j],
            "reconstruction_error": errors[j],
            "verdict": stack.verdict,
            "iterations": stack.iterations,
        }
        if "beta" in pops:
            out["pop_beta"] = pops["beta"](j)
            out["coh_beta"] = cohs["beta"][j]
        return out

    # Point j is entry j, or the only entry.
    return map(row, np.broadcast_to(np.arange(len(stack.done)), len(ts)).tolist(), ts)


def _populations(diag: np.ndarray, levels: np.ndarray, n: int) -> Callable[[int], list[float]]:
    """The populations of state j of a stack, as a list of n: the diagonal
    ``diag`` (K, r) of its reduced states on the ``levels``, exact zeros off
    them."""
    if len(levels) == n:
        return lambda j: diag[j].tolist()
    levels = levels.tolist()

    def row(j: int) -> list[float]:
        pops = _zeros(n)
        for level, x in zip(levels, diag[j].tolist()):
            pops[level] = x
        return pops

    return row


def _alone(t: float, state, reduce_one, sys_: BipartiteSystem) -> reduction.Stack:
    """Time point t reduced alone by ``reduce_one``, as a stack of one on the
    leading levels its reduced states cover: all levels of ``sys_`` for a
    whole state, a model block's for a block. Not done where its overlap is
    degenerate; the library's log records name t."""
    try:
        with _naming(t):
            res = reduce_one(state)
    except DegenerateOverlap as exc:
        log.warning("t=%g: %s", t, exc)
        return reduction.Stack(np.arange(sys_.dim_alpha), np.arange(sys_.dim_beta), None, None, None,
                               np.zeros(1, dtype=bool))
    ra = res.rho_alpha.matrix[None]
    rb = None if res.rho_beta is None else res.rho_beta.matrix[None]
    error = None if res.reconstruction_error is None else np.array([res.reconstruction_error])
    return reduction.Stack(np.arange(ra.shape[-1]), np.arange(0 if rb is None else rb.shape[-1]),
                           ra, rb, error, np.ones(1, dtype=bool), res.verdict, res.iterations)


@contextlib.contextmanager
def _naming(t: float):
    """Prefix "t=...: " to the messages the library logs meanwhile."""
    def name(record: logging.LogRecord) -> bool:
        record.msg = f"t={t:g}: {record.msg}"
        return True

    log.addFilter(name)
    try:
        yield
    finally:
        log.removeFilter(name)


def _write_series(pieces: Iterable[tuple[list[float], reduction.Stack]], cfg: dict, fmt: str,
                  out, sys_: BipartiteSystem) -> None:
    """Write the rows of each piece of ``_series`` as it arrives, after the
    config and, in CSV, the header; a series of no row writes nothing and
    raises ``DegenerateOverlap``. A piece is let go before the next one is
    made.

    The JSON document is byte for byte ``_dumps({"config": cfg, "rows":
    [...]})`` of ``_stack_rows``'s rows and a line break: a value nested d
    levels deep is its own ``_dumps`` with 2 d spaces after each line break,
    since encoded JSON holds literal line breaks only as indentation.
    """
    if fmt == "json":
        head = '{\n  "config": ' + _dumps(cfg).replace("\n", "\n  ") + ',\n  "rows": [\n    '
        for ts, stack in pieces:
            for row in _stack_rows(ts, stack, sys_):
                out.write(head + _dumps(row).replace("\n", "\n    "))
                head = ",\n    "
            del ts, stack
        if head == ",\n    ":
            out.write("\n  ]\n}\n")
            return
    else:
        head = f"# config: {json.dumps(cfg, sort_keys=True)}\n"
        for ts, stack in pieces:
            for line in _csv_lines(ts, stack, sys_):
                if head:
                    out.write(head)
                    nb = 0 if stack.rho_beta is None else sys_.dim_beta
                    for names in _csv_header(sys_.dim_alpha, nb):
                        out.write(names)
                    head = ""
                out.write(line)
            del ts, stack
        if not head:
            return
    raise DegenerateOverlap("degenerate overlap at every time point")


def _csv_lines(ts: list[float], stack: reduction.Stack, sys_: BipartiteSystem) -> Iterator[str]:
    """The CSV line of each point ts of a piece of ``_series``, none if its
    stack is not done: the cells of ``_stack_rows``'s row, each number as
    ``"%.17g"`` formats it, an error of None as an empty cell, and the
    verdict and iterations as text.

    Each line is formatted from one template made for the stack. A
    population off the levels of the stack is the exact 0.0, which "%.17g"
    writes as "0", so the template holds a literal 0 there. A line formats
    only the numbers on the levels of the stack, a row of one (K, m) array
    listed as the line is made: no list of a row's populations and no K x N
    array is made.
    """
    if not stack.done[0]:
        return
    sides = [(stack.rho_alpha, stack.rows, sys_.dim_alpha)]
    if stack.rho_beta is not None:
        sides.append((stack.rho_beta, stack.cols, sys_.dim_beta))
    cells, columns = "%.17g,", []
    for m, levels, n in sides:
        levels = levels.tolist()
        # The zeros before each level (they ascend) and after the last one.
        zeros = [b - a - 1 for a, b in zip([-1, *levels], [*levels, n])]
        cells += "%.17g,".join(["0," * k for k in zeros])
        columns.append(m.diagonal(axis1=-2, axis2=-1).real)
    columns += [_max_coherence(m)[:, None] for m, _, _ in sides]
    if stack.error is not None:
        columns.append(stack.error[:, None])
    template = (f"{cells}{'%.17g,' * len(sides)}{'' if stack.error is None else '%.17g'},"
                f"{stack.verdict.replace('%', '%%')},{stack.iterations}\n")
    table = np.concatenate(columns, axis=1)
    for t, numbers in zip(ts, np.broadcast_to(table, (len(ts), table.shape[1]))):
        yield template % (t, *numbers.tolist())


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
    out = _reducer(rcfg, BipartiteSystem(args.dims[0], args.dims[1])).one(rho)
    print(_dumps(out._to_json(mc._matrix_fields)))
    return 0


# ---------------------------------------------------------------- decompose


def cmd_decompose(args) -> int:
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


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config path")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], help="override output format")
    p.set_defaults(func=cmd_run)


def _reduce_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("state", help="density matrix JSON file")
    p.add_argument("--dims", type=int, nargs=2, required=True, metavar=("NA", "NB"))
    p.add_argument("--method", choices=list(REDUCTION), default=METHOD[1])
    p.add_argument("--level", type=int, default=0, help="projective level index")
    p.add_argument("--sigma", help="conditioning state file")
    p.add_argument("--given-side", choices=["alpha", "beta"])
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--seed", help="'neumann' or file:<path>")
    p.set_defaults(func=cmd_reduce)


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "kind", choices=["epr", "triplet", "spin_pair_initial", "spin_pair_t"]
    )
    p.add_argument("--theta", type=float, default=0.0, help="hidden phase")
    p.add_argument("--phi", type=float, default=0.0, help="initial mixing angle")
    p.add_argument("--c", type=float, default=1.0, help="flip-flop coupling")
    p.add_argument("--t", type=float, default=0.0, help="time")
    p.add_argument("--omega", type=float, default=1.0, help="Zeeman frequency")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--report-only",
        action="store_true",
        help="exit 0 even when the assembled ensemble misses the target",
    )
    p.set_defaults(func=cmd_decompose)


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("state")
    p.add_argument("--level", choices=["strict", "relaxed"], default="strict")
    p.set_defaults(func=cmd_validate)


#: Each command's help and the function that adds its arguments, in the
#: order ``corred --help`` lists them.
COMMANDS = {
    "run": ("run an experiment from a JSON config", _run_arguments),
    "reduce": ("reduce a density-matrix file", _reduce_arguments),
    "decompose": ("hidden-ensemble decomposition", _decompose_arguments),
    "validate": ("validate a density-matrix file", _validate_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``corred`` parser, with every command's subparser and arguments."""
    parser = argparse.ArgumentParser(
        prog="corred",
        description="Reduction algorithms for bipartite quantum states "
        "(dimensionless units, hbar = k_B = 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_))
    return parser


class _Arguments:
    """The arguments that a command's function in ``COMMANDS`` adds, recorded
    in place of a parser: flags by name and positionals in order, each as
    (dest, nargs, type, choices, required) with nargs 0 for a switch, and
    every dest's default."""

    def __init__(self, command: str):
        self.flags, self.positionals, self.defaults = {}, [], {"command": command}

    def add_argument(self, name, *, nargs=None, action=None, type=str, choices=None,
                     default=None, required=False, help=None, metavar=None):
        if action == "store_true":
            nargs, default = 0, False
        elif action is not None:
            raise TypeError(f"_plain does not read action={action!r}")
        dest = name.lstrip("-").replace("-", "_")
        # argparse passes a default given as a string through the type.
        self.defaults[dest] = type(default) if isinstance(default, str) else default
        if name.startswith("-"):
            self.flags[name] = (dest, nargs, type, choices, required)
        else:
            self.positionals.append((dest, nargs, type, choices, required))

    def set_defaults(self, **kwargs) -> None:
        self.defaults.update(kwargs)


def _plain(argv: list[str]) -> argparse.Namespace | None:
    """argv read as ``build_parser().parse_args`` reads it, with no parser
    made, if it is plain: a command's name, then its positionals and its
    flags spelled out in full, each flag followed by its values, no token
    of which starts with "-", every value of its type and among its
    choices, and every required argument there. None for any other command
    line, which argparse reads, and reports where it is wrong.

    On a 2-core host, right after other work has left the caches cold,
    building argparse's five parsers and parsing takes about 1.1 ms (0.7 ms
    with only the command's arguments added), against 0.07 ms here; a
    ``run`` of 10 time points at n_max = 256 takes about 1 ms besides.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    spec = _Arguments(argv[0])
    COMMANDS[argv[0]][1](spec)
    values, given = dict(spec.defaults), set()
    positionals, tokens = iter(spec.positionals), iter(argv[1:])
    for token in tokens:
        flag = token.startswith("-")
        arg = spec.flags.get(token) if flag else next(positionals, None)
        if arg is None:
            return None
        dest, nargs, type_, choices, _ = arg
        count = 1 if nargs is None else nargs
        raw = list(itertools.islice(tokens, count)) if flag else [token]
        if len(raw) != count or any(v.startswith("-") for v in raw):
            return None
        try:
            got = [type_(v) for v in raw]
        except ValueError:
            return None
        if choices is not None and any(v not in choices for v in got):
            return None
        # A switch is True, one value itself, and nargs values a list.
        values[dest] = True if count == 0 else got[0] if nargs is None else got
        given.add(dest)
    if next(positionals, None) or any(req and dest not in given
                                      for dest, *_, req in spec.flags.values()):
        return None
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read by ``_plain``, or else parsed by ``build_parser()``.

    argparse's back-references make a parser a reference cycle, which only
    the cyclic garbage collector frees. Made with the collector paused, the
    parsers stay in its youngest generation, and one collection of it
    (about 0.04 ms) frees them before the command runs.
    """
    args = _plain(argv)
    if args is None:
        with _collector_paused():
            args = build_parser().parse_args(argv)
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
    _setup_logging()
    argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
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
