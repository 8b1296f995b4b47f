"""Dense complex linear algebra for bipartite systems.

The composite index layout (``BipartiteSystem``), the one contraction kernel
behind partial traces and conditioning, of an N x N state, of a pure
state's amplitude vector or of a stack of amplitude matrices (``_contract``),
the comparison and hermiticity helpers, and the JSON (de)serialization of
complex matrices. A stack carries leading axes, (..., Na, Nb), and each of
its states gets the bits it gets alone; the caller may give a stack on the
leading levels that can hold its states, a model's block (see ``reduction``).
Kronecker products and eigendecompositions are numpy's own (``np.kron``,
``np.linalg.eigh``).

All operators are plain ``numpy.ndarray`` of dtype complex128, row-major.
Composite basis convention: within each subsystem the levels are listed in
descending energy (index 0 is the highest level, e.g. |2> before |1> for a
two-level system), and the composite index of the pair (i, i') is
``i * dim_beta + i'`` -- exactly the ordering produced by ``numpy.kron``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .errors import DimensionMismatch

#: Default absolute per-entry comparison tolerance.
DEFAULT_TOL = 1e-10


def as_matrix(data) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def max_abs_diff(a, b) -> float:
    """Max-abs elementwise difference, the comparison metric used throughout."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and max_abs_diff(m, m.conj().T) < tol


def hermitize(m) -> np.ndarray:
    """Project onto the hermitian part, (M + M^dag)/2, of each matrix of a stack (..., n, n)."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class BipartiteSystem:
    """Dimension pair (N_alpha, N_beta) fixing the composite index layout.

    The composite index of basis pair (i, i') is ``i * dim_beta + i'`` with
    subsystem levels ordered by descending energy (see module docstring).
    Each dimension is an integer (``operator.index`` takes it: an int or a
    numpy integer, not 2.0) and >= 1, else DimensionMismatch.
    """

    dim_alpha: int
    dim_beta: int

    def __post_init__(self):
        try:
            operator.index(self.dim_alpha), operator.index(self.dim_beta)
        except TypeError:
            raise DimensionMismatch(f"subsystem dimensions must be integers, "
                                    f"got ({self.dim_alpha!r}, {self.dim_beta!r})") from None
        if self.dim_alpha < 1 or self.dim_beta < 1:
            raise DimensionMismatch(
                f"subsystem dimensions must be >= 1, got ({self.dim_alpha}, {self.dim_beta})"
            )

    @property
    def dim(self) -> int:
        """Composite dimension N_alpha * N_beta."""
        return self.dim_alpha * self.dim_beta


def partial_trace(rho, sys: BipartiteSystem, over: str) -> np.ndarray:
    """Partial trace of a composite operator over one subsystem.

    Parameters
    ----------
    rho : array_like
        Square matrix of the composite dimension.
    sys : BipartiteSystem
        Dimension pair fixing the index layout.
    over : {'alpha', 'beta'}
        Subsystem to trace out; the result lives on the other one.
    """
    return _contract(as_matrix(rho), sys, over)


def _contract(state: np.ndarray, sys: BipartiteSystem, over: str,
              weight: np.ndarray | None = None) -> np.ndarray:
    """Sp_over(rho W'), with W' the weight W on ``over`` extended by the identity.

    W' is W x 1 for ``over='alpha'`` and 1 x W for ``over='beta'``; with no
    weight this is the partial trace. ``state`` is one of:

    * the N x N rho (2-D). One einsum on its (Na, Nb, Na, Nb) view costs
      O(Na^2 Nb^2) and never forms W' or the O(N^3) product rho W';
    * a pure state's amplitude vector psi (1-D), rho = psi psi^dag;
    * a stack of amplitude matrices Psi = psi.reshape(Na, Nb) with leading
      axes (..., Na, Nb), 3-D or more; the weight may then carry the same
      leading axes, one W per state. A stack keeps the (Na, Nb) split, since
      K vectors of length N, (K, N), would read as rho where K = N.

    On amplitudes, with P = Psi over beta and P = Psi^T over alpha, it is
    P P^dag, or P W^T P^dag with a weight: O(Na Nb (Na + Nb)) per state, by
    broadcasting matmul, and psi psi^dag is never formed. One vector is a
    stack with no leading axis, so it gets the same bits as in a stack.
    """
    na, nb = sys.dim_alpha, sys.dim_beta
    if over not in ("alpha", "beta"):
        raise ValueError(f"over must be 'alpha' or 'beta', got {over!r}")
    n = na if over == "alpha" else nb
    if weight is not None and weight.shape[-2:] != (n, n):
        raise DimensionMismatch(f"operator shape {weight.shape} does not match dim_{over}={n}")
    if state.ndim != 2:
        p = state.reshape(na, nb) if state.ndim == 1 else state
        if over == "alpha":
            p = p.swapaxes(-1, -2)
        return (p if weight is None else p @ weight.swapaxes(-1, -2)) @ p.conj().swapaxes(-1, -2)
    if state.shape != (sys.dim, sys.dim):
        raise DimensionMismatch(
            f"matrix shape {state.shape} does not match composite dimension {sys.dim}"
        )
    r = state.reshape(na, nb, na, nb)
    if weight is None:
        return np.einsum("ibjb->ij" if over == "beta" else "aiaj->ij", r)
    if over == "alpha":
        return np.einsum("ibjc,ji->bc", r, weight)
    return np.einsum("ibjc,cb->ij", r, weight)


def matrix_to_json(m) -> dict:
    """Serialize to the shared schema {"rows", "cols", "data": [[re, im], ...]}."""
    obj = _matrix_fields(m)
    data = obj["data"]
    obj["data"] = np.stack([data.real.ravel(), data.imag.ravel()], 1).tolist()
    return obj


def _matrix_fields(m) -> dict:
    """``matrix_to_json``'s object with the complex matrix itself as its "data",
    for a writer that encodes the array without the [re, im] lists (``cli._dumps``)."""
    m = as_matrix(m)
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m}


def _json_size(obj: dict, key: str) -> int:
    """``obj[key]`` as an int; an integral float such as 2.0 counts, 2.5 or a bool does not."""
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DimensionMismatch(f"{key} must be an integer, got {value!r}")


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _json_size(obj, "rows"), _json_size(obj, "cols")
    data = obj["data"]
    if len(data) != rows * cols:
        raise DimensionMismatch(f"data length {len(data)} != rows*cols = {rows * cols}")
    if not set(map(len, data)) <= {2}:
        raise ValueError("data entries must be [re, im] pairs")
    flat = list(chain.from_iterable(data))
    # bool is a Real, and JSON true/false would otherwise read as 1 and 0.
    if any(t is bool or not issubclass(t, Real) for t in set(map(type, flat))):
        raise ValueError("data entries must be numbers")
    return np.array(flat, dtype=float).view(complex).reshape(rows, cols)
