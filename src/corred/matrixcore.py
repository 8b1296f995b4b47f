"""Dense complex linear algebra for bipartite systems.

All operators are plain ``numpy.ndarray`` of dtype complex128, row-major.
Composite basis convention: within each subsystem the levels are listed in
descending energy (index 0 is the highest level, e.g. |2> before |1> for a
two-level system), and the composite index of the pair (i, i') is
``i * dim_beta + i'`` -- exactly the ordering produced by ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian

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
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.asarray(a).size else 0.0


def matrices_close(a, b, tol: float = DEFAULT_TOL) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and max_abs_diff(a, b) < tol


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and max_abs_diff(m, m.conj().T) < tol


def hermitize(m) -> np.ndarray:
    """Project onto the hermitian part, (M + M^dag)/2."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def projector(psi) -> np.ndarray:
    """psi psi^dag of an amplitude vector, hermitized.

    The product alone is hermitian only to roundoff: numpy's complex
    multiply may round psi_i psi_j^* and (psi_j psi_i^*)^* differently.
    """
    psi = np.asarray(psi, dtype=complex)
    return hermitize(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class BipartiteSystem:
    """Dimension pair (N_alpha, N_beta) fixing the composite index layout.

    The composite index of basis pair (i, i') is ``i * dim_beta + i'`` with
    subsystem levels ordered by descending energy (see module docstring).
    """

    dim_alpha: int
    dim_beta: int

    def __post_init__(self):
        if self.dim_alpha < 1 or self.dim_beta < 1:
            raise DimensionMismatch(
                f"subsystem dimensions must be >= 1, got ({self.dim_alpha}, {self.dim_beta})"
            )

    @property
    def dim(self) -> int:
        """Composite dimension N_alpha * N_beta."""
        return self.dim_alpha * self.dim_beta

    def check(self, rho: np.ndarray) -> None:
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"matrix shape {rho.shape} does not match composite dimension {self.dim}"
            )


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a hermitian matrix.

    ``eigenvalues`` ascending, ``eigenvectors`` orthonormal columns, so that
    V diag(lam) V^dag reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product, block (i, j) equal to a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


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


def _contract(rho: np.ndarray, sys: BipartiteSystem, over: str,
              weight: np.ndarray | None = None) -> np.ndarray:
    """Sp_over(rho W'), with W' the weight W on ``over`` extended by the identity.

    W' is W x 1 for ``over='alpha'`` and 1 x W for ``over='beta'``; with no
    weight this is the partial trace. One einsum on the (Na, Nb, Na, Nb) view
    of rho costs O(Na^2 Nb^2) and never forms W' or the O(N^3) product rho W'.
    """
    sys.check(rho)
    na, nb = sys.dim_alpha, sys.dim_beta
    r = rho.reshape(na, nb, na, nb)
    if over not in ("alpha", "beta"):
        raise ValueError(f"over must be 'alpha' or 'beta', got {over!r}")
    if weight is None:
        return np.einsum("ibjb->ij" if over == "beta" else "aiaj->ij", r)
    n = na if over == "alpha" else nb
    if weight.shape != (n, n):
        raise DimensionMismatch(f"operator shape {weight.shape} does not match dim_{over}={n}")
    if over == "alpha":
        return np.einsum("ibjc,ji->bc", r, weight)
    return np.einsum("ibjc,cb->ij", r, weight)


def extend(op, sys: BipartiteSystem, side: str) -> np.ndarray:
    """Embed a subsystem operator in the composite space (A x 1 or 1 x B)."""
    op = as_matrix(op)
    if side == "alpha":
        if op.shape != (sys.dim_alpha, sys.dim_alpha):
            raise DimensionMismatch(
                f"operator shape {op.shape} does not match dim_alpha={sys.dim_alpha}"
            )
        return np.kron(op, np.eye(sys.dim_beta))
    if side == "beta":
        if op.shape != (sys.dim_beta, sys.dim_beta):
            raise DimensionMismatch(
                f"operator shape {op.shape} does not match dim_beta={sys.dim_beta}"
            )
        return np.kron(np.eye(sys.dim_alpha), op)
    raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")


def hermitian_eig(h, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigendecomposition of a hermitian matrix (eigenvalues ascending)."""
    h = as_matrix(h)
    if not is_hermitian(h, tol):
        raise NotHermitian("matrix is not hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def evolve_operator(h, t: float, hbar: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary evolution operator exp(-i t H / hbar) of a hermitian generator.

    Computed spectrally, so the output is unitary to roundoff on the whole
    problem class (no series truncation).
    """
    spec = hermitian_eig(h, tol)
    phases = np.exp(-1j * t / hbar * spec.eigenvalues)
    v = spec.eigenvectors
    return (v * phases) @ v.conj().T


def matrix_to_json(m) -> dict:
    """Serialize to the shared schema {"rows", "cols", "data": [[re, im], ...]}."""
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist(),
    }


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
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(rows, cols)
