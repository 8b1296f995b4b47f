"""Density operators and the special states used throughout the package.

Units: hbar = k_B = 1 everywhere; energies and frequencies are dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import (
    IndexOutOfRange,
    NonPositiveTemperature,
    NotHermitian,
    NotNonnegative,
    ValidationError,
    ZeroTrace,
)

#: Eigenvalue floor for positivity validation.
POSITIVITY_TOL = 1e-10


def _check_level(validation) -> None:
    """A validation level is "strict" or "relaxed", else ValueError."""
    if validation not in ("strict", "relaxed"):
        raise ValueError(f"validation must be 'strict' or 'relaxed', got {validation!r}")


class DensityMatrix:
    """Validated state operator: hermitian, unit trace, positive semidefinite.

    Entries must be finite. ``validation='strict'`` rejects a state with an
    eigenvalue below -tol: it accepts one that ``_positive_within`` certifies
    by one Cholesky factorization, and only a state that the certificate
    does not accept pays the eigensolve, which then decides.
    ``validation='relaxed'`` permits negativity (roundoff in intermediate
    iterates). Either way the minimum eigenvalue is computed only on first
    access of ``min_eigenvalue``, or for a strict state that the certificate
    does not accept, so unread states cost no eigensolve.
    """

    __slots__ = ("matrix", "validation", "_min_eigenvalue")

    def __init__(self, matrix, validation: str = "strict", tol: float = POSITIVITY_TOL):
        m = mc.as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("density matrix has non-finite entries")
        if not mc.is_hermitian(m, tol):
            raise ValidationError("density matrix is not hermitian within tolerance")
        tr = m.trace()
        if abs(tr - 1.0) > max(tol, 1e-12):
            raise ValidationError(f"trace must be 1, got {tr}")
        _check_level(validation)
        self.matrix = m
        self.validation = validation
        self._min_eigenvalue: float | None = None
        if validation == "strict" and not _positive_within(m, tol):
            self._check_positive(tol)

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "DensityMatrix":
        """A relaxed state of a complex matrix built hermitian with unit trace, stored as it is."""
        dm = cls.__new__(cls)
        dm.matrix, dm.validation, dm._min_eigenvalue = matrix, "relaxed", None
        return dm

    def _check_positive(self, tol: float = POSITIVITY_TOL) -> None:
        """Strict validation's test, decided by the eigensolve: no eigenvalue below -tol."""
        if self.min_eigenvalue < -tol:
            raise ValidationError(f"negative eigenvalue {self.min_eigenvalue} below -{tol}")

    @property
    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the hermitian part, computed once and cached."""
        if self._min_eigenvalue is None:
            self._min_eigenvalue = float(np.linalg.eigvalsh(mc.hermitize(self.matrix)).min())
        return self._min_eigenvalue

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def to_json(self) -> dict:
        return self._to_json(mc.matrix_to_json)

    def _to_json(self, matrix) -> dict:
        """``to_json`` with the matrix encoded by ``matrix`` in place of ``mc.matrix_to_json``."""
        obj = matrix(self.matrix)
        obj["kind"] = "density"
        obj["validation"] = self.validation
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "DensityMatrix":
        return cls(mc.matrix_from_json(obj), validation=obj.get("validation", "strict"))

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, validation={self.validation!r})"


def _positive_within(m: np.ndarray, tol: float) -> bool:
    """True when one Cholesky factorization proves that no eigenvalue of
    H = hermitize(m), the matrix ``min_eigenvalue`` reads, is below -tol;
    False leaves the decision to the eigensolve. m is square with finite
    entries and real trace within tol of 1.

    The factorization is of A = H + (tol/2) I. If it runs to completion, the
    computed factor L satisfies L L^dag = A + E with |E| <= g |L| |L^dag|
    entrywise, g about (n + 1) u for unit roundoff u (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3; complex arithmetic
    costs a small constant factor, Sec. 3.6). Hence ||E||_2 <= g ||L||_F^2,
    and ||L||_F^2 = tr(A + E) <= tr(A) + g ||L||_F^2, so ||E||_2 is at most
    g tr(A) / (1 - g): it is bounded by the trace, whatever the norm of H.
    L L^dag has no negative eigenvalue, so lambda_min(H) >= -tol/2 - ||E||_2.
    The premise checked below takes g as 8 (n + 1) u and asks the bound to
    be under tol/4, so an accepted H has lambda_min >= -3 tol / 4, where the
    eigensolve, whose own error is of the same small order, accepts it too.
    At the default tol and n = 514 the bound is about 5e-13 against 2.5e-11,
    and it holds up to n of about 28,000; a tol too small for n leaves every
    state to the eigensolve.
    """
    n = m.shape[0]
    if 4 * (n + 1) * np.finfo(float).eps * (m.trace().real + n * tol / 2) >= tol / 4:
        return False
    a = mc.hermitize(m)
    a.flat[:: n + 1] += tol / 2
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class Observable:
    """Hermitian operator of a subsystem observable."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = mc.as_matrix(self.matrix)
        if not mc.is_hermitian(m):
            raise NotHermitian(f"observable {self.label!r} is not hermitian")
        object.__setattr__(self, "matrix", m)


def minimum_information_state(dim: int) -> DensityMatrix:
    """Maximally mixed state (1/N) I, the infinite-temperature steady state."""
    if dim < 1:
        raise IndexOutOfRange(f"dimension must be >= 1, got {dim}")
    return DensityMatrix(np.eye(dim) / dim)


def thermal_state(h, temperature: float) -> DensityMatrix:
    """Boltzmann state exp(-H/T) / Tr exp(-H/T) of a hermitian hamiltonian.

    ``temperature`` is in energy units (k_B = 1); ``math.inf`` gives the
    minimum-information state; any other not > 0 (nan, -inf) raises.
    """
    h = mc.as_matrix(h)
    if not mc.is_hermitian(h):
        raise NotHermitian("hamiltonian is not hermitian")
    if not temperature > 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    if math.isinf(temperature):
        return minimum_information_state(h.shape[0])
    e, v = np.linalg.eigh(h)
    # Shift by the ground energy before exponentiating to avoid overflow.
    w = np.exp(-(e - e.min()) / temperature)
    w /= w.sum()
    return DensityMatrix((v * w) @ v.conj().T)


def projector_state(dim: int, level: int) -> DensityMatrix:
    """Rank-1 projector |level><level| (level 0 is the highest-energy state)."""
    if not 0 <= level < dim:
        raise IndexOutOfRange(f"level {level} outside [0, {dim})")
    m = np.zeros((dim, dim), dtype=complex)
    m[level, level] = 1.0
    return DensityMatrix(m)


def epr_state() -> DensityMatrix:
    """Maximally entangled singlet-like two-qubit state (coherences -1/2)."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = -0.5
    return DensityMatrix(m)


def triplet_state() -> DensityMatrix:
    """Triplet-like two-qubit state: as the EPR state with +1/2 coherences."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.5
    m[1, 2] = m[2, 1] = 0.5
    return DensityMatrix(m)


def spin_pair_initial(phi: float) -> DensityMatrix:
    """Pure initial state of the spin pair, parametrized by the mixing angle.

    Populations cos^2(phi) on |21> and sin^2(phi) on |12>, coherences
    -sin(phi)cos(phi); phi = pi/4 gives the EPR-like state.
    """
    c, s = math.cos(phi), math.sin(phi)
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = c * c
    m[2, 2] = s * s
    m[1, 2] = m[2, 1] = -s * c
    return DensityMatrix(m)


def state_from_observable(a: Observable | np.ndarray) -> DensityMatrix:
    """Unit-trace normalization A / Tr A of a nonnegative observable."""
    m = a.matrix if isinstance(a, Observable) else mc.as_matrix(a)
    if not mc.is_hermitian(m):
        raise NotHermitian("operator is not hermitian")
    if np.linalg.eigvalsh(mc.hermitize(m)).min() < -POSITIVITY_TOL:
        raise NotNonnegative("operator has a negative eigenvalue")
    tr = float(np.real(m.trace()))
    if tr <= 1e-14:
        raise ZeroTrace(f"trace {tr} too small to normalize")
    return DensityMatrix(m / tr, validation="relaxed")
