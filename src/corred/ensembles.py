"""Hidden-ensemble decompositions of entangled two-qubit states.

An ensemble is a weighted sum of product terms sum_i p_i (L_i x R_i) that
assembles an entangled state exactly. The individual terms carry unit trace
but are deliberately *not* positive semidefinite: their off-diagonal entries
encode the phase correlation between the subsystems, not a superposition
within one subsystem. They are therefore stored as raw matrices, never as
DensityMatrix values.

The four-term ensembles turn the hidden phase theta of their terms by exact
quarter turns, i**k exp(i theta), not exp(i (theta + k pi / 2)), whose
offset rounding loses at large |theta|; so they assemble for every theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import DimensionMismatch, TieUndefined
from .matrixcore import BipartiteSystem
from .models import spin_pair_correlation
from .states import DensityMatrix

WEIGHT_TOL = 1e-12
TIE_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleTerm:
    weight: float
    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class Ensemble:
    """Weighted list of product terms over a bipartite system."""

    terms: tuple[EnsembleTerm, ...]
    system: BipartiteSystem

    def __post_init__(self):
        total = 0.0
        for term in self.terms:
            if term.weight < -WEIGHT_TOL:
                raise ValueError(f"negative weight {term.weight}")
            total += term.weight
            for mat, dim in ((term.left, self.system.dim_alpha),
                             (term.right, self.system.dim_beta)):
                m = mc.as_matrix(mat)
                if m.shape != (dim, dim):
                    raise DimensionMismatch(f"term shape {m.shape} vs dimension {dim}")
                if abs(m.trace() - 1.0) > WEIGHT_TOL:
                    raise ValueError(f"term trace {m.trace()} != 1")
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "p": t.weight,
                    "left": mc.matrix_to_json(t.left),
                    "right": mc.matrix_to_json(t.right),
                }
                for t in self.terms
            ],
            "dims": [self.system.dim_alpha, self.system.dim_beta],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Ensemble":
        sys_ = BipartiteSystem(*obj["dims"])
        terms = tuple(
            EnsembleTerm(
                weight=float(t["p"]),
                left=mc.matrix_from_json(t["left"]),
                right=mc.matrix_from_json(t["right"]),
            )
            for t in obj["terms"]
        )
        return cls(terms=terms, system=sys_)


def assemble(e: Ensemble) -> np.ndarray:
    """Composite matrix sum_i p_i (left_i x right_i)."""
    out = np.zeros((e.system.dim, e.system.dim), dtype=complex)
    for t in e.terms:
        out += t.weight * np.kron(t.left, t.right)
    return out


#: i**k, exactly.
_QUARTER_TURNS = (1, 1j, -1, -1j)


def _qubit_term(upper: bool, theta: float, quarter: int = 0) -> np.ndarray:
    """Unit-trace 2x2 term with diagonal {1,0} (upper) or {0,1}, coherence
    exp(i*theta) i**quarter / sqrt(2) in the (0,1) slot: the phase theta
    plus ``quarter`` quarter turns."""
    z = 1 / math.sqrt(2) * np.exp(1j * theta) * _QUARTER_TURNS[quarter]
    if upper:
        return np.array([[1.0, z], [np.conj(z), 0.0]])
    return np.array([[0.0, z], [np.conj(z), 1.0]])


_QUBIT_PAIR = BipartiteSystem(2, 2)

P_UP = np.diag([1.0, 0.0]).astype(complex)
P_DOWN = np.diag([0.0, 1.0]).astype(complex)


def epr_decomposition(theta: float = 0.0) -> Ensemble:
    """Four-term equiprobable hidden ensemble assembling the EPR state.

    The left/right phases within each summand differ by pi (or 3*pi/2 vs
    pi/2), which produces the -1/2 coherences on assembly; theta itself is
    unobservable in the assembled state.
    """
    terms = (
        EnsembleTerm(0.25, _qubit_term(True, theta), _qubit_term(False, theta, 2)),
        EnsembleTerm(0.25, _qubit_term(True, theta, 2), _qubit_term(False, theta)),
        EnsembleTerm(0.25, _qubit_term(False, theta, 1), _qubit_term(True, theta, 3)),
        EnsembleTerm(0.25, _qubit_term(False, theta, 3), _qubit_term(True, theta, 1)),
    )
    return Ensemble(terms=terms, system=_QUBIT_PAIR)


def triplet_decomposition(theta: float = 0.0) -> Ensemble:
    """Four-term hidden ensemble assembling the triplet-like state.

    Here the left/right factors of each summand share the same phase, giving
    +1/2 coherences on assembly.
    """
    terms = tuple(
        EnsembleTerm(0.25, _qubit_term(k % 2 == 0, theta, k), _qubit_term(k % 2 == 1, theta, k))
        for k in range(4)
    )
    return Ensemble(terms=terms, system=_QUBIT_PAIR)


def _stationary(phi: float, theta: float) -> Ensemble | None:
    """The EPR four-term ensemble at tan(phi) = 1 and the triplet one at
    tan(phi) = -1, where the spin-pair state does not change and each
    assembles it exactly; None at any other phi."""
    tan_phi = math.tan(phi) if abs(math.cos(phi)) > 1e-300 else math.inf
    if abs(tan_phi - 1.0) < 1e-12:
        return epr_decomposition(theta)
    if abs(tan_phi + 1.0) < 1e-12:
        return triplet_decomposition(theta)
    return None


def _diagonal(up: float, down: float, up_first: bool) -> Ensemble:
    """The two-term diagonal ensemble of weight ``up`` on |1><1| x |2><2|
    and ``down`` on |2><2| x |1><1|, the first term first as ``up_first``
    says. A term of weight not above WEIGHT_TOL carries no content and is
    left out."""
    terms = (EnsembleTerm(up, P_UP, P_DOWN), EnsembleTerm(down, P_DOWN, P_UP))
    terms = terms if up_first else terms[::-1]
    return Ensemble(terms=tuple(term for term in terms if term.weight > WEIGHT_TOL),
                    system=_QUBIT_PAIR)


def spin_pair_initial_decomposition(phi: float, theta: float = 0.0) -> Ensemble:
    """Hidden-ensemble representation of the spin-pair initial state.

    Exact only at |tan(phi)| = 1, where it delegates to the EPR / triplet
    four-term ensembles; elsewhere it is the printed two-term diagonal
    approximation (see verify_ensemble for the resulting error report).
    """
    stationary = _stationary(phi, theta)
    if stationary is not None:
        return stationary
    c2, s2 = math.cos(phi) ** 2, math.sin(phi) ** 2
    # |tan(phi)| > 1 outside the window that _stationary takes.
    return _diagonal(c2, s2, True) if s2 > c2 else _diagonal(s2, c2, False)


def spin_pair_reduced_decomposition(
    phi: float, c: float, t: float, theta: float = 0.0
) -> Ensemble:
    """Correlated-reduction ensemble of the evolved spin-pair state.

    The branch is selected by the sign of C(phi, t) = cos(2 phi) cos(2 c t);
    weights are P/2 = (1 + C)/2 and M/2 = (1 - C)/2. Exactly at C = 0 the
    branch is undefined and TieUndefined is raised; at |tan(phi)| = 1 the
    stationary EPR / triplet ensembles apply for all t.
    """
    stationary = _stationary(phi, theta)
    if stationary is not None:
        return stationary
    corr = spin_pair_correlation(phi, c, t)
    if abs(corr) < TIE_TOL:
        raise TieUndefined(f"C(phi={phi}, t={t}) = {corr:.3e} is at the branch tie")
    # Dominant term first; the sign of the correlation selects which pair it is.
    return _diagonal((1.0 + corr) / 2.0, (1.0 - corr) / 2.0, corr > 0)


@dataclass(frozen=True)
class VerificationReport:
    """Elementwise comparison of an assembled ensemble against a target state."""

    max_error: float
    diagonal_error: float
    coherence_error: float
    matches: bool
    tolerance: float


def verify_ensemble(e: Ensemble, target: DensityMatrix | np.ndarray,
                    tol: float = 1e-10) -> VerificationReport:
    """Compare assemble(e) with the target state, entry group by entry group."""
    tgt = target.matrix if isinstance(target, DensityMatrix) else mc.as_matrix(target)
    if tgt.shape != (e.system.dim, e.system.dim):
        raise DimensionMismatch(f"target shape {tgt.shape} vs composite dim {e.system.dim}")
    diff = np.abs(assemble(e) - tgt)
    diag = float(np.max(np.diag(diff)))
    off = float(np.max(diff - np.diag(np.diag(diff)))) if diff.shape[0] > 1 else 0.0
    max_err = float(np.max(diff))
    return VerificationReport(
        max_error=max_err,
        diagonal_error=diag,
        coherence_error=off,
        matches=max_err < tol,
        tolerance=tol,
    )


def diagonal_statistics(e: Ensemble) -> dict:
    """Ensemble averages of the hidden diagonal variable on the alpha side.

    Averages a22 (the upper-level population of each term), a22*(1 - a22) and
    a22^2 over the terms with their weights; for the four-term hidden
    ensembles the diagonal values are exactly {1, 0}, making the averages
    0 and 1/2 respectively.
    """
    a22 = np.array([float(np.real(t.left[0, 0])) for t in e.terms])
    w = np.array([t.weight for t in e.terms])
    return {
        "mean_a22": float(w @ a22),
        "mean_a22_times_1_minus_a22": float(w @ (a22 * (1.0 - a22))),
        "mean_a22_squared": float(w @ (a22**2)),
    }
