"""Reduction algorithms for bipartite states.

Covers the von Neumann partial-trace reduction, reduction conditioned on an
assumed state of the unobserved subsystem, its projective special case, the
replacement operator, the correlated (self-congruent) fixed-point iteration,
and mean-value / correlator bookkeeping. Every reduction returns a
``ReductionResult``; the correlated one adds the verdict and trajectory of
its fixed-point run.

The correlated fixed point is the top pair of rho's operator-Schmidt
decomposition, its nearest Kronecker product (Van Loan & Pitsianis 1993):
the loop computes it by Gauss-Seidel sweeps only, each one step of a power
iteration toward it. Where min(Na, Nb) <= CLOSED_FORM_MAX_DIM the loop
therefore starts at that pair, read from the top eigenvector of a Gram
matrix of size min(Na^2, Nb^2). A relative eigenvalue gap above eps / tol
bounds that start's error below tol; the first sweep only recomputes the
pair, so a converged run takes one sweep. It starts at the given alpha
state (the partial trace by default) instead for larger dimensions, where
the top is within eps / tol of a tie, the top vector has a trace about 0,
or the given state does not overlap it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import matrixcore as mc
from .errors import DegenerateOverlap, DimensionMismatch, IndexOutOfRange, NotConverged
from .matrixcore import BipartiteSystem
from .states import DensityMatrix, Observable, state_from_observable

log = logging.getLogger("corred")

#: Overlap denominators below this raise DegenerateOverlap.
DEGENERACY_THRESHOLD = 1e-14
#: Denominators below this (but above the hard threshold) emit a warning.
NEAR_DEGENERACY_THRESHOLD = 1e-10

MEAN_ZERO_TOL = 1e-12

#: Machine epsilon; eigh's error in the closed-form start scales with it.
EPS = np.finfo(float).eps
#: Largest min(Na, Nb) at which the Gauss-Seidel loop starts at its closed
#: form. With n = min(Na, Nb) and m the other dimension, the start costs the
#: flops of about n^2 / 2 sweeps for the Gram matrix plus an n^2 x n^2 eigh
#: growing as n^6 against a sweep's n^2 m^2: a few sweeps at n <= 4, where
#: a loop from the partial trace takes 10 to 17 on random states and
#: thousands near a tie, but at n = 16 an eigh alone of about 35 sweeps.
CLOSED_FORM_MAX_DIM = 4


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else mc.as_matrix(x)


@dataclass(frozen=True)
class ReductionResult:
    """Reduced pair of one reduction run.

    ``reconstruction_error`` is the max-abs difference between the composite
    state and the product rho_alpha x rho_beta, or None when ``rho_beta`` is
    absent, as for a reduction conditioned on the beta side. The correlated
    reduction also reports its fixed-point run: the ``verdict`` (converged |
    max_iter | degenerate), the number of ``iterations``, the max-abs change
    of each sweep in ``residuals`` and near-degeneracy ``warnings``. The
    one-shot methods leave these at "-", 0 and empty.
    """

    rho_alpha: DensityMatrix
    rho_beta: DensityMatrix | None
    method: str
    reconstruction_error: float | None
    verdict: str = "-"
    iterations: int = 0
    residuals: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        """The reduced pair, led by the verdict and trajectory of an iterated run."""
        obj = {}
        if self.iterations:
            obj.update(verdict=self.verdict, iterations=self.iterations, residuals=self.residuals)
        obj.update(
            method=self.method,
            reconstruction_error=self.reconstruction_error,
            rho_alpha=self.rho_alpha.to_json(),
        )
        if self.rho_beta is not None:
            obj["rho_beta"] = self.rho_beta.to_json()
        if self.warnings:
            obj["warnings"] = self.warnings
        return obj


def _reconstruction_error(rho: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> float:
    return mc.max_abs_diff(rho, np.kron(ra, rb))


def neumann_reduce(rho, sys: BipartiteSystem) -> ReductionResult:
    """Both partial traces of the composite state (the standard reduction)."""
    r = _mat(rho)
    sys.check(r)
    ra = mc.partial_trace(r, sys, over="beta")
    rb = mc.partial_trace(r, sys, over="alpha")
    return ReductionResult(
        rho_alpha=DensityMatrix(ra, validation="relaxed"),
        rho_beta=DensityMatrix(rb, validation="relaxed"),
        method="neumann",
        reconstruction_error=_reconstruction_error(r, ra, rb),
    )


def replacement_operator(rho, sys: BipartiteSystem, observed: str = "alpha") -> np.ndarray:
    """Composite product state implied by the standard reduction.

    For ``observed='alpha'`` this is (Sp_beta rho) x (1/N_beta) 1, i.e. the
    observed side keeps its partial trace and the unobserved side is replaced
    by the minimum-information state.
    """
    r = _mat(rho)
    sys.check(r)
    if observed == "alpha":
        ra = mc.partial_trace(r, sys, over="beta")
        return np.kron(ra, np.eye(sys.dim_beta) / sys.dim_beta)
    if observed == "beta":
        rb = mc.partial_trace(r, sys, over="alpha")
        return np.kron(np.eye(sys.dim_alpha) / sys.dim_alpha, rb)
    raise ValueError(f"observed must be 'alpha' or 'beta', got {observed!r}")


def _condition(rho: np.ndarray, sys: BipartiteSystem, sigma: np.ndarray, given_side: str,
               warnings: list[str] | None = None) -> np.ndarray:
    """Raw conditioned reduction: Sp_given(rho sigma') / Sp(rho sigma').

    sigma' is sigma extended by the identity on the other side. The numerator
    is one contraction of rho's (Na, Nb, Na, Nb) view with sigma, O(Na^2 Nb^2)
    for N = Na Nb, where forming sigma' and the product rho sigma' would cost
    O(N^3). Returns the hermitized, trace-normalized reduced matrix of the
    side opposite to ``given_side``.
    """
    numerator = mc._contract(rho, sys, given_side, sigma)
    denom = float(np.real(np.trace(numerator)))
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateOverlap(
            f"overlap denominator {denom:.3e} below {DEGENERACY_THRESHOLD:.0e}; "
            "the conditioning state is orthogonal to the support of rho"
        )
    if abs(denom) < NEAR_DEGENERACY_THRESHOLD:
        msg = f"near-degenerate overlap denominator {denom:.3e}"
        log.warning(msg)
        if warnings is not None:
            warnings.append(msg)
    out = mc.hermitize(numerator / denom)
    return out / np.real(out.trace())


def conditioned_reduce(rho, sys: BipartiteSystem, sigma, given_side: str) -> ReductionResult:
    """Reduction given an assumed state ``sigma`` of subsystem ``given_side``.

    Conditions the state of the *other* subsystem; with sigma equal to the
    minimum-information state this coincides with the partial trace. Given
    beta, the pair is (conditioned alpha, None) with no reconstruction
    error. Given alpha, it is (partial trace over beta, conditioned beta)
    with that pair's reconstruction error.
    """
    r = _mat(rho)
    sys.check(r)
    cond = DensityMatrix(_condition(r, sys, _mat(sigma), given_side), validation="relaxed")
    if given_side == "beta":
        return ReductionResult(cond, None, "conditioned", None)
    ra = mc.partial_trace(r, sys, over="beta")
    return ReductionResult(
        rho_alpha=DensityMatrix(ra, validation="relaxed"),
        rho_beta=cond,
        method="conditioned",
        reconstruction_error=_reconstruction_error(r, ra, cond.matrix),
    )


def projective_reduce(rho, sys: BipartiteSystem, level: int) -> ReductionResult:
    """Reduction conditioned on the unobserved side being in basis state ``level``.

    Pairs the conditioned alpha state with the beta projector itself, the
    quantum-nondemolition-measurement limit.
    """
    r = _mat(rho)
    sys.check(r)
    if not 0 <= level < sys.dim_beta:
        raise IndexOutOfRange(f"level {level} outside [0, {sys.dim_beta})")
    proj = np.zeros((sys.dim_beta, sys.dim_beta), dtype=complex)
    proj[level, level] = 1.0
    ra = _condition(r, sys, proj, given_side="beta")
    return ReductionResult(
        rho_alpha=DensityMatrix(ra, validation="relaxed"),
        rho_beta=DensityMatrix(proj, validation="relaxed"),
        method="projective",
        reconstruction_error=_reconstruction_error(r, ra, proj),
    )


def _schmidt_start(r: np.ndarray, sys: BipartiteSystem, seed: np.ndarray, tol: float,
                   warnings: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """Top operator-Schmidt pair of rho as the loop's start, or None to keep ``seed``.

    With R the realigned state, R[(i,j),(b,c)] = rho[(i,b),(j,c)], a
    Gauss-Seidel sweep maps vec(rho_alpha) to R R^dag vec(rho_alpha) up to
    normalization, so the sweep loop is a power iteration. Its limit is the
    top eigenvector of the Gram matrix R R^dag (Na^2 x Na^2), or, read on
    the beta side, of R^T R^* (Nb^2 x Nb^2); the smaller one is one matmul
    of the realigned copy. That vector, reshaped to a matrix, divided by its
    trace and hermitized, is the start. Returns (rho_alpha, rho_beta) with
    rho_beta = _condition(rho_alpha), the first sweep's beta update.

    None where the start costs more than the sweeps it saves or could be
    another fixed point than the loop from ``seed`` reaches:
    min(Na, Nb) above ``CLOSED_FORM_MAX_DIM``; a relative gap
    (lambda_1 - lambda_2) / lambda_1 at or below eps / tol, since eigh
    places the top vector to about eps / gap and so not within tol; a trace
    about 0, which is no state; and a seed whose overlap with the start is
    below tol, which that vector does not resolve, and which is not drawn
    toward it.
    """
    na, nb = sys.dim_alpha, sys.dim_beta
    if min(na, nb) > CLOSED_FORM_MAX_DIM:
        return None
    rr = r.reshape(na, nb, na, nb).transpose(0, 2, 1, 3).reshape(na * na, nb * nb)
    side, n, gram = ("alpha", na, rr @ rr.conj().T) if na <= nb else ("beta", nb, rr.T @ rr.conj())
    try:
        lam, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:  # non-finite entries in rho
        return None
    top = vecs[:, -1].reshape(n, n)
    trace = np.trace(top)
    if not (np.all(tol * (lam[-1] - lam[:-1]) > EPS * lam[-1])
            and abs(trace) > NEAR_DEGENERACY_THRESHOLD):
        return None
    state = mc.hermitize(top / trace)
    try:
        ra = state if side == "alpha" else _condition(r, sys, state, "beta")
        if seed.shape != ra.shape or not (
            abs(np.vdot(ra, seed)) > tol * np.linalg.norm(ra) * np.linalg.norm(seed)
        ):
            return None
        return ra, _condition(r, sys, ra, "alpha", warnings)
    except DegenerateOverlap:
        return None


def correlated_reduce(
    rho,
    sys: BipartiteSystem,
    seed=None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> ReductionResult:
    """Self-congruent reduction by fixed-point iteration of the coupled pair.

    Each (Gauss-Seidel) sweep updates the beta iterate from the current
    alpha iterate and then the alpha iterate from the fresh beta iterate.
    Iterates are hermitized and trace-renormalized every step; convergence
    is measured by the max-abs change of both iterates, and ``iterations``
    counts the sweeps run. The sweep is a power iteration on a positive
    semidefinite map, so it has no period-2 cycle to detect.

    The loop starts at its closed-form fixed point, the top operator-Schmidt
    pair (``_schmidt_start``), whose error the eigenvalue gap test bounds
    below tol; the first sweep recomputes the pair and a converged run takes
    one sweep. It keeps the seed's start where min(Na, Nb) exceeds
    ``CLOSED_FORM_MAX_DIM``, the top of the spectrum is too close to a tie,
    the top vector's trace is about 0 or the seed does not overlap it.

    Parameters
    ----------
    seed : DensityMatrix or array, optional
        Starting alpha iterate where the loop does not start at the closed
        form; the partial trace over beta by default. The beta iterate then
        starts at the partial trace over alpha.
    """
    r = _mat(rho)
    sys.check(r)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    warnings: list[str] = []
    residuals: list[float] = []
    ra = mc.partial_trace(r, sys, over="beta") if seed is None else _mat(seed)
    start = _schmidt_start(r, sys, ra, tol, warnings)
    ra, rb = start or (ra, mc.partial_trace(r, sys, over="alpha"))
    verdict = "max_iter"
    try:
        for n in range(max_iter):
            # The closed-form start already holds the first sweep's beta update.
            if n == 0 and start is not None:
                rb_new = rb
            else:
                rb_new = _condition(r, sys, ra, "alpha", warnings)
            ra_new = _condition(r, sys, rb_new, "beta", warnings)
            residual = max(mc.max_abs_diff(ra_new, ra), mc.max_abs_diff(rb_new, rb))
            residuals.append(residual)
            ra, rb = ra_new, rb_new
            if residual < tol:
                verdict = "converged"
                break
    except DegenerateOverlap:
        if not residuals:
            raise
        verdict = "degenerate"

    return ReductionResult(
        rho_alpha=DensityMatrix(ra, validation="relaxed"),
        rho_beta=DensityMatrix(rb, validation="relaxed"),
        method="correlated",
        reconstruction_error=_reconstruction_error(r, ra, rb),
        verdict=verdict,
        iterations=len(residuals),
        residuals=residuals,
        warnings=warnings,
    )


def mean_value(rho_sub, a: Observable | np.ndarray) -> complex:
    """Mean value Tr(rho A) of a subsystem observable."""
    r = _mat(rho_sub)
    m = a.matrix if isinstance(a, Observable) else mc.as_matrix(a)
    if r.shape != m.shape:
        raise DimensionMismatch(f"state shape {r.shape} vs observable shape {m.shape}")
    return complex(np.trace(r @ m))


@dataclass(frozen=True)
class CorrelatorBreakdown:
    """Exact correlator <A x B> and its two conditioned factorizations.

    ``ab_form`` is <A>_B * <B>_N (alpha conditioned on the B-derived state),
    ``ba_form`` is <A>_N * <B>_A. The factorized forms are None when either
    von Neumann mean vanishes.
    """

    exact: complex
    ab_form: complex | None
    ba_form: complex | None
    mean_a_neumann: complex
    mean_b_neumann: complex


def correlator(rho, sys: BipartiteSystem, a: Observable, b: Observable) -> CorrelatorBreakdown:
    """Correlator of subsystem observables with both conditioned factorizations.

    The exact value Tr[rho (A x B)] is always computed; the factorized forms
    additionally require nonnegative A, B with nonzero von Neumann means.
    """
    r = _mat(rho)
    sys.check(r)
    exact = complex(np.trace(r @ np.kron(a.matrix, b.matrix)))
    mean_a_n = mean_value(mc.partial_trace(r, sys, over="beta"), a)
    mean_b_n = mean_value(mc.partial_trace(r, sys, over="alpha"), b)
    ab_form = ba_form = None
    if abs(mean_a_n) > MEAN_ZERO_TOL and abs(mean_b_n) > MEAN_ZERO_TOL:
        sigma_b = state_from_observable(b.matrix).matrix
        sigma_a = state_from_observable(a.matrix).matrix
        rho_alpha_b = _condition(r, sys, sigma_b, given_side="beta")
        rho_beta_a = _condition(r, sys, sigma_a, given_side="alpha")
        ab_form = mean_value(rho_alpha_b, a) * mean_b_n
        ba_form = mean_a_n * mean_value(rho_beta_a, b)
    return CorrelatorBreakdown(
        exact=exact,
        ab_form=ab_form,
        ba_form=ba_form,
        mean_a_neumann=mean_a_n,
        mean_b_neumann=mean_b_n,
    )


def correlated_mean_pair(
    result: ReductionResult, a: Observable, b: Observable
) -> tuple[float, float, float]:
    """Correlated means (<A>_C, <B>_C, product) from a converged iteration.

    The product is the factorized approximation to the exact correlator; its
    gap from the exact value measures the accuracy of the product-state
    representation.
    """
    if result.verdict != "converged":
        raise NotConverged(f"iteration verdict is {result.verdict!r}, not 'converged'")
    mean_a = np.real(mean_value(result.rho_alpha, a))
    mean_b = np.real(mean_value(result.rho_beta, b))
    return float(mean_a), float(mean_b), float(mean_a * mean_b)
