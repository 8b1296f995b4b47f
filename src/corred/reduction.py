"""Reduction algorithms for bipartite states.

Covers the von Neumann partial-trace reduction, reduction conditioned on an
assumed state of the unobserved subsystem, its projective special case, the
replacement operator, the correlated (self-congruent) fixed-point iteration,
and mean-value / correlator bookkeeping. The von Neumann, projective and
correlated reductions all return a ``ReductionResult``; the correlated one
starts from a given alpha state and adds the verdict and trajectory of its
fixed-point run.
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

#: Update orders of the correlated fixed-point iteration.
SCHEMES = ("gauss-seidel", "jacobi")


def _mat(x) -> np.ndarray:
    return x.matrix if isinstance(x, DensityMatrix) else mc.as_matrix(x)


@dataclass(frozen=True)
class ReductionResult:
    """Reduced pair of one reduction run.

    ``reconstruction_error`` is the max-abs difference between the composite
    state and the product rho_alpha x rho_beta, or None when ``rho_beta`` is
    absent. The correlated reduction also reports its fixed-point run: the
    ``verdict`` (converged | max_iter | oscillating | degenerate), the number
    of ``iterations``, the max-abs change of each sweep in ``residuals`` and
    near-degeneracy ``warnings``. The one-shot methods leave these at "-", 0
    and empty.
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


def conditioned_reduce(rho, sys: BipartiteSystem, sigma, given_side: str) -> DensityMatrix:
    """Reduction given an assumed state ``sigma`` of subsystem ``given_side``.

    Returns the reduced state of the *other* subsystem. With sigma equal to
    the minimum-information state this coincides with the partial trace.
    """
    r = _mat(rho)
    sys.check(r)
    return DensityMatrix(_condition(r, sys, _mat(sigma), given_side), validation="relaxed")


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


def correlated_reduce(
    rho,
    sys: BipartiteSystem,
    seed=None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    scheme: str = "gauss-seidel",
) -> ReductionResult:
    """Self-congruent reduction by fixed-point iteration of the coupled pair.

    Each sweep updates the beta iterate from the current alpha iterate and
    then (Gauss-Seidel, the default) the alpha iterate from the fresh beta
    iterate; ``scheme='jacobi'`` updates both from the previous sweep, which
    is useful for studying oscillatory behavior. Iterates are hermitized and
    trace-renormalized every step; convergence is measured by the max-abs
    change of both iterates.

    Parameters
    ----------
    seed : DensityMatrix or array, optional
        Starting alpha iterate; the partial trace over beta by default. The
        beta iterate always starts at the partial trace over alpha.
    """
    r = _mat(rho)
    sys.check(r)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be 'gauss-seidel' or 'jacobi', got {scheme!r}")

    ra = mc.partial_trace(r, sys, over="beta") if seed is None else _mat(seed)
    rb = mc.partial_trace(r, sys, over="alpha")

    warnings: list[str] = []
    residuals: list[float] = []
    prev2: tuple[np.ndarray, np.ndarray] | None = None
    verdict = "max_iter"
    n = 0
    try:
        for n in range(1, max_iter + 1):
            if scheme == "gauss-seidel":
                rb_new = _condition(r, sys, ra, "alpha", warnings)
                ra_new = _condition(r, sys, rb_new, "beta", warnings)
            else:
                rb_new = _condition(r, sys, ra, "alpha", warnings)
                ra_new = _condition(r, sys, rb, "beta", warnings)
            residual = max(mc.max_abs_diff(ra_new, ra), mc.max_abs_diff(rb_new, rb))
            residuals.append(residual)
            if residual < tol:
                ra, rb = ra_new, rb_new
                verdict = "converged"
                break
            # Period-2 cycle: the new iterate repeats the one from two sweeps
            # ago while successive iterates stay apart. By the triangle
            # inequality a cycle needs residual > previous residual - tol, so
            # a residual that is still shrinking skips the comparison.
            if prev2 is not None and residual + 2 * tol > residuals[-2] and (
                mc.max_abs_diff(ra_new, prev2[0]) < tol
                and mc.max_abs_diff(rb_new, prev2[1]) < tol
            ):
                ra, rb = ra_new, rb_new
                verdict = "oscillating"
                break
            prev2 = (ra, rb)
            ra, rb = ra_new, rb_new
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
    red = neumann_reduce(r, sys)
    mean_a_n = mean_value(red.rho_alpha, a)
    mean_b_n = mean_value(red.rho_beta, b)
    ab_form = ba_form = None
    if abs(mean_a_n) > MEAN_ZERO_TOL and abs(mean_b_n) > MEAN_ZERO_TOL:
        sigma_b = state_from_observable(b.matrix)
        sigma_a = state_from_observable(a.matrix)
        rho_alpha_b = conditioned_reduce(r, sys, sigma_b, given_side="beta")
        rho_beta_a = conditioned_reduce(r, sys, sigma_a, given_side="alpha")
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
