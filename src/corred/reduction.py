"""Reduction algorithms for bipartite states.

Covers the von Neumann partial-trace reduction, reduction conditioned on an
assumed state of the unobserved subsystem, its projective special case, the
replacement operator, the correlated (self-congruent) fixed-point iteration,
and mean-value / correlator bookkeeping. Every reduction returns a
``ReductionResult``; the correlated one adds the verdict and trajectory of
its fixed-point run.

States are checked once, at entry (``_state``, ``_matrix``): a
``DensityMatrix`` is taken as it is; a raw matrix, whether the composite
``rho``, a ``sigma`` or a ``seed``, must have the right shape and pass the
relaxed ``DensityMatrix`` check (finite, hermitian, unit trace). ``rho`` may
also be a pure state's amplitude vector psi (1-D, length N). It stays a
vector through every reduction: the one contraction kernel
(``matrixcore._contract``) takes partial traces and conditionings from
Psi = psi.reshape(Na, Nb), and no reduction forms psi psi^dag. The reduced
states are built hermitian with unit trace, and one epilogue (``_result``)
wraps them without a second check and takes the reconstruction error over
blocks of alpha rows of rho, or of Psi, so no N x N temporary is built.

The correlated fixed point is the top pair of rho's operator-Schmidt
decomposition, its nearest Kronecker product (Van Loan & Pitsianis 1993),
which each Gauss-Seidel sweep approaches by one power-iteration step.
``_start``, for one state and a stack alike, starts the loop at that pair
once an a-posteriori residual test bounds its error below tol, and runs the
loop's first sweep from it: a converged run takes one sweep. For psi the
pair is the projector pair on the top Schmidt vectors of Psi, from the
eigh of the Gram Psi Psi^dag or Psi^T Psi^* of the smaller side; for an
N x N rho it is the top Ritz pair of the sweep map on the smaller side,
from Lanczos (``_lanczos``) started at the seed, at any size. Otherwise the
loop starts at the given alpha state, by default the partial trace.

Stacks. The kernels on amplitudes (``_contract``, ``_condition``,
``_start``, ``_reconstruction_error``) also take a stack of
amplitude matrices Psi (..., Na, Nb), 3-D or more, by broadcasting matmul,
and give each state of it the bits it gets alone: one vector is a stack
with no leading axis, not a second implementation. A stack keeps the
(Na, Nb) split, since K vectors of length N would read as an N x N rho
where K = N. Where one state raises or warns, a stack marks that state NaN
instead. ``reduce_stack`` reduces K time points of ``corred run`` this way,
on the levels of a model's block: every alpha level and the leading c beta
levels, which can hold the state, outside which every entry of Psi and
every reduced entry is exactly 0, so no full Nb x Nb matrix is built. A
point that the stack leaves undone is reduced alone from its one-point
block, on the same levels, with no full matrix either; only the public
reductions, which return one, build one. A sum over a block's levels skips
the zero terms off them, so its last bits can differ from the public
reduction of the whole Psi.

One body. The four methods are written once, in ``_pair``: the partial
traces, the conditioning on sigma or on the beta projector, and the
correlated start. ``_reduce_one`` is the one entry of a state reduced
alone, a composite state or, where its caller says so, a model's one-point
block: it checks the state (``_state``) and the settings (``_weights``), and
adds to ``_pair`` the sweep loop, the verdict and the epilogue. Each public
reduction is one call of it, so each refuses a block as no matrix.
``reduce_stack`` calls ``_pair`` on a model's block. ``_weights`` checks a
method's settings against the system and cuts what the method conditions
on to a block's leading beta levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matrixcore as mc
from .errors import (
    DegenerateOverlap,
    DimensionMismatch,
    IndexOutOfRange,
    NotConverged,
    ValidationError,
)
from .matrixcore import BipartiteSystem
from .states import POSITIVITY_TOL, DensityMatrix, Observable, state_from_observable

#: Overlap denominators below this raise DegenerateOverlap.
DEGENERACY_THRESHOLD = 1e-14
#: Denominators below this (but above the hard threshold) add to a result's warnings.
NEAR_DEGENERACY_THRESHOLD = 1e-10

MEAN_ZERO_TOL = 1e-12

#: Largest deviation from 1 of an amplitude vector's squared norm.
NORM_TOL = max(POSITIVITY_TOL, 1e-12)


def _matrix(x, sys: BipartiteSystem, side: str | None = None) -> np.ndarray:
    """The state ``x`` of the composite system, or of one ``side``, as a
    checked matrix: the entry check of every matrix argument. A
    ``DensityMatrix`` is taken as it is, its shape aside; any other array
    must have the shape (else DimensionMismatch) and pass the relaxed
    ``DensityMatrix`` check: finite, hermitian, unit trace (else ValidationError).
    """
    n = sys.dim if side is None else sys.dim_alpha if side == "alpha" else sys.dim_beta
    m = x.matrix if isinstance(x, DensityMatrix) else mc.as_matrix(x)
    if m.shape != (n, n):
        dim = f"composite dimension {n}" if side is None else f"dim_{side}={n}"
        raise DimensionMismatch(f"matrix shape {m.shape} does not match {dim}")
    return m if isinstance(x, DensityMatrix) else DensityMatrix(m, validation="relaxed").matrix


def _state(rho, sys: BipartiteSystem) -> np.ndarray:
    """The composite state ``rho`` as a checked array: a pure state's amplitude
    vector psi (1-D) stays one, checked as a ``DensityMatrix`` checks
    psi psi^dag: length N (else DimensionMismatch), finite entries and unit
    squared norm (else ValidationError; ``_unit`` makes the same check over a
    stack). Anything else goes to ``_matrix``."""
    if isinstance(rho, DensityMatrix) or np.ndim(rho) != 1:
        return _matrix(rho, sys)
    m = np.asarray(rho, dtype=complex)
    if m.shape != (sys.dim,):
        raise DimensionMismatch(f"amplitude vector length {m.size} does not match "
                                f"composite dimension {sys.dim}")
    if not np.isfinite(m).all():
        raise ValidationError("amplitude vector has non-finite entries")
    norm = _norm(m)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValidationError(f"squared norm of the amplitude vector must be 1, got {float(norm)}")
    return m


def _norm(psi: np.ndarray) -> np.ndarray:
    """The squared norm of each amplitude vector of psi (N,) or (K, N),
    summed over the real and imaginary parts, views of psi, so no conjugate
    copy is made; each vector gets the bits it gets alone. A non-finite
    entry gives a non-finite norm."""
    re, im = psi.real, psi.imag
    return np.einsum("...i,...i->...", re, re) + np.einsum("...i,...i->...", im, im)


def _unit(psi: np.ndarray) -> np.ndarray:
    """Which amplitude vectors of psi (K, N) pass ``_state``'s check: a
    non-finite norm fails the comparison."""
    return abs(_norm(psi) - 1.0) <= NORM_TOL


@dataclass(frozen=True)
class ReductionResult:
    """Reduced pair of one reduction run.

    ``reconstruction_error`` is the max-abs difference between the composite
    state and the product rho_alpha x rho_beta, or None when ``rho_beta`` is
    absent, as for a reduction conditioned on the beta side. ``warnings``
    names each near-degenerate overlap of its conditionings (``_condition``).
    The correlated reduction also reports its fixed-point run: its
    ``verdict`` (converged | max_iter | degenerate), the number of
    ``iterations`` and the max-abs change of each sweep in ``residuals``;
    the one-shot methods leave these at "-", 0 and empty.
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
        return self._to_json(mc.matrix_to_json)

    def _to_json(self, matrix) -> dict:
        """``to_json`` with each reduced state's matrix encoded by ``matrix``."""
        obj = {}
        if self.iterations:
            obj.update(verdict=self.verdict, iterations=self.iterations, residuals=self.residuals)
        obj.update(
            method=self.method,
            reconstruction_error=self.reconstruction_error,
            rho_alpha=self.rho_alpha._to_json(matrix),
        )
        if self.rho_beta is not None:
            obj["rho_beta"] = self.rho_beta._to_json(matrix)
        if self.warnings:
            obj["warnings"] = self.warnings
        return obj


def _reconstruction_error(state: np.ndarray, ra: np.ndarray, rb: np.ndarray):
    """max |rho[i,b,j,c] - ra[i,j] rb[b,c]| over the (Na, Nb, Na, Nb) view of
    the N x N ``state``, or of psi psi^dag for an amplitude vector ``state``;
    for a stack of amplitude matrices Psi (..., Na, Nb) with its pairs ra
    (..., Na, Na) and rb (..., Nb, Nb), the array of each state's error.

    Taken one alpha row i of every state at a time, so no N x N temporary:
    rho[i] of the view, or psi psi^dag on the row Psi[i],
    Psi = psi.reshape(Na, Nb) restricted to its rows and columns that hold a
    nonzero entry, in any state of a stack (outside them psi_ib psi_jc^* and
    ra[i,j] rb[b,c] are both exactly 0). The products are np.outer's,
    psi_ib * psi_jc^*, and np.kron's, ra[i,j] * rb[b,c], so the value equals
    max |rho - kron(ra, rb)| exactly, rho = np.outer(psi, psi.conj()) for psi.
    """
    na, nb = ra.shape[-1], rb.shape[-1]
    pure = state.ndim != 2
    if pure:
        psi = state.reshape(na, nb) if state.ndim == 1 else state
        lead = psi.shape[:-2]
        axes = tuple(range(len(lead)))
        rows, cols = psi.any(axis=axes + (-1,)), psi.any(axis=axes + (-2,))
        if not (rows.all() and cols.all()):
            psi = psi[..., rows, :][..., cols]
            ra, rb = ra[..., rows, :][..., rows], rb[..., cols, :][..., cols]
        na, nb = psi.shape[-2:]
        # A column times a row, the shapes np.outer multiplies: numpy can round
        # a one-entry product of other shapes differently (np.multiply.outer of
        # a 1 x 1 Psi gives |psi_k|^2 an imaginary part of 0, np.outer ~1e-17).
        psic = psi.conj().reshape(*lead, 1, -1)
    else:
        lead = ()
        rho = state.reshape(na, nb, na, nb)
    blocks = []
    for i in range(na):
        diff = ra[..., i:i + 1, None, :, None] * rb[..., None, :, None, :]
        np.subtract((psi[..., i:i + 1, :].reshape(*lead, -1, 1) * psic).reshape(diff.shape)
                    if pure else rho[i:i + 1], diff, out=diff)
        blocks.append(np.abs(diff).max(axis=(-4, -3, -2, -1)))
    error = np.max(blocks, axis=0)
    return error if lead else float(error)


def _result(method: str, state: np.ndarray, ra: np.ndarray, rb: np.ndarray | None,
            **run) -> ReductionResult:
    """The epilogue of every reduction: wraps a pair built hermitian with unit
    trace as relaxed states without a second check, with its reconstruction
    error against ``state`` (amplitude vector or N x N; None without ``rb``)."""
    error = None if rb is None else _reconstruction_error(state, ra, rb)
    wrap = DensityMatrix._unchecked
    return ReductionResult(wrap(ra), None if rb is None else wrap(rb), method, error, **run)


def neumann_reduce(rho, sys: BipartiteSystem) -> ReductionResult:
    """Both partial traces of the composite state (the standard reduction).

    For an amplitude vector psi, with Psi = psi.reshape(Na, Nb), they are
    Psi Psi^dag and Psi^T Psi^*: O(N min(Na, Nb)) work plus the output, and
    psi psi^dag is never formed.
    """
    return _reduce_one(rho, sys, "neumann")


def replacement_operator(rho, sys: BipartiteSystem, observed: str = "alpha") -> np.ndarray:
    """Composite product state implied by the standard reduction.

    For ``observed='alpha'`` this is (Sp_beta rho) x (1/N_beta) 1, i.e. the
    observed side keeps its partial trace and the unobserved side is replaced
    by the minimum-information state.
    """
    r = _state(rho, sys)
    na, nb = sys.dim_alpha, sys.dim_beta
    if observed == "alpha":
        return np.kron(mc._contract(r, sys, "beta"), np.eye(nb) / nb)
    if observed == "beta":
        return np.kron(np.eye(na) / na, mc._contract(r, sys, "alpha"))
    raise ValueError(f"observed must be 'alpha' or 'beta', got {observed!r}")


def _condition(rho: np.ndarray, sys: BipartiteSystem, sigma: np.ndarray, given_side: str,
               warnings: list[str]) -> np.ndarray:
    """Raw conditioned reduction: Sp_given(rho sigma') / Sp(rho sigma').

    sigma' is sigma extended by the identity on the other side. The numerator
    is one contraction with sigma (``matrixcore._contract``): O(Na^2 Nb^2) on
    rho's (Na, Nb, Na, Nb) view for N = Na Nb, O(Na Nb (Na + Nb)) on an
    amplitude vector, where forming sigma' and the product rho sigma' would
    cost O(N^3). Returns the reduced matrix of the side opposite to
    ``given_side``: the numerator hermitized, divided once by its real trace.

    On one state a denominator below ``DEGENERACY_THRESHOLD`` raises
    DegenerateOverlap, one below ``NEAR_DEGENERACY_THRESHOLD`` adds its
    message to ``warnings``. On a stack of amplitude matrices (with one
    sigma, or one per state) neither happens: the state's matrix is NaN
    instead, so that the caller reduces that state alone.
    """
    numerator = mc.hermitize(mc._contract(rho, sys, given_side, sigma))
    denom = numerator.trace(axis1=-2, axis2=-1).real
    if denom.ndim:
        near = ~(abs(denom) >= NEAR_DEGENERACY_THRESHOLD)
        numerator /= np.where(near, 1.0, denom)[..., None, None]
        numerator[near] = np.nan
        return numerator
    denom = float(denom)
    if abs(denom) < DEGENERACY_THRESHOLD:
        raise DegenerateOverlap(
            f"overlap denominator {denom:.3e} below {DEGENERACY_THRESHOLD:.0e}; "
            "the conditioning state is orthogonal to the support of rho"
        )
    if abs(denom) < NEAR_DEGENERACY_THRESHOLD:
        warnings.append(f"near-degenerate overlap denominator {denom:.3e}")
    return numerator / denom


def conditioned_reduce(rho, sys: BipartiteSystem, sigma, given_side: str) -> ReductionResult:
    """Reduction given an assumed state ``sigma`` of subsystem ``given_side``.

    Conditions the state of the *other* subsystem; with sigma equal to the
    minimum-information state this coincides with the partial trace. Given
    beta, the pair is (conditioned alpha, None) with no reconstruction
    error. Given alpha, it is (partial trace over beta, conditioned beta)
    with that pair's reconstruction error.
    """
    return _reduce_one(rho, sys, "conditioned", sigma=sigma, given_side=given_side)


def projective_reduce(rho, sys: BipartiteSystem, level: int) -> ReductionResult:
    """Reduction conditioned on the unobserved side being in basis state ``level``.

    Pairs the conditioned alpha state with the beta projector itself, the
    quantum-nondemolition-measurement limit.
    """
    return _reduce_one(rho, sys, "projective", level=level)


def _weights(sys: BipartiteSystem, method: str, c: int, sigma=None,
             given_side: str = "beta", level: int = 0, seed=None, tol: float = 1e-12,
             max_iter: int = 10_000):
    """(side, w, seed): what ``method`` conditions on, for a state on every
    alpha level and the leading c beta levels of ``sys``.

    ``side`` is the side conditioned on and ``w`` its weight: sigma, cut to
    the leading c levels given beta ("conditioned"), or |level><level| on
    them ("projective"). ``seed`` is the correlated seed. Every setting is
    checked against ``sys`` (DimensionMismatch, IndexOutOfRange, ValueError)
    however few the levels, so on no level this is the check alone and
    builds nothing of size Nb. A correlated ``tol`` must be finite and
    above 0, and ``max_iter`` an integral number >= 1, such as 10 or 10.0.
    """
    if method == "projective":
        if not 0 <= level < sys.dim_beta:
            raise IndexOutOfRange(f"level {level} outside [0, {sys.dim_beta})")
        if level != int(level):
            raise IndexOutOfRange(f"level {level} is not an integer")
        return "beta", np.diag(np.arange(c) == level).astype(complex), None
    if method == "conditioned":
        if given_side not in ("alpha", "beta"):
            raise ValueError(f"given_side must be 'alpha' or 'beta', got {given_side!r}")
        w = _matrix(sigma, sys, given_side)
        return given_side, w[:c, :c] if given_side == "beta" else w, None
    if method == "correlated":
        if not max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        if max_iter == np.inf or max_iter != int(max_iter):
            raise ValueError(f"max_iter must be an integer, got {max_iter}")
        if not tol > 0:
            raise ValueError(f"tol must be > 0, got {tol}")
        if tol == np.inf:
            raise ValueError(f"tol must be finite, got {tol}")
    return "beta", None, None if seed is None else _matrix(seed, sys, "alpha")


def _lanczos(apply, v: np.ndarray, steps: int, tol: float):
    """(x, theta, gap, residual): the top Ritz pair of the hermitian map
    ``apply`` on n x n matrices (Frobenius inner product) on the Krylov
    space of the nonzero start v, the gap from theta to the next Ritz value
    (to 0 if there is none), and the pair's residual ||apply(x) - theta x||.

    Lanczos with full reorthogonalization (Golub & Van Loan 10.1; Parlett,
    The Symmetric Eigenvalue Problem): each step keeps the image W_k of the
    newest basis vector q_k and takes it twice against every basis vector
    for q_k+1. (theta, y) is the top eigenpair of Q^dag W, Lanczos'
    tridiagonal T_k, and the residual is W y - theta x, x = Q y: in exact
    arithmetic beta_k |y_k|, but unlike that it counts the rounding of
    T_k's entries, which near a tie moves x by more than beta_k |y_k| shows.
    It stops once the residual is below tol * gap, at an invariant Krylov
    space, or after ``steps``, the dimension n^2 of the space. Products are
    einsums and norms ``_norm``, whose bits no BLAS kernel decides.
    """
    shape = v.shape
    basis = (v / np.sqrt(_norm(v.ravel()))).reshape(1, -1)
    images = np.empty((0, basis.shape[1]), dtype=complex)
    while True:
        images = np.vstack([images, apply(basis[-1].reshape(shape)).reshape(1, -1)])
        theta, y = np.linalg.eigh(mc.hermitize(np.einsum("ki,li->kl", basis.conj(), images)))
        x = np.einsum("k,ki->i", y[:, -1], basis)
        gap = theta[-1] - (theta[-2] if len(theta) > 1 else 0.0)
        residual = np.sqrt(_norm(np.einsum("k,ki->i", y[:, -1], images) - theta[-1] * x))
        w = images[-1]
        for _ in range(2):
            w = w - np.einsum("k,ki->i", np.einsum("ki,i->k", basis.conj(), w), basis)
        beta = np.sqrt(_norm(w))
        if residual < tol * gap or not beta or len(basis) == steps:
            return x.reshape(shape), theta[-1], gap, residual
        basis = np.vstack([basis, w / beta])


def _start(r: np.ndarray, sys: BipartiteSystem, seed: np.ndarray | None, tol: float,
           warnings: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Where the correlated loop starts: (rho_alpha, rho_beta, residual).

    The certified start is the top operator-Schmidt pair of rho after one
    verifying sweep, with that sweep's residual. With R the realigned state,
    R[(i,j),(b,c)] = rho[(i,b),(j,c)], a Gauss-Seidel sweep maps rho_alpha
    to M(rho_alpha) up to normalization, M(X) = Sp_beta(rho (1 x Y)) with
    Y = Sp_alpha(rho (X x 1)): vec(X) to R R^dag vec(X), so the sweep loop
    is a power iteration. Its limit from the seed is the top eigenvector of
    M on the seed's Krylov space, or, read on the beta side, of the map
    R^T R^* that conditions on beta first. On the smaller side, n x n with
    n = min(Na, Nb), ``_lanczos`` finds it from the seed (on the beta side,
    from the beta state conditioned on the seed), two contractions a step
    and no realigned copy. That matrix, divided by its trace and hermitized,
    is the start. For an amplitude vector psi, R R^dag = G x G^* with
    G = Psi Psi^dag (or Psi^T Psi^* on the beta side), so the start is
    x x^dag for the top eigenvector x of the n x n G from eigh, with the
    same relative gap. rho_beta is conditioned on rho_alpha, so the sweep
    moves only rho_alpha.

    Otherwise the seeded start, ``seed`` (by default Sp_beta rho) and
    Sp_alpha rho, with residual None: where the top pair is not certified,
    or could be another fixed point than the loop from ``seed`` reaches.
    That is a tie, a gap lambda_1 - lambda_2 within tol * lambda_1; a
    residual of the top vector x not below tol * gap, the Davis-Kahan
    (1970) bound on sin of its angle to the true one; a trace about 0,
    which is no state; a seed that overlaps the start by less than tol, or
    whose beta state is 0; and a degenerate overlap before the verifying
    sweep, whose own DegenerateOverlap is raised. Each partial trace is
    taken once. On a stack of amplitude matrices a refused state, or one
    with a near-degenerate overlap (see ``_condition``), is NaN, and
    residual None means every state was refused.
    """
    na, nb = sys.dim_alpha, sys.dim_beta
    side, other, n = ("alpha", "beta", na) if na <= nb else ("beta", "alpha", nb)
    pure = r.ndim != 2
    # Sp_beta rho is the default seed and an amplitude vector's Gram on the
    # alpha side, Sp_alpha rho its Gram on the beta side and the seeded rho_beta.
    over_beta = mc._contract(r, sys, "beta") if seed is None or pure and side == "alpha" else None
    over_alpha = mc._contract(r, sys, "alpha") if pure and side == "beta" else None
    seed = over_beta if seed is None else seed

    def seeded():
        return seed, mc._contract(r, sys, "alpha") if over_alpha is None else over_alpha, None

    if pure:
        # eigh reads one triangle and ignores the roundoff imaginary parts of a
        # matmul's diagonal, which the residual below would count against x.
        gram = mc.hermitize(over_beta if side == "alpha" else over_alpha)
        lam, vecs = np.linalg.eigh(gram)
        x, top_lam = vecs[..., -1], lam[..., -1]
        gap = top_lam - (lam[..., -2] if n > 1 else 0.0)
        top = x[..., :, None] * x.conj()[..., None, :]
        residual = np.linalg.norm(gram @ x[..., None] - top_lam[..., None, None] * x[..., None],
                                  axis=(-2, -1))
        # The eigensolve's temporaries go before the conditionings, which set
        # the peak memory of a chunk.
        del gram, lam, vecs, x
    else:
        start = seed if side == "alpha" else mc._contract(r, sys, "alpha", seed)
        if not start.any():
            return seeded()
        top, top_lam, gap, residual = _lanczos(
            lambda x: mc._contract(r, sys, other, mc._contract(r, sys, side, x)), start, n * n, tol)
    trace = top.trace(axis1=-2, axis2=-1)
    ok = (gap > tol * top_lam) & (residual < tol * gap) & (abs(trace) > NEAR_DEGENERACY_THRESHOLD)
    if not ok.any():
        return seeded()
    # The top vector's state: rho_alpha, or on the beta side the state of
    # beta that rho_alpha is conditioned on.
    ra = mc.hermitize(top / np.where(ok, trace, 1.0)[..., None, None])
    del top, trace, residual
    try:
        if side == "beta":
            ra = _condition(r, sys, ra, "beta", warnings)
        overlap = abs((ra.conj() * seed).sum(axis=(-2, -1)))
        ok &= overlap > tol * np.linalg.norm(ra, axis=(-2, -1)) * np.linalg.norm(seed, axis=(-2, -1))
        if not ok.any():
            return seeded()
        rb = _condition(r, sys, ra, "alpha", warnings)
    except DegenerateOverlap:
        return seeded()
    if ok.ndim:
        ok = ok[..., None, None]
        ra, rb = np.where(ok, ra, np.nan), np.where(ok, rb, np.nan)
    ra_new = _condition(r, sys, rb, "beta", warnings)
    return ra_new, rb, abs(ra_new - ra).max(axis=(-2, -1))


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

    The loop starts where ``_start`` puts it: at the top operator-Schmidt
    pair, once its Davis-Kahan bound certifies it within tol, after one
    verifying sweep that counts as the first, so a converged run takes one
    sweep; or, where that start is not certified, at the seeded start.

    Parameters
    ----------
    seed : DensityMatrix or array, optional
        Where the search for the top pair of an N x N rho starts, and the
        starting alpha iterate where the loop does not start at that pair;
        the partial trace over beta by default. The beta iterate then
        starts at the partial trace over alpha.
    """
    return _reduce_one(rho, sys, "correlated", tol, max_iter, seed=seed)


def _pair(r: np.ndarray, sys: BipartiteSystem, method: str, side: str, w, seed, tol, warnings):
    """(rho_alpha, rho_beta, residual) of ``method`` on the checked state r,
    one state or a stack: the four methods' one body, with the weights of
    ``_weights``.

    Neumann is both partial traces, hermitized on an N x N rho, where a
    relaxed input's asymmetry would add up over the traced side (on
    hermitian input hermitize changes no bit). Conditioned and projective
    condition the side opposite ``side`` on w (``_condition``) and pair it,
    given alpha, with the partial trace over beta, else with the projector
    itself ("projective") or None. Correlated is ``_start`` from ``seed``,
    whose residual is the only one not None. On a stack a state that one
    state alone would raise or warn for is NaN (see ``_condition`` and
    ``_start``).
    """
    if method == "neumann":
        ra, rb = mc._contract(r, sys, "beta"), mc._contract(r, sys, "alpha")
        return (mc.hermitize(ra), mc.hermitize(rb), None) if r.ndim == 2 else (ra, rb, None)
    if method == "correlated":
        return _start(r, sys, seed, tol, warnings)
    cond = _condition(r, sys, w, side, warnings)
    if side == "alpha":
        return mc.hermitize(mc._contract(r, sys, "beta")), cond, None
    return cond, w if method == "projective" else None, None


def _reduce_one(state, sys: BipartiteSystem, method: str, tol: float = 1e-12,
                max_iter: int = 10_000, block: bool = False, **weights) -> ReductionResult:
    """The reduction ``method`` of one state, with the semantics of the
    public reductions: their entry checks, exceptions and warnings, and for
    the correlated one the sweep loop from the start, its verdict and
    iterations. The ``weights`` are ``_weights``' keywords, checked against
    ``sys`` after the state.

    ``state`` is a composite state of ``sys`` (``_state``) or, with
    ``block``, a model's one-point block (1, Na, c), c <= Nb: its Psi on
    every alpha level and the leading c beta levels, outside which Psi is 0
    (``_block_system``). A block is reduced on the system of its levels,
    sigma or the projector cut to them as ``reduce_stack`` cuts them. Its
    reduced states are those of the whole vector on these levels, where the
    whole vector's are exactly 0 off them, up to the last bit of a sum that
    skips zero terms, and no whole vector and no Nb x Nb matrix is made.
    """
    sub = sys
    if block:
        sub, state = _block_system(state, sys), state.ravel()
    r = _state(state, sub)
    side, w, seed = _weights(sys, method, sub.dim_beta, tol=tol, max_iter=max_iter, **weights)
    warnings: list[str] = []
    ra, rb, residual = _pair(r, sub, method, side, w, seed, tol, warnings)
    if method != "correlated":
        return _result(method, r, ra, rb, warnings=warnings)
    residuals = [] if residual is None else [float(residual)]
    try:
        while len(residuals) < max_iter and not (residuals and residuals[-1] < tol):
            rb_new = _condition(r, sub, ra, "alpha", warnings)
            ra_new = _condition(r, sub, rb_new, "beta", warnings)
            residuals.append(max(mc.max_abs_diff(ra_new, ra), mc.max_abs_diff(rb_new, rb)))
            ra, rb = ra_new, rb_new
        verdict = "converged" if residuals[-1] < tol else "max_iter"
    except DegenerateOverlap:
        if not residuals:
            raise
        verdict = "degenerate"

    return _result("correlated", r, ra, rb, verdict=verdict, iterations=len(residuals),
                   residuals=residuals, warnings=warnings)


def _block_system(p: np.ndarray, sys: BipartiteSystem) -> BipartiteSystem:
    """The system of a model's block p (..., Na, c) of ``sys``: every alpha
    level and the leading c beta levels. A block with another count of alpha
    levels is a DimensionMismatch: the correlated seed test reads every alpha
    level, so only a block that holds them all decides it as the whole
    vector does, with a ``file:`` seed too."""
    if p.shape[-2] != sys.dim_alpha:
        raise DimensionMismatch(f"block shape {p.shape} does not match dim_alpha={sys.dim_alpha}")
    return BipartiteSystem(sys.dim_alpha, p.shape[-1])


class Stack(NamedTuple):
    """The reductions of a stack of K amplitude matrices on a model's block
    (``reduce_stack``). ``rho_alpha`` (K, Na, Na) and ``rho_beta`` (K, c, c)
    are the reduced states on every alpha level and the leading c beta
    levels, exactly 0 off them; ``error`` holds each state's reconstruction
    error, and ``verdict`` and ``iterations`` those of every state that is
    ``done``.
    A state not done is one to reduce alone, with the public semantics.
    """

    rho_alpha: np.ndarray | None
    rho_beta: np.ndarray | None
    error: np.ndarray | None
    done: np.ndarray
    verdict: str = "-"
    iterations: int = 0


def reduce_stack(p: np.ndarray, sys: BipartiteSystem, method: str, tol: float = 1e-12,
                 max_iter: int = 10_000, **weights) -> Stack:
    """The reduction ``method`` of each state of a stack of K amplitude
    matrices p (K, Na, c), with the settings of ``_reduce_one``: the
    ``weights`` of ``_weights`` and, for the correlated reduction, ``tol``
    and ``max_iter``, which is only checked, since a done state takes one
    sweep.

    p holds every alpha level and the leading c beta levels of each state's
    Psi, outside which every entry is 0 (``_block_system``): a model's block
    on the levels that can hold its state, or the whole Psi,
    psi.reshape(K, Na, Nb). A state that fails ``_state``'s check
    (``_unit``) is zeroed.

    The same body as the public reductions (``_pair``), over a leading axis
    and on the block's levels, where it gives each state's reduced states
    and error: off them every entry is exactly 0. Only the states that it
    settles are done. The others are left to the reduction of that state
    alone (``_reduce_one`` of its one-point block), with its exceptions,
    warnings, verdict and iterations: a state that fails ``_state``'s check,
    a conditioning overlap below ``NEAR_DEGENERACY_THRESHOLD``, a correlated
    start that ``_start`` does not certify, and a verifying sweep whose
    residual is not below ``tol``.
    """
    sub = _block_system(p, sys)
    valid = _unit(p.reshape(len(p), -1))
    if not valid.all():
        p = np.where(valid[:, None, None], p, 0)
    not_done = Stack(None, None, None, np.zeros_like(valid))
    if not valid.any():
        return not_done
    side, w, seed = _weights(sys, method, sub.dim_beta, tol=tol, max_iter=max_iter, **weights)
    ra, rb, residual = _pair(p, sub, method, side, w, seed, tol, [])
    if method == "correlated":
        if residual is None:
            return not_done
        valid = valid & (residual < tol)
    else:
        valid = valid & ~np.isnan(rb if side == "alpha" else ra).any(axis=(-2, -1))
    if method == "projective":
        rb = np.broadcast_to(rb, (len(p), *rb.shape))
    error = None if rb is None else _reconstruction_error(p, ra, rb)
    run = ("converged", 1) if method == "correlated" else ()
    return Stack(ra, rb, error, valid, *run)


def mean_value(rho_sub, a: Observable | np.ndarray) -> complex:
    """Mean value Tr(rho A) of a subsystem observable."""
    r = rho_sub.matrix if isinstance(rho_sub, DensityMatrix) else mc.as_matrix(rho_sub)
    m = a.matrix if isinstance(a, Observable) else mc.as_matrix(a)
    if r.shape != m.shape:
        raise DimensionMismatch(f"state shape {r.shape} vs observable shape {m.shape}")
    return complex(np.trace(r @ m))


@dataclass(frozen=True)
class CorrelatorBreakdown:
    """Exact correlator <A x B> and its two conditioned factorizations.

    ``ab_form`` is <A>_B * <B>_N (alpha conditioned on the B-derived state),
    ``ba_form`` is <A>_N * <B>_A. The factorized forms are None when either
    von Neumann mean vanishes; ``warnings`` as in ``ReductionResult``.
    """

    exact: complex
    ab_form: complex | None
    ba_form: complex | None
    mean_a_neumann: complex
    mean_b_neumann: complex
    warnings: list[str]


def correlator(rho, sys: BipartiteSystem, a: Observable, b: Observable) -> CorrelatorBreakdown:
    """Correlator of subsystem observables with both conditioned factorizations.

    The exact value Tr[rho (A x B)] = Tr[Sp_beta(rho (1 x B)) A] is always
    computed, by one contraction and no N x N product; the factorized forms
    additionally require nonnegative A, B with nonzero von Neumann means.
    """
    r = _state(rho, sys)
    exact = complex(np.trace(mc._contract(r, sys, "beta", b.matrix) @ a.matrix))
    mean_a_n = mean_value(mc._contract(r, sys, "beta"), a)
    mean_b_n = mean_value(mc._contract(r, sys, "alpha"), b)
    ab_form = ba_form = None
    warnings: list[str] = []
    if abs(mean_a_n) > MEAN_ZERO_TOL and abs(mean_b_n) > MEAN_ZERO_TOL:
        rho_alpha_b = _condition(r, sys, state_from_observable(b).matrix, "beta", warnings)
        rho_beta_a = _condition(r, sys, state_from_observable(a).matrix, "alpha", warnings)
        ab_form = mean_value(rho_alpha_b, a) * mean_b_n
        ba_form = mean_a_n * mean_value(rho_beta_a, b)
    return CorrelatorBreakdown(
        exact=exact,
        ab_form=ab_form,
        ba_form=ba_form,
        mean_a_neumann=mean_a_n,
        mean_b_neumann=mean_b_n,
        warnings=warnings,
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
