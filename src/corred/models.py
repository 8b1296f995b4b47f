"""Exactly soluble reference models: the coupled spin pair and the resonant
Jaynes-Cummings model (JCM), their evolved states and the analytic formulas
used as test oracles.

Both models evolve pure states. ``jcm_vacuum_amplitudes`` and
``spin_pair_amplitudes`` give the evolved amplitude vector psi, which the
reductions take as the composite state. The JCM state has two nonzero
entries at any n_max, on |2,0> and |1,1>: ``_jcm_vacuum_block`` writes
U(t)|2,0> on atom and field levels {0, 1} alone, without forming U. It is
every state ``corred run`` reduces, a chunk of times or one point reduced
alone, at any n_max with nothing of length N; ``jcm_vacuum_amplitudes``
scatters that block into the whole vector, for the library's callers. The
spin-pair one applies the closed-form 4x4 ``spin_pair_evolution``. All of
them take t as a scalar or an array of times, each stacked with the bits of
its t alone.
``jcm_vacuum_density`` is psi psi^dag of the same vector, and
``spin_pair_density`` forms U rho(0) U^dag densely as an independent
check. The hamiltonians, the full JCM evolution operator and a matrix
exponential, which only check these forms, live with the tests.

Basis conventions (hbar = 1 throughout):

* Spin pair: composite basis |22>, |21>, |12>, |11> (descending energy within
  each spin, alpha index major).
* JCM: atom levels |2> (excited, index 0) and |1> (ground, index 1), tensored
  with Fock states |0> .. |n_max> in ascending photon number, so the
  composite dimension is 2 * (n_max + 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import DimensionMismatch, ValidationError
from .matrixcore import BipartiteSystem
from .states import DensityMatrix, spin_pair_initial

SPIN_PAIR_SYSTEM = BipartiteSystem(2, 2)


@dataclass(frozen=True)
class SpinPairParams:
    """Zeeman frequency and spin-spin couplings of the identical spin pair."""

    omega: float
    j_coupling: float = 0.0
    c_coupling: float = 0.0
    d_coupling: float = 0.0


def _check_phases(t, *rates: tuple[str, float], at: str = "t") -> None:
    """ValidationError naming the first t (scalar or array) where a phase
    rate * t overflows, so a cos, sin or exp of it would raise or give nan,
    and the first ``(name, rate)`` there; ``at`` names t, the time by default."""
    ts = np.ravel(t)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(np.multiply.outer(ts, [float(rate) for _, rate in rates]))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValidationError(f"{rates[k][0]} * {at} overflows at {at}={float(ts[i])!r}")


def spin_pair_evolution(p: SpinPairParams, t) -> np.ndarray:
    """Closed-form evolution operator U(t) of the spin pair, (..., 4, 4).

    The outer block {|22>, |11>} rotates at Omega = sqrt(omega^2 + d^2) (the
    unique rate that makes the block unitary), the inner block {|21>, |12>}
    at the flip-flop coupling c. U(-t) is U(t)^dag.
    """
    w, j, c, d = p.omega, p.j_coupling, p.c_coupling, p.d_coupling
    big_omega = math.hypot(w, d)
    _check_phases(t, ("hypot(omega, d)", big_omega), ("j", j), ("c", c))
    t = np.asarray(t, dtype=float)
    if big_omega > 0:
        co, so = np.cos(big_omega * t), np.sin(big_omega * t)
        wr, dr = w / big_omega, d / big_omega
    else:
        co, so, wr, dr = 1.0, 0.0, 0.0, 0.0
    ph_out = np.exp(-1j * j * t)
    ph_in = np.exp(1j * j * t)
    ci, si = np.cos(c * t), np.sin(c * t)
    u = np.zeros((*t.shape, 4, 4), dtype=complex)
    # No product of two general complex numbers, which numpy rounds apart
    # for scalars (a scalar t) and arrays: each has a real or imaginary factor.
    turn = 1j * wr * (ph_out * so)
    u[..., 0, 0] = ph_out * co - turn
    u[..., 3, 3] = ph_out * co + turn
    u[..., 0, 3] = u[..., 3, 0] = -1j * dr * ph_out * so
    u[..., 1, 1] = u[..., 2, 2] = ph_in * ci
    u[..., 1, 2] = u[..., 2, 1] = -1j * ph_in * si
    return u


def spin_pair_amplitudes(p: SpinPairParams, phi: float, t) -> np.ndarray:
    """Evolved pure state U(t) psi(0), psi(0) = cos(phi)|21> - sin(phi)|12>,
    whose projector is ``spin_pair_initial(phi)``; (K, 4) for K times."""
    psi0 = np.array([0.0, math.cos(phi), -math.sin(phi), 0.0], dtype=complex)
    return spin_pair_evolution(p, t) @ psi0


def spin_pair_density(p: SpinPairParams, phi: float, t: float) -> DensityMatrix:
    """Evolved state U(t) rho(0) U^dag(t) of the spin-pair initial condition,
    formed densely as the independent check of ``spin_pair_amplitudes``."""
    u = spin_pair_evolution(p, t)
    rho0 = spin_pair_initial(phi).matrix
    return DensityMatrix(mc.hermitize(u @ rho0 @ u.conj().T), validation="relaxed")


def spin_pair_correlation(phi: float, c: float, t: float) -> float:
    """Oscillating correlation C(phi, t) = cos(2 phi) cos(2 c t)."""
    _check_phases(t, ("2 * c", 2.0 * float(c)))
    _check_phases(phi, ("2", 2.0), at="phi")
    return math.cos(2 * phi) * math.cos(2 * c * t)


def spin_pair_populations(phi: float, c: float, t: float) -> tuple[float, float]:
    """Analytic |21> and |12> populations (P/2, M/2) of the evolved state."""
    corr = spin_pair_correlation(phi, c, t)
    return (1.0 + corr) / 2.0, (1.0 - corr) / 2.0


def spin_pair_coherence(phi: float, c: float, t: float) -> complex:
    """Analytic (21,12) coherence of the evolved spin-pair state."""
    _check_phases(t, ("2 * c", 2.0 * float(c)))
    _check_phases(phi, ("2", 2.0), at="phi")
    return 0.5 * (1j * math.cos(2 * phi) * math.sin(2 * c * t) - math.sin(2 * phi))


@dataclass(frozen=True)
class JcmParams:
    """Resonant JCM: field/atom frequency, atom-field coupling, Fock cutoff.

    ``n_max`` is an integer >= 1, as a dimension of ``BipartiteSystem`` is,
    else DimensionMismatch."""

    omega: float
    rabi: float
    n_max: int = 16

    def __post_init__(self):
        try:
            operator.index(self.n_max)
        except TypeError:
            raise DimensionMismatch(f"n_max must be an integer, got {self.n_max!r}") from None
        if self.n_max < 1:
            raise DimensionMismatch(f"n_max must be >= 1, got {self.n_max}")


def jcm_system(p: JcmParams) -> BipartiteSystem:
    """Atom (dim 2) x truncated field (dim n_max + 1)."""
    return BipartiteSystem(2, p.n_max + 1)


def _jcm_vacuum_block(p: JcmParams, t) -> np.ndarray:
    """u0 = U(t)|2,0> on atom levels {|2>, |1>} and field levels {|0>, |1>},
    (2, 2) for one t and (K, 2, 2) for K times: the leading 2 x 2 block of
    u0.reshape(2, n_max + 1), outside which u0 is 0 (``jcm_vacuum_amplitudes``).

    U(t) is block-diagonal over the dressed doublets {|2,m>, |1,m+1>}, and
    |2,0> lies in the doublet m = 0. With e = exp(-i omega t) and c, s =
    cos, sin(Omega t / 2), u0 is e c on |2,0> and -e s on |1,1>, for all t
    and any n_max >= 1, and U is never formed.
    """
    _check_phases(t, ("omega", p.omega), ("rabi", p.rabi))
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * p.omega * t)
    block = np.zeros((*t.shape, 2, 2), dtype=complex)
    block[..., 0, 0] = phase * np.cos(p.rabi * t / 2)  # <2,0|U|2,0>
    # <1,1|U|2,0>; a complex product with -1.0, since a unary minus would
    # flip the sign of a zero imaginary part.
    block[..., 1, 1] = -1.0 * (phase * np.sin(p.rabi * t / 2))
    return block


def jcm_vacuum_amplitudes(p: JcmParams, t) -> np.ndarray:
    """Amplitudes u0 = U(t)|2,0> of an excited atom in the vacuum field; (K, N) for K times.

    ``_jcm_vacuum_block`` scattered onto |2,0> .. |1,n_max>; an n_max too
    large to allocate is a ValidationError.
    """
    block = _jcm_vacuum_block(p, t)
    nf = p.n_max + 1
    try:
        u0 = np.zeros((*block.shape[:-2], 2 * nf), dtype=complex)
    except (ValueError, MemoryError) as exc:  # ValueError: more bytes than an array can hold
        raise ValidationError(f"n_max={p.n_max} is too large: {exc}") from None
    u0.reshape(*block.shape[:-2], 2, nf)[..., :2] = block
    return u0


def jcm_vacuum_density(p: JcmParams, t: float) -> DensityMatrix:
    """Evolved state u0 u0^dag of an excited atom in the vacuum field, the
    projector of ``jcm_vacuum_amplitudes``, hermitized: numpy's complex
    multiply may round u0_i u0_j^* and (u0_j u0_i^*)^* differently."""
    u0 = jcm_vacuum_amplitudes(p, t)
    return DensityMatrix(mc.hermitize(np.outer(u0, u0.conj())), validation="relaxed")


def vacuum_rabi_populations(p: JcmParams, t: float) -> tuple[float, float]:
    """Analytic excited/ground atom populations (cos^2, sin^2 of Omega t / 2)."""
    c = math.cos(p.rabi * t / 2)
    return c * c, 1.0 - c * c


def jcm_correlated_limit(t: float, p: JcmParams) -> tuple[float, float]:
    """Step-function limit (C(t), S(t)) of the correlated reduction.

    C(t) is 1 where cos^2(Omega t / 2) > sin^2, 0 where it is smaller, and
    exactly 1/2 at the tie points t = (2l+1) pi / (2 Omega); S = 1 - C.
    """
    c2 = math.cos(p.rabi * t / 2) ** 2
    s2 = 1.0 - c2
    if abs(c2 - s2) < 1e-12:
        c_val = 0.5
    elif c2 > s2:
        c_val = 1.0
    else:
        c_val = 0.0
    return c_val, 1.0 - c_val
