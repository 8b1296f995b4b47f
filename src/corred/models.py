"""Exactly soluble reference models: the coupled spin pair and the resonant
Jaynes-Cummings model (JCM), with closed-form evolution operators and the
analytic formulas used as test oracles.

Both models evolve pure states. ``jcm_vacuum_amplitudes`` and
``spin_pair_amplitudes`` give the evolved amplitude vector psi, which the
reductions take as the composite state; the JCM one writes its two nonzero
entries without forming U. ``jcm_vacuum_density`` is psi psi^dag of the
same vector, and ``spin_pair_density`` forms U rho(0) U^dag densely as an
independent check.

Basis conventions (hbar = 1 throughout):

* Spin pair: composite basis |22>, |21>, |12>, |11> (descending energy within
  each spin, alpha index major).
* JCM: atom levels |2> (excited, index 0) and |1> (ground, index 1), tensored
  with Fock states |0> .. |n_max> in ascending photon number, so the
  composite dimension is 2 * (n_max + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrixcore as mc
from .errors import DimensionMismatch
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


def spin_pair_hamiltonian(p: SpinPairParams) -> np.ndarray:
    """4x4 hamiltonian of a pair of identical spins-1/2 in a d-c field."""
    w, j, c, d = p.omega, p.j_coupling, p.c_coupling, p.d_coupling
    return np.array(
        [
            [w + j, 0.0, 0.0, d],
            [0.0, -j, c, 0.0],
            [0.0, c, -j, 0.0],
            [d, 0.0, 0.0, -w + j],
        ],
        dtype=complex,
    )


def spin_pair_evolution(p: SpinPairParams, t: float, adjoint: bool = False) -> np.ndarray:
    """Closed-form evolution operator of the spin pair.

    The outer block {|22>, |11>} rotates at Omega = sqrt(omega^2 + d^2) (the
    unique rate that makes the block unitary), the inner block {|21>, |12>}
    at the flip-flop coupling c; ``adjoint=True`` returns U^dag(t).
    """
    w, j, c, d = p.omega, p.j_coupling, p.c_coupling, p.d_coupling
    big_omega = math.hypot(w, d)
    sgn = 1.0 if not adjoint else -1.0
    if big_omega > 0:
        co, so = math.cos(big_omega * t), math.sin(big_omega * t)
        wr, dr = w / big_omega, d / big_omega
    else:
        co, so, wr, dr = 1.0, 0.0, 0.0, 0.0
    ph_out = np.exp(-1j * sgn * j * t)
    ph_in = np.exp(1j * sgn * j * t)
    ci, si = math.cos(c * t), math.sin(c * t)
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = ph_out * (co - 1j * sgn * wr * so)
    u[3, 3] = ph_out * (co + 1j * sgn * wr * so)
    u[0, 3] = u[3, 0] = -1j * sgn * dr * ph_out * so
    u[1, 1] = u[2, 2] = ph_in * ci
    u[1, 2] = u[2, 1] = -1j * sgn * ph_in * si
    return u


def spin_pair_amplitudes(p: SpinPairParams, phi: float, t: float) -> np.ndarray:
    """Evolved pure state U(t) psi(0), psi(0) = cos(phi)|21> - sin(phi)|12>,
    whose projector is ``spin_pair_initial(phi)``."""
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
    return math.cos(2 * phi) * math.cos(2 * c * t)


def spin_pair_populations(phi: float, c: float, t: float) -> tuple[float, float]:
    """Analytic |21> and |12> populations (P/2, M/2) of the evolved state."""
    corr = spin_pair_correlation(phi, c, t)
    return (1.0 + corr) / 2.0, (1.0 - corr) / 2.0


def spin_pair_tie_step(p: SpinPairParams, phi: float) -> float | None:
    """Spacing s = pi / (4|c|) of the times t = (2l+1) s where the |21> and
    |12> populations cross; None without flip-flop coupling or when
    cos(2 phi) = 0 keeps them equal for all t."""
    c = p.c_coupling
    if c == 0 or abs(math.cos(2 * phi)) <= 1e-12:
        return None
    return math.pi / (4 * abs(c))


def spin_pair_coherence(phi: float, c: float, t: float) -> complex:
    """Analytic (21,12) coherence of the evolved spin-pair state."""
    return 0.5 * (1j * math.cos(2 * phi) * math.sin(2 * c * t) - math.sin(2 * phi))


@dataclass(frozen=True)
class JcmParams:
    """Resonant JCM: field/atom frequency, atom-field coupling, Fock cutoff."""

    omega: float
    rabi: float
    n_max: int = 16

    def __post_init__(self):
        if self.n_max < 1:
            raise DimensionMismatch(f"n_max must be >= 1, got {self.n_max}")


def jcm_system(p: JcmParams) -> BipartiteSystem:
    """Atom (dim 2) x truncated field (dim n_max + 1)."""
    return BipartiteSystem(2, p.n_max + 1)


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated photon annihilation operator, a|n> = sqrt(n) |n-1>."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _atom_proj(i: int, j: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return m


def jcm_hamiltonian(p: JcmParams) -> np.ndarray:
    """Resonant JCM hamiltonian on the truncated composite space.

    Atom term (omega/2)(P22 - P11), symmetrized field term
    (omega/2)(a^dag a + a a^dag), interaction (i Omega/2)(P21 a - P12 a^dag).
    """
    nf = p.n_max + 1
    a = lowering_operator(nf)
    ad = a.conj().T
    h_atom = np.kron((p.omega / 2) * (_atom_proj(0, 0) - _atom_proj(1, 1)), np.eye(nf))
    h_field = np.kron(np.eye(2), (p.omega / 2) * (ad @ a + a @ ad))
    h_int = (1j * p.rabi / 2) * (
        np.kron(_atom_proj(0, 1), a) - np.kron(_atom_proj(1, 0), ad)
    )
    return h_atom + h_field + h_int


def _doublet_factors(p: JcmParams, t: float, k: np.ndarray, adjoint: bool = False):
    """(e_k, c_k, s_k) of the dressed doublets with photon numbers ``k``, as in
    ``jcm_evolution``."""
    sgn = -1.0 if not adjoint else 1.0
    phase = np.exp(sgn * 1j * p.omega * t * k)
    cos = np.cos(p.rabi * t / 2 * np.sqrt(k))
    sin = np.sin(p.rabi * t / 2 * np.sqrt(k))
    return phase, cos, sin


def jcm_evolution(p: JcmParams, t: float, adjoint: bool = False) -> np.ndarray:
    """Closed-form JCM evolution operator, filled from its dressed doublets.

    U is block-diagonal over the doublets {|2,m>, |1,m+1>} and |1,0>, which
    it leaves alone. With k = m + 1, e_k = exp(-+i omega t k) and
    c_k, s_k = cos, sin(Omega t sqrt(k) / 2), doublet m is

        [[ e_k c_k, +-e_k s_k],
         [-+e_k s_k,   e_k c_k]]

    (upper signs for U, lower for ``adjoint=True``, which returns U^dag(t)).
    Its O(n_max) nonzero entries are written into a zero matrix; no matrix
    product is formed.

    At the truncation edge |2, n_max> has no partner |1, n_max + 1>, so its
    column keeps only the cosine: probability leaks out of it, and the top
    Fock block deviates from the infinite-dimensional operator. Everything
    below it is exactly unitary.
    """
    nf = p.n_max + 1
    # k = m + 1 of |2,m>, the photon number of its partner |1,k>
    phase, cos, sin = _doublet_factors(p, t, np.arange(nf + 1, dtype=float), adjoint)
    pm = -1.0 if adjoint else 1.0

    u = np.zeros((2 * nf, 2 * nf), dtype=complex)
    n = np.arange(nf)
    u[n, n] = phase[1:] * cos[1:]  # <2,n|U|2,n>
    u[nf + n, nf + n] = phase[:-1] * cos[:-1]  # <1,n|U|1,n>
    m = n[:-1]
    mixing = phase[1:nf] * sin[1:nf]
    u[m, nf + m + 1] = pm * mixing  # <2,m|U|1,m+1>
    u[nf + m + 1, m] = -pm * mixing  # <1,m+1|U|2,m>
    return u


def jcm_vacuum_amplitudes(p: JcmParams, t: float) -> np.ndarray:
    """Amplitudes u0 = U(t)|2,0> of an excited atom in the vacuum field.

    Column 0 of ``jcm_evolution``, written from its doublet m = 0 (k = 1)
    with the same expressions: e_1 c_1 on |2,0> and -e_1 s_1 on |1,1>, so
    it equals that column bit for bit and U is never formed. Supported on
    {|2,0>, |1,1>} for all t, so any n_max >= 1 is exact.
    """
    nf = p.n_max + 1
    phase, cos, sin = _doublet_factors(p, t, np.array([1.0]))
    u0 = np.zeros(2 * nf, dtype=complex)
    u0[0] = (phase * cos)[0]  # <2,0|U|2,0>
    # <1,1|U|2,0>; a complex product with -1.0, as jcm_evolution's -pm * mixing,
    # since a unary minus would flip the sign of a zero imaginary part.
    u0[nf + 1] = (-1.0 * (phase * sin))[0]
    return u0


def jcm_vacuum_density(p: JcmParams, t: float) -> DensityMatrix:
    """Evolved state u0 u0^dag of an excited atom in the vacuum field, the
    projector of ``jcm_vacuum_amplitudes``."""
    return DensityMatrix(mc.projector(jcm_vacuum_amplitudes(p, t)), validation="relaxed")


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


def jcm_tie_step(p: JcmParams) -> float | None:
    """Spacing s = pi / (2 Omega) of the step limit's tie points t = (2l+1) s;
    None without atom-field coupling."""
    if p.rabi == 0:
        return None
    return math.pi / (2 * abs(p.rabi))
