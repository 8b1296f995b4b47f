import math
import re

import numpy as np
import pytest

from corred import matrixcore as mc
from corred import models
from corred.errors import DimensionMismatch, ValidationError
from corred.models import JcmParams, SpinPairParams
from corred.reduction import neumann_reduce
from corred.states import spin_pair_initial

from conftest import expm, matrices_close, spin_pair_hamiltonian


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated photon annihilation operator, a|n> = sqrt(n) |n-1>."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _atom_proj(i, j):
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


def jcm_evolution(p: JcmParams, t: float, adjoint: bool = False) -> np.ndarray:
    """Closed-form JCM evolution operator, filled from its dressed doublets.

    U is block-diagonal over the doublets {|2,m>, |1,m+1>} and |1,0>, which
    it leaves alone. With k = m + 1, e_k = exp(-+i omega t k) and
    c_k, s_k = cos, sin(Omega t sqrt(k) / 2), doublet m is

        [[ e_k c_k, +-e_k s_k],
         [-+e_k s_k,   e_k c_k]]

    (upper signs for U, lower for ``adjoint=True``, which returns U^dag(t)).
    Its O(n_max) nonzero entries are written into a zero matrix; no matrix
    product is formed. Column 0 is ``models.jcm_vacuum_amplitudes``, written
    with the same expressions.

    At the truncation edge |2, n_max> has no partner |1, n_max + 1>, so its
    column keeps only the cosine: probability leaks out of it, and the top
    Fock block deviates from the infinite-dimensional operator. Everything
    below it is exactly unitary.
    """
    nf = p.n_max + 1
    # k = m + 1 of |2,m>, the photon number of its partner |1,k>
    k = np.arange(nf + 1, dtype=float)
    sgn = -1.0 if not adjoint else 1.0
    phase = np.exp(sgn * 1j * p.omega * t * k)
    cos = np.cos(p.rabi * t / 2 * np.sqrt(k))
    sin = np.sin(p.rabi * t / 2 * np.sqrt(k))
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


class TestSpinPairHamiltonian:
    def test_free_pair(self):
        h = spin_pair_hamiltonian(SpinPairParams(omega=2.0))
        assert matrices_close(h, np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_coupling_placement(self):
        h = spin_pair_hamiltonian(
            SpinPairParams(omega=1.0, j_coupling=0.1, c_coupling=0.2, d_coupling=0.3)
        )
        assert h[0, 0] == 1.1 and h[3, 3] == -0.9
        assert h[1, 1] == h[2, 2] == -0.1
        assert h[1, 2] == h[2, 1] == 0.2
        assert h[0, 3] == h[3, 0] == 0.3
        assert mc.is_hermitian(h)

    def test_eigenvalues(self):
        # outer block j +- sqrt(omega^2 + d^2), inner block -j +- c
        p = SpinPairParams(omega=0.8, j_coupling=0.05, c_coupling=0.3, d_coupling=0.6)
        omega_eff = math.hypot(0.8, 0.6)
        want = sorted([0.05 + omega_eff, 0.05 - omega_eff, -0.05 + 0.3, -0.05 - 0.3])
        got = np.linalg.eigvalsh(spin_pair_hamiltonian(p))
        assert np.allclose(got, want, atol=1e-12)


class TestSpinPairEvolution:
    def test_time_zero(self):
        u = models.spin_pair_evolution(SpinPairParams(1.0, 0.1, 0.2, 0.3), 0.0)
        assert matrices_close(u, np.eye(4), 1e-14)

    def test_unitary(self, rng):
        for _ in range(10):
            p = SpinPairParams(*rng.uniform(-2, 2, size=4))
            u = models.spin_pair_evolution(p, rng.uniform(0, 10))
            assert mc.max_abs_diff(u @ u.conj().T, np.eye(4)) < 1e-12

    def test_matches_matrix_exponential(self, rng):
        for _ in range(20):
            p = SpinPairParams(*rng.uniform(-3, 3, size=4))
            for t in (0.5, 2.0, 10.0):
                u = models.spin_pair_evolution(p, t)
                ref = expm(spin_pair_hamiltonian(p), t)
                assert np.linalg.norm(u - ref, 2) < 1e-9

    def test_adjoint(self):
        # evolving back in time inverts U: U(-t) = U(t)^dag
        p = SpinPairParams(1.3, 0.2, 0.5, 0.7)
        u = models.spin_pair_evolution(p, 1.9)
        ud = models.spin_pair_evolution(p, -1.9)
        assert mc.max_abs_diff(ud, u.conj().T) < 1e-13

    def test_group_property(self):
        p = SpinPairParams(0.9, 0.1, 0.4, 0.2)
        u1 = models.spin_pair_evolution(p, 0.7)
        u2 = models.spin_pair_evolution(p, 1.1)
        u12 = models.spin_pair_evolution(p, 1.8)
        assert mc.max_abs_diff(u1 @ u2, u12) < 1e-12


class TestSpinPairDensity:
    def test_time_zero_recovers_initial(self):
        p = SpinPairParams(1.0, c_coupling=0.3)
        got = models.spin_pair_density(p, 0.4, 0.0)
        assert mc.max_abs_diff(got.matrix, spin_pair_initial(0.4).matrix) < 1e-14

    def test_population_formula_on_grid(self):
        p = SpinPairParams(omega=1.0, c_coupling=0.45)
        for phi in np.linspace(0.0, math.pi / 2, 20):
            for t in np.linspace(0.0, 12.0, 20):
                rho = models.spin_pair_density(p, phi, t).matrix
                pop_p, pop_m = models.spin_pair_populations(phi, 0.45, t)
                assert abs(rho[1, 1].real - pop_p) < 1e-10
                assert abs(rho[2, 2].real - pop_m) < 1e-10
                assert abs(rho[1, 2] - models.spin_pair_coherence(phi, 0.45, t)) < 1e-10

    def test_couplings_outside_inner_block_are_inert(self):
        # the initial state lives in the inner block; omega, j, d only dress
        # phases there, so populations depend on c alone
        base = models.spin_pair_density(SpinPairParams(1.0, c_coupling=0.3), 0.2, 1.7)
        dressed = models.spin_pair_density(
            SpinPairParams(5.0, j_coupling=0.8, c_coupling=0.3, d_coupling=2.0), 0.2, 1.7
        )
        assert np.allclose(np.diag(base.matrix), np.diag(dressed.matrix), atol=1e-12)

    def test_tie_times_give_equal_populations(self):
        # cos(2 c t) vanishes at t = (2n+1) pi / (4c), for any phi
        c = 0.7
        for n in range(4):
            t_n = (2 * n + 1) * math.pi / (4 * c)
            rho = models.spin_pair_density(SpinPairParams(1.0, c_coupling=c), 0.1, t_n).matrix
            assert abs(rho[1, 1].real - 0.5) < 1e-12
            assert abs(rho[2, 2].real - 0.5) < 1e-12

    @pytest.mark.parametrize("c,phi", [(0.7, 0.1), (-1.3, 1.2), (0.25, 0.0)])
    def test_populations_cross_at_tie_times(self, c, phi):
        # cos(2 c t) = 0 at t = (2k+1) pi / (4|c|)
        ties = [(2 * k + 1) * math.pi / (4 * abs(c)) for k in range(16)]
        ties = [tie for tie in ties if tie <= 12.0]
        eps = 1e-4
        for tie in ties:
            up, down = models.spin_pair_populations(phi, c, tie)
            assert abs(up - down) < 1e-12
            before = np.subtract(*models.spin_pair_populations(phi, c, tie - eps))
            after = np.subtract(*models.spin_pair_populations(phi, c, tie + eps))
            assert before * after < 0
        # and nowhere else on a fine grid
        diff = [np.subtract(*models.spin_pair_populations(phi, c, t))
                for t in np.linspace(0.0, 12.0, 12_001)]
        assert np.count_nonzero(np.diff(np.sign(diff))) == len(ties)

    def test_no_tie_times_without_crossing(self):
        # no coupling, or cos(2 phi) = 0 so the populations stay equal
        for t in np.linspace(0.0, 12.0, 121):
            up, down = models.spin_pair_populations(0.3, 0.0, t)
            assert up - down == pytest.approx(math.cos(0.6), abs=1e-15)
            up, down = models.spin_pair_populations(math.pi / 4, 0.5, t)
            assert abs(up - down) < 1e-15

    def test_purity_preserved(self):
        rho = models.spin_pair_density(SpinPairParams(1.0, 0.1, 0.2, 0.3), 0.6, 3.3)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


class TestJcmHamiltonian:
    def test_hermitian(self):
        assert mc.is_hermitian(jcm_hamiltonian(JcmParams(1.0, 0.4, n_max=5)))

    def test_coupling_entry(self):
        # <2,0| H |1,1> = i Omega / 2
        h = jcm_hamiltonian(JcmParams(omega=1.0, rabi=0.8, n_max=3))
        nf = 4
        assert h[0, nf + 1] == pytest.approx(1j * 0.4)
        assert h[nf + 1, 0] == pytest.approx(-1j * 0.4)

    def test_diagonal_energies(self):
        # |2,n>: w/2 + w(n + 1/2); |1,n>: -w/2 + w(n + 1/2), except the
        # truncated top field entry
        w = 1.3
        h = jcm_hamiltonian(JcmParams(omega=w, rabi=0.0, n_max=4))
        nf = 5
        for n in range(nf - 1):
            assert h[n, n] == pytest.approx(w / 2 + w * (n + 0.5))
            assert h[nf + n, nf + n] == pytest.approx(-w / 2 + w * (n + 0.5))

    def test_degenerate_pairs(self):
        # |2,n> and |1,n+1> are degenerate at resonance without coupling
        w = 0.9
        h = jcm_hamiltonian(JcmParams(omega=w, rabi=0.0, n_max=6))
        nf = 7
        for n in range(nf - 2):
            assert abs(h[n, n] - h[nf + n + 1, nf + n + 1]) < 1e-13

    def test_rejects_small_cutoff(self):
        with pytest.raises(DimensionMismatch):
            JcmParams(1.0, 0.5, n_max=0)


class TestLoweringOperator:
    def test_matrix_elements(self):
        a = lowering_operator(3)
        want = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex)
        assert matrices_close(a, want)

    def test_number_operator(self):
        a = lowering_operator(5)
        assert matrices_close(a.conj().T @ a, np.diag([0.0, 1, 2, 3, 4]))


def jcm_evolution_dense(p, t, adjoint=False):
    """Dense reference for jcm_evolution: number-basis operator functions.

    cos/sin of sqrt(a a^dag) and sqrt(a^dag a) are diagonal in the number
    basis; the phase operators exp(+-i phi) are the normalized shift
    operators (a^dag a + 1)^(-1/2) a and its adjoint, and U is the sum of four
    Kronecker products of their products.
    """
    nf = p.n_max + 1
    a = lowering_operator(nf)
    ad = a.conj().T
    n_op = np.arange(nf, dtype=float)  # diagonal of a^dag a
    sgn = -1.0 if not adjoint else 1.0

    phase_down = np.diag(np.exp(sgn * 1j * p.omega * t * (n_op + 1.0)))  # exp(-i w t a a^dag)
    phase_up = np.diag(np.exp(sgn * 1j * p.omega * t * n_op))  # exp(-i w t a^dag a)
    cos_down = np.diag(np.cos(p.rabi * t / 2 * np.sqrt(n_op + 1.0)))
    cos_up = np.diag(np.cos(p.rabi * t / 2 * np.sqrt(n_op)))
    sin_down = np.diag(np.sin(p.rabi * t / 2 * np.sqrt(n_op + 1.0)))
    sin_up = np.diag(np.sin(p.rabi * t / 2 * np.sqrt(n_op)))

    norm = np.diag(1.0 / np.sqrt(n_op + 1.0))
    exp_iphi = norm @ a  # lowers photon number
    exp_miphi = ad @ norm  # raises photon number

    pm = -1.0 if adjoint else 1.0
    return (
        np.kron(_atom_proj(0, 0), phase_down @ cos_down)
        + np.kron(_atom_proj(1, 1), phase_up @ cos_up)
        + pm * np.kron(_atom_proj(0, 1), phase_down @ exp_iphi @ sin_up)
        - pm * np.kron(_atom_proj(1, 0), phase_up @ exp_miphi @ sin_down)
    )


class TestJcmEvolutionAgainstDense:
    @pytest.mark.parametrize("n_max", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_dense_formulation(self, n_max, adjoint, rng):
        for _ in range(4):
            p = JcmParams(omega=rng.uniform(-2, 2), rabi=rng.uniform(-2, 2), n_max=n_max)
            for t in (0.0, rng.uniform(0, 1), rng.uniform(1, 30)):
                u = jcm_evolution(p, t, adjoint=adjoint)
                assert mc.max_abs_diff(u, jcm_evolution_dense(p, t, adjoint)) <= 1e-14

    @pytest.mark.parametrize("n_max", [1, 2, 5, 16, 64])
    def test_vacuum_density_matches_dense_product(self, n_max, rng):
        nf = n_max + 1
        rho0 = np.zeros((2 * nf, 2 * nf), dtype=complex)
        rho0[0, 0] = 1.0  # |2,0><2,0|
        for _ in range(4):
            p = JcmParams(omega=rng.uniform(-2, 2), rabi=rng.uniform(-2, 2), n_max=n_max)
            t = rng.uniform(0, 30)
            u = jcm_evolution_dense(p, t)
            want = mc.hermitize(u @ rho0 @ u.conj().T)
            got = models.jcm_vacuum_density(p, t)
            assert got.validation == "relaxed"
            assert mc.max_abs_diff(got.matrix, want) <= 1e-14


class TestJcmEvolution:
    def test_time_zero(self):
        u = jcm_evolution(JcmParams(1.0, 0.7, n_max=4), 0.0)
        assert matrices_close(u, np.eye(10), 1e-14)

    @pytest.mark.parametrize("n_max,t", [(3, 1.7), (8, 0.4), (16, 12.0)])
    def test_matches_matrix_exponential_below_cutoff(self, n_max, t):
        # the truncated hamiltonian distorts the top dressed block (the
        # symmetrized field term is wrong for |n_max>), so exclude the
        # composite indices touching photon numbers n_max-1 and n_max on the
        # excited row and n_max on the ground row
        p = JcmParams(omega=1.1, rabi=0.6, n_max=n_max)
        u = jcm_evolution(p, t)
        ref = expm(jcm_hamiltonian(p), t)
        nf = n_max + 1
        keep = np.array([k for k in range(2 * nf) if k not in (nf - 2, nf - 1, 2 * nf - 1)])
        diff = np.abs(u - ref)[np.ix_(keep, keep)]
        assert diff.max() < 1e-12

    def test_vacuum_column_amplitudes(self):
        # |2,0> -> cos(Omega t/2) e^{-i w t} |2,0> - sin(Omega t/2) e^{-i w t} |1,1>
        p = JcmParams(omega=0.9, rabi=1.3, n_max=2)
        t = 0.8
        u = jcm_evolution(p, t)
        nf = 3
        ph = np.exp(-1j * p.omega * t)
        assert abs(u[0, 0] - ph * math.cos(p.rabi * t / 2)) < 1e-13
        assert abs(u[nf + 1, 0] + ph * math.sin(p.rabi * t / 2)) < 1e-13

    def test_adjoint_inverts_below_cutoff(self):
        p = JcmParams(1.0, 0.5, n_max=6)
        nf = 7
        u = jcm_evolution(p, 2.1)
        ud = jcm_evolution(p, 2.1, adjoint=True)
        prod = ud @ u
        keep = np.array([k for k in range(2 * nf) if k not in (nf - 1, 2 * nf - 1)])
        assert mc.max_abs_diff(prod[np.ix_(keep, keep)], np.eye(2 * nf)[np.ix_(keep, keep)]) < 1e-12

    def test_columns_below_cutoff_are_normalized(self):
        p = JcmParams(1.0, 0.9, n_max=5)
        u = jcm_evolution(p, 3.7)
        nf = 6
        norms = np.linalg.norm(u, axis=0)
        for k in range(2 * nf):
            if k in (nf - 1, 2 * nf - 1):
                continue
            assert norms[k] == pytest.approx(1.0, abs=1e-12)


class TestJcmVacuum:
    def test_support(self):
        p = JcmParams(1.0, 0.8, n_max=3)
        rho = models.jcm_vacuum_density(p, 1.2).matrix
        nf = 4
        support = {0, nf + 1}
        for i in range(2 * nf):
            for j in range(2 * nf):
                if i not in support or j not in support:
                    assert abs(rho[i, j]) < 1e-13

    def test_atom_reduction_formula(self):
        p = JcmParams(omega=1.0, rabi=0.9, n_max=2)
        for t in np.linspace(0.0, 15.0, 40):
            atom = neumann_reduce(models.jcm_vacuum_density(p, t), models.jcm_system(p)).rho_alpha
            c2, s2 = models.vacuum_rabi_populations(p, t)
            assert abs(atom.matrix[0, 0].real - c2) < 1e-10
            assert abs(atom.matrix[1, 1].real - s2) < 1e-10
            assert abs(atom.matrix[0, 1]) < 1e-12

    def test_field_reduction(self):
        p = JcmParams(omega=0.7, rabi=1.1, n_max=4)
        t = 0.9
        field = neumann_reduce(models.jcm_vacuum_density(p, t), models.jcm_system(p)).rho_beta
        c2, s2 = models.vacuum_rabi_populations(p, t)
        assert abs(field.matrix[0, 0].real - c2) < 1e-12
        assert abs(field.matrix[1, 1].real - s2) < 1e-12
        assert abs(field.matrix[0, 1]) < 1e-13

    def test_cutoff_independent(self):
        small = models.jcm_vacuum_density(JcmParams(1.0, 0.8, n_max=1), 2.3).matrix
        large = models.jcm_vacuum_density(JcmParams(1.0, 0.8, n_max=16), 2.3).matrix
        assert abs(small[0, 0] - large[0, 0]) < 1e-14
        assert abs(small[0, 2] - large[0, 17]) < 1e-14

    def test_purity(self):
        rho = models.jcm_vacuum_density(JcmParams(1.0, 0.8, n_max=4), 5.1)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


class TestPureAmplitudes:
    @pytest.mark.parametrize("n_max", [1, 16, 256])
    def test_jcm_vacuum_is_column_zero_bit_for_bit(self, n_max):
        rng = np.random.default_rng(n_max)
        for omega, rabi in [(1.0, 1.0), (0.7, 1.3)]:
            p = JcmParams(omega, rabi, n_max=n_max)
            for t in [0.0, *rng.uniform(-40.0, 40.0, 20)]:
                got = models.jcm_vacuum_amplitudes(p, t)
                assert got.tobytes() == jcm_evolution(p, t)[:, 0].tobytes()

    @pytest.mark.parametrize("n_max", [1, 2, 16, 256])
    def test_jcm_vacuum_is_its_block_scattered(self, n_max):
        # The whole vector is the block on atom and field levels {0, 1}
        # scattered into zeros, for a scalar, a 0-d and a (K,) t.
        p = JcmParams(0.7, 1.3, n_max=n_max)
        ts = np.random.default_rng(n_max).uniform(-40.0, 40.0, 16)
        ts[0] = 0.0
        for t in (0.0, float(ts[1]), np.array(ts[2]), ts):
            block = models._jcm_vacuum_block(p, t)
            assert block.shape == (*np.shape(t), 2, 2)
            want = np.zeros((*np.shape(t), 2, n_max + 1), dtype=complex)
            want[..., :2] = block
            got = models.jcm_vacuum_amplitudes(p, t)
            assert got.shape == (*np.shape(t), 2 * (n_max + 1))
            assert got.tobytes() == want.tobytes()

    def test_jcm_vacuum_density_is_the_projector(self):
        p = JcmParams(1.0, 0.8, n_max=5)
        u0 = models.jcm_vacuum_amplitudes(p, 2.3)
        rho = models.jcm_vacuum_density(p, 2.3).matrix
        assert rho.tobytes() == mc.hermitize(np.outer(u0, u0.conj())).tobytes()

    @pytest.mark.parametrize("k", [1, 16])
    def test_a_time_axis_gives_each_time_its_own_bits(self, k):
        # A (K,) array of times is a stack of the per-t calls, and a 0-d
        # time is a scalar one; omega = d = 0 takes the outer block's branch.
        rng = np.random.default_rng(k)
        ts = rng.uniform(-40.0, 40.0, k)
        ts[0] = 0.0
        calls = [
            lambda t: models.jcm_vacuum_amplitudes(JcmParams(0.7, 1.3, n_max=5), t),
            lambda t: models.spin_pair_amplitudes(SpinPairParams(0.9, 0.3, 1.1, 0.4), 0.6, t),
            lambda t: models.spin_pair_evolution(SpinPairParams(-1.2, -0.5, 0.8, 0.2), t),
            lambda t: models.spin_pair_evolution(SpinPairParams(0.0, 0.5, 0.8), t),
        ]
        for call in calls:
            got = call(ts)
            assert len(got) == k
            for row, t in zip(got, ts.tolist()):
                assert row.tobytes() == call(t).tobytes() == call(np.array(t)).tobytes()

    def test_spin_pair_projector_matches_dense_density(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            omega, j, c, d = rng.uniform(-2.0, 2.0, 4)
            p = SpinPairParams(omega, j, c, d)
            phi, t = rng.uniform(0.0, math.pi), rng.uniform(-20.0, 20.0)
            psi = models.spin_pair_amplitudes(p, phi, t)
            dense = models.spin_pair_density(p, phi, t).matrix
            assert mc.max_abs_diff(np.outer(psi, psi.conj()), dense) < 1e-15


class TestCorrelatedLimit:
    def test_excited_plateau(self):
        p = JcmParams(1.0, 1.0)
        assert models.jcm_correlated_limit(0.3, p) == (1.0, 0.0)

    def test_ground_plateau(self):
        p = JcmParams(1.0, 1.0)
        assert models.jcm_correlated_limit(math.pi, p) == (0.0, 1.0)

    def test_tie(self):
        p = JcmParams(1.0, 1.0)
        assert models.jcm_correlated_limit(math.pi / 2, p) == (0.5, 0.5)

    def test_tie_times(self):
        p = JcmParams(1.0, 2.0)
        # t = (2k+1) pi / (2 Omega)
        for tie in [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4]:
            assert models.jcm_correlated_limit(tie, p)[0] == 0.5

    def test_no_ties_without_coupling(self):
        p = JcmParams(1.0, 0.0)
        for t in np.linspace(0.0, 100.0, 101):
            assert models.jcm_correlated_limit(t, p) == (1.0, 0.0)


@pytest.mark.parametrize("call,product", [
    (lambda t: models.jcm_vacuum_amplitudes(JcmParams(1.0, 1e308, 2), t), "rabi * t"),
    (lambda t: models.jcm_vacuum_amplitudes(JcmParams(1e308, 1.0, 2), t), "omega * t"),
    (lambda t: models.spin_pair_evolution(SpinPairParams(1e308), t), "hypot(omega, d) * t"),
    (lambda t: models.spin_pair_evolution(SpinPairParams(1.0, d_coupling=1e308), t),
     "hypot(omega, d) * t"),
    (lambda t: models.spin_pair_evolution(SpinPairParams(1.0, j_coupling=1e308), t), "j * t"),
    (lambda t: models.spin_pair_evolution(SpinPairParams(1.0, c_coupling=1e308), t), "c * t"),
    (lambda t: models.spin_pair_correlation(0.3, 5e307, t), "2 * c * t"),
])
def test_overflowing_phase_is_a_validation_error(call, product):
    # Finite at t = 1; the product overflows at t = 2.
    assert np.isfinite(call(np.float64(1.0))).all()
    with pytest.raises(ValidationError, match=rf"^{re.escape(product)} overflows at t=2.0$"):
        call(np.float64(2.0))
    # An array names its first t that overflows.
    with pytest.raises(ValidationError, match=rf"^{re.escape(product)} overflows at t=2.0$"):
        call(np.array([1.0, -1.5, 2.0, 3.0]))


def test_an_array_names_its_first_overflowing_t_and_the_first_rate_there():
    # j * t overflows from t = 3 on, c * t from t = 2 on: t = 2 comes first,
    # where only c overflows, as a call at each t in turn would report.
    p = SpinPairParams(1.0, j_coupling=7e307, c_coupling=1e308)
    with pytest.raises(ValidationError, match=r"^c \* t overflows at t=2.0$"):
        models.spin_pair_evolution(p, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError, match=r"^j \* t overflows at t=3.0$"):
        models.spin_pair_evolution(p, np.array([1.0, 3.0, 2.0]))
