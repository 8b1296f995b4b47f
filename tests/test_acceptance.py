"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line on the real stdout so
the verdicts stay visible in captured pytest runs.
"""

import math

import numpy as np

from corred import ensembles, matrixcore as mc, models, reduction
from corred.matrixcore import BipartiteSystem
from corred.models import JcmParams, SpinPairParams
from corred.states import (
    DensityMatrix,
    Observable,
    epr_state,
    minimum_information_state,
    projector_state,
    spin_pair_initial,
    thermal_state,
    triplet_state,
)

import conftest
from conftest import (
    expm,
    random_density,
    random_hermitian,
    random_nonnegative,
    spin_pair_hamiltonian,
)

SYS22 = BipartiteSystem(2, 2)


def _verdict(n: int, ok: bool) -> None:
    conftest.acceptance_lines.append(f"criterion {n}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def test_criterion_01_conditioned_minimum_information_equals_neumann(rng):
    dims = [(2, 2), (2, 3), (3, 3)]
    ok = True
    for k in range(200):
        na, nb = dims[k % 3]
        sys_ = BipartiteSystem(na, nb)
        rho = random_density(rng, na * nb)
        sigma = minimum_information_state(nb)
        cond = reduction.conditioned_reduce(rho, sys_, sigma, given_side="beta")
        neu = reduction.neumann_reduce(rho, sys_).rho_alpha
        ok &= mc.max_abs_diff(cond.rho_alpha.matrix, neu.matrix) < 1e-12
    _verdict(1, ok)


def test_criterion_02_epr_reductions():
    rho = epr_state()
    res = reduction.neumann_reduce(rho, SYS22)
    ok = mc.max_abs_diff(res.rho_alpha.matrix, np.eye(2) / 2) < 1e-12
    ok &= mc.max_abs_diff(res.rho_beta.matrix, np.eye(2) / 2) < 1e-12
    repl = reduction.replacement_operator(rho, SYS22)
    ok &= mc.max_abs_diff(repl, np.eye(4) / 4) < 1e-12
    _verdict(2, ok)


def _decomposition_criterion(n, factory, target):
    ok = True
    for theta in (0.0, 0.7, math.pi / 2, 2.3):
        e = factory(theta)
        ok &= mc.max_abs_diff(ensembles.assemble(e), target.matrix) < 1e-12
        for term in e.terms:
            for m in (term.left, term.right):
                ok &= sorted(np.real(np.diag(m)).tolist()) == [0.0, 1.0]
        stats = ensembles.diagonal_statistics(e)
        ok &= stats["mean_a22_times_1_minus_a22"] == 0.0
        ok &= stats["mean_a22_squared"] == 0.5
    _verdict(n, ok)


def test_criterion_03_epr_hidden_ensemble():
    _decomposition_criterion(3, ensembles.epr_decomposition, epr_state())


def test_criterion_04_triplet_hidden_ensemble():
    _decomposition_criterion(4, ensembles.triplet_decomposition, triplet_state())


def test_criterion_05_spin_pair_closed_form(rng):
    ok = True
    for _ in range(20):
        p = SpinPairParams(*rng.uniform(-3, 3, size=4))
        h = spin_pair_hamiltonian(p)
        for t in (0.5, 2.0, 10.0):
            u = models.spin_pair_evolution(p, t)
            ref = expm(h, t)
            ok &= np.linalg.norm(u - ref, 2) < 1e-9
    _verdict(5, ok)


def test_criterion_06_spin_pair_time_dependence():
    c = 0.45
    p = SpinPairParams(omega=1.0, c_coupling=c)
    ok = True
    for phi in np.linspace(0.0, math.pi / 2, 20):
        for t in np.linspace(0.0, 12.0, 20):
            rho = models.spin_pair_density(p, phi, t).matrix
            pop = (1 + math.cos(2 * phi) * math.cos(2 * c * t)) / 2
            coh = 0.5 * (1j * math.cos(2 * phi) * math.sin(2 * c * t) - math.sin(2 * phi))
            ok &= abs(rho[1, 1].real - pop) < 1e-10
            ok &= abs(rho[1, 2] - coh) < 1e-10
    # equal populations at the zeros of cos(2 c t), t_n = (2n+1) pi / (4c)
    for n in range(4):
        t_n = (2 * n + 1) * math.pi / (4 * c)
        rho = models.spin_pair_density(p, 0.3, t_n).matrix
        ok &= abs(rho[1, 1].real - 0.5) < 1e-10
        ok &= abs(rho[2, 2].real - 0.5) < 1e-10
    _verdict(6, ok)


def test_criterion_07_vacuum_rabi():
    ok = True
    p1 = JcmParams(omega=1.0, rabi=0.9, n_max=1)
    p16 = JcmParams(omega=1.0, rabi=0.9, n_max=16)
    for t in np.linspace(0.0, 20.0, 100):
        small = reduction.neumann_reduce(
            models.jcm_vacuum_density(p1, t), models.jcm_system(p1)
        ).rho_alpha.matrix
        big = reduction.neumann_reduce(
            models.jcm_vacuum_density(p16, t), models.jcm_system(p16)
        ).rho_alpha.matrix
        ok &= abs(small[0, 0].real - math.cos(p1.rabi * t / 2) ** 2) < 1e-10
        ok &= mc.max_abs_diff(small, big) < 1e-12
    _verdict(7, ok)


def test_criterion_08_jcm_step_limit():
    p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
    sys_ = models.jcm_system(p)
    ok = True
    half_angles = np.concatenate(
        [
            np.linspace(0.02, math.pi / 4 - 0.05, 6),
            np.linspace(math.pi / 4 + 0.05, 3 * math.pi / 4 - 0.05, 6),
        ]
    )
    for x in half_angles:
        t = 2 * x / p.rabi
        rho = models.jcm_vacuum_density(p, t)
        rep = reduction.correlated_reduce(rho, sys_, tol=1e-12, max_iter=10_000)
        limit_c, _ = models.jcm_correlated_limit(t, p)
        ok &= rep.verdict == "converged"
        ok &= abs(rep.rho_alpha.matrix[0, 0].real - limit_c) < 1e-9
    # near the tie, convergence slows; document the iteration count instead
    # of asserting a value
    x_near = math.pi / 4 + 0.005
    rep = reduction.correlated_reduce(
        models.jcm_vacuum_density(p, 2 * x_near / p.rabi), sys_, tol=1e-12, max_iter=10_000
    )
    conftest.acceptance_lines.append(
        f"criterion 8 note: near-tie run (half-angle pi/4+0.005) "
        f"verdict={rep.verdict} after {rep.iterations} iterations"
    )
    _verdict(8, ok)


def test_criterion_09_correlator_factorizations(rng):
    ok = True
    for _ in range(100):
        rho = random_density(rng, 4)
        a = Observable(random_nonnegative(rng, 2), "A")
        b = Observable(random_nonnegative(rng, 2), "B")
        br = reduction.correlator(rho, SYS22, a, b)
        ok &= br.ab_form is not None and br.ba_form is not None
        ok &= abs(br.exact - br.ab_form) < 1e-10
        ok &= abs(br.exact - br.ba_form) < 1e-10
    _verdict(9, ok)


def test_criterion_10_product_states_one_sweep(rng):
    ok = True
    for _ in range(100):
        ra = random_density(rng, 2).matrix
        rb = random_density(rng, 3).matrix
        rho = DensityMatrix(np.kron(ra, rb))
        rep = reduction.correlated_reduce(rho, BipartiteSystem(2, 3), tol=1e-12)
        ok &= rep.verdict == "converged"
        ok &= rep.iterations == 1
        ok &= rep.reconstruction_error < 1e-12
    _verdict(10, ok)


def test_criterion_11_property_suite(rng):
    ok = True
    # every constructor output survives strict validation
    for dm in (
        minimum_information_state(3),
        thermal_state(np.diag([1.0, -1.0]), 0.7),
        projector_state(3, 1),
        epr_state(),
        triplet_state(),
        spin_pair_initial(0.41),
    ):
        DensityMatrix(dm.matrix, validation="strict")
    # evolution operators unitary
    for _ in range(5):
        p = SpinPairParams(*rng.uniform(-2, 2, size=4))
        u = models.spin_pair_evolution(p, rng.uniform(0, 8))
        ok &= mc.max_abs_diff(u @ u.conj().T, np.eye(4)) < 1e-10
        h = random_hermitian(rng, 6)
        ue = expm(h, 1.7)
        ok &= mc.max_abs_diff(ue @ ue.conj().T, np.eye(6)) < 1e-10
    # kron / partial-trace algebra on random inputs
    for _ in range(20):
        ra = random_density(rng, 2).matrix
        rb = random_density(rng, 3).matrix
        sys_ = BipartiteSystem(2, 3)
        prod = np.kron(ra, rb)
        ok &= mc.max_abs_diff(mc.partial_trace(prod, sys_, "beta"), ra) < 1e-12
        ok &= mc.max_abs_diff(mc.partial_trace(prod, sys_, "alpha"), rb) < 1e-12
        ok &= abs(np.trace(prod) - np.trace(ra) * np.trace(rb)) < 1e-12
    _verdict(11, ok)
