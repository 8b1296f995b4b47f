import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corred import matrixcore as mc
from corred import reduction as red
from corred.errors import DegenerateOverlap, DimensionMismatch, NotConverged, NotNonnegative
from corred.matrixcore import BipartiteSystem
from corred.models import JcmParams, jcm_system, jcm_vacuum_density
from corred.states import (
    DensityMatrix,
    Observable,
    epr_state,
    minimum_information_state,
    projector_state,
)

from conftest import random_density, random_nonnegative

SYS22 = BipartiteSystem(2, 2)


def product_state(ra, rb):
    return DensityMatrix(np.kron(ra.matrix, rb.matrix))


def condition_dense(rho, sys_, sigma, given_side):
    """Dense reference for reduction._condition.

    Forms sigma' = sigma extended by the identity and the O(N^3) product
    rho sigma', then traces out ``given_side``.
    """
    numerator = mc.partial_trace(rho @ mc.extend(sigma, sys_, given_side), sys_, given_side)
    out = mc.hermitize(numerator / np.real(np.trace(numerator)))
    return out / np.real(out.trace())


class TestNeumannReduce:
    def test_product_state_exact(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        res = red.neumann_reduce(product_state(ra, rb), SYS22)
        assert mc.matrices_close(res.rho_alpha.matrix, ra.matrix, 1e-12)
        assert mc.matrices_close(res.rho_beta.matrix, rb.matrix, 1e-12)
        assert res.reconstruction_error < 1e-12

    def test_epr_reductions_and_error(self):
        res = red.neumann_reduce(epr_state(), SYS22)
        assert mc.matrices_close(res.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert mc.matrices_close(res.rho_beta.matrix, np.eye(2) / 2, 1e-12)
        # max-abs of the entangled state minus the maximally mixed product
        assert res.reconstruction_error == pytest.approx(0.5, abs=1e-12)

    def test_general_4x4_entry(self, rng):
        rho = random_density(rng, 4)
        res = red.neumann_reduce(rho, SYS22)
        expected = rho.matrix[0, 0] + rho.matrix[1, 1]
        assert abs(res.rho_alpha.matrix[0, 0] - expected) < 1e-13


class TestReplacementOperator:
    def test_epr_gives_maximally_mixed_composite(self):
        got = red.replacement_operator(epr_state(), SYS22, observed="alpha")
        assert mc.matrices_close(got, np.eye(4) / 4, 1e-12)

    def test_product_with_mixed_beta_is_fixed_point(self, rng):
        ra = random_density(rng, 2)
        rho = product_state(ra, minimum_information_state(2))
        got = red.replacement_operator(rho, SYS22, observed="alpha")
        assert mc.matrices_close(got, rho.matrix, 1e-12)

    def test_block_pattern(self, rng):
        # observed side keeps its partial trace, the other becomes (1/N) I
        rho = random_density(rng, 4)
        got = red.replacement_operator(rho, SYS22, observed="alpha")
        ra = mc.partial_trace(rho.matrix, SYS22, "beta")
        assert mc.matrices_close(got, np.kron(ra, np.eye(2) / 2), 1e-14)
        got_b = red.replacement_operator(rho, SYS22, observed="beta")
        rb = mc.partial_trace(rho.matrix, SYS22, "alpha")
        assert mc.matrices_close(got_b, np.kron(np.eye(2) / 2, rb), 1e-14)


class TestConditionedReduce:
    def test_minimum_information_recovers_neumann(self, rng):
        for na, nb in ((2, 2), (2, 3), (3, 3)):
            sys_ = BipartiteSystem(na, nb)
            for _ in range(20):
                rho = random_density(rng, na * nb)
                got = red.conditioned_reduce(
                    rho, sys_, minimum_information_state(nb), given_side="beta"
                )
                want = mc.partial_trace(rho.matrix, sys_, "beta")
                assert mc.max_abs_diff(got.matrix, want) < 1e-12

    def test_product_state_cancels_sigma(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        sigma = random_density(rng, 2)
        got = red.conditioned_reduce(product_state(ra, rb), SYS22, sigma, given_side="beta")
        assert mc.matrices_close(got.matrix, ra.matrix, 1e-12)

    def test_epr_conditioned_on_lower_level(self):
        # conditioning beta on |1> forces alpha into |2>
        got = red.conditioned_reduce(
            epr_state(), SYS22, projector_state(2, 1), given_side="beta"
        )
        assert mc.matrices_close(got.matrix, np.diag([1.0, 0.0]), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 6),
        st.sampled_from(["alpha", "beta"]),
        st.integers(0, 2**32 - 1),
    )
    def test_contraction_matches_dense_reference(self, na, nb, side, seed):
        rng = np.random.default_rng(seed)
        sys_ = BipartiteSystem(na, nb)
        rho = random_density(rng, sys_.dim).matrix
        sigma = random_density(rng, na if side == "alpha" else nb).matrix
        got = red._condition(rho, sys_, sigma, side)
        assert mc.max_abs_diff(got, condition_dense(rho, sys_, sigma, side)) <= 1e-13

    def test_degenerate_overlap(self):
        rho = product_state(projector_state(2, 0), projector_state(2, 1))
        with pytest.raises(DegenerateOverlap):
            red.conditioned_reduce(rho, SYS22, projector_state(2, 0), given_side="beta")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            red.conditioned_reduce(epr_state(), SYS22, np.eye(3) / 3, given_side="beta")


class TestProjectiveReduce:
    def test_epr(self):
        res = red.projective_reduce(epr_state(), SYS22, level=1)
        assert mc.matrices_close(res.rho_alpha.matrix, np.diag([1.0, 0.0]), 1e-12)
        assert mc.matrices_close(res.rho_beta.matrix, np.diag([0.0, 1.0]), 1e-12)
        assert res.method == "projective"

    def test_product_state_unchanged(self, rng):
        ra = random_density(rng, 2)
        rho = product_state(ra, minimum_information_state(2))
        res = red.projective_reduce(rho, SYS22, level=0)
        assert mc.matrices_close(res.rho_alpha.matrix, ra.matrix, 1e-12)

    def test_jcm_emitted_photon_branch(self):
        # conditioning the field on |1 photon> leaves the atom in the ground state
        p = JcmParams(omega=1.0, rabi=1.0, n_max=4)
        rho = jcm_vacuum_density(p, t=0.9)
        res = red.projective_reduce(rho, jcm_system(p), level=1)
        assert mc.matrices_close(res.rho_alpha.matrix, np.diag([0.0, 1.0]), 1e-10)


class TestCorrelatedReduce:
    def test_product_state_one_sweep(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        rep = red.correlated_reduce(product_state(ra, rb), SYS22)
        assert rep.verdict == "converged"
        assert rep.iterations == 1
        assert rep.reconstruction_error < 1e-12
        assert mc.matrices_close(rep.rho_alpha.matrix, ra.matrix, 1e-12)

    def test_jcm_plateau_one(self):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 2 * (math.pi / 8) / p.rabi  # Omega t / 2 = pi / 8
        rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p))
        assert rep.verdict == "converged"
        pops = np.real(np.diag(rep.rho_alpha.matrix))
        assert np.allclose(pops, [1.0, 0.0], atol=1e-9)

    def test_jcm_plateau_zero(self):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 2 * (3 * math.pi / 8) / p.rabi
        rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p))
        assert rep.verdict == "converged"
        pops = np.real(np.diag(rep.rho_alpha.matrix))
        assert np.allclose(pops, [0.0, 1.0], atol=1e-9)

    def test_epr_neumann_seed_is_stationary(self):
        rep = red.correlated_reduce(epr_state(), SYS22)
        assert rep.verdict == "converged"
        assert mc.matrices_close(rep.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert mc.matrices_close(rep.rho_beta.matrix, np.eye(2) / 2, 1e-12)

    def test_epr_asymmetric_diagonal_seed_converges_immediately(self):
        # any diagonal pair with swapped populations is a fixed point
        seed = DensityMatrix(np.diag([0.7, 0.3]))
        rep = red.correlated_reduce(epr_state(), SYS22, seed=seed)
        assert rep.verdict == "converged"
        assert mc.matrices_close(rep.rho_alpha.matrix, np.diag([0.7, 0.3]), 1e-12)

    def test_jacobi_oscillation_detected(self):
        seed = DensityMatrix(np.diag([0.7, 0.3]))
        rep = red.correlated_reduce(epr_state(), SYS22, seed=seed, scheme="jacobi")
        assert rep.verdict == "oscillating"

    def test_report_invariants(self, rng):
        rho = random_density(rng, 4)
        rep = red.correlated_reduce(rho, SYS22, max_iter=500)
        assert len(rep.residuals) == rep.iterations
        if rep.verdict == "converged":
            assert rep.residuals[-1] < 1e-12
        for side in (rep.rho_alpha, rep.rho_beta):
            assert abs(side.matrix.trace() - 1.0) < 1e-12
            assert mc.is_hermitian(side.matrix, 1e-12)

    def test_reconstruction_not_worse_than_neumann_on_jcm(self):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        for half_angle in (0.2, 0.6, 1.0, 2.0, 2.8):
            t = 2 * half_angle / p.rabi
            rho = jcm_vacuum_density(p, t)
            corr = red.correlated_reduce(rho, jcm_system(p))
            neu = red.neumann_reduce(rho, jcm_system(p))
            assert (
                corr.reconstruction_error
                <= neu.reconstruction_error + 1e-10
            )

    def test_report_json(self):
        rep = red.correlated_reduce(epr_state(), SYS22)
        obj = rep.to_json()
        assert obj["verdict"] == "converged"
        assert len(obj["residuals"]) == obj["iterations"]
        assert "rho_alpha" in obj and "rho_beta" in obj


class TestMeanValue:
    def test_mixed_state_zero(self):
        a = Observable(np.diag([1.0, -1.0]), "inversion")
        assert red.mean_value(minimum_information_state(2), a) == pytest.approx(0.0)

    def test_pure_state(self):
        a = Observable(np.diag([1.0, -1.0]), "inversion")
        assert red.mean_value(projector_state(2, 0), a) == pytest.approx(1.0)

    def test_jcm_population(self):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 0.9
        rho_a = red.neumann_reduce(jcm_vacuum_density(p, t), jcm_system(p)).rho_alpha
        proj_22 = Observable(np.diag([1.0, 0.0]))
        want = math.cos(p.rabi * t / 2) ** 2
        assert red.mean_value(rho_a, proj_22).real == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            red.mean_value(minimum_information_state(2), Observable(np.eye(3)))


class TestCorrelator:
    def test_identity_observable_collapses_to_neumann_mean(self, rng):
        rho = random_density(rng, 4)
        a = Observable(random_nonnegative(rng, 2))
        b = Observable(np.eye(2))
        br = red.correlator(rho, SYS22, a, b)
        assert br.ab_form == pytest.approx(br.mean_a_neumann, abs=1e-10)
        assert br.exact == pytest.approx(br.mean_a_neumann, abs=1e-10)

    def test_product_state_factorizes(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        a = Observable(random_nonnegative(rng, 2))
        b = Observable(random_nonnegative(rng, 2))
        br = red.correlator(product_state(ra, rb), SYS22, a, b)
        want = red.mean_value(ra, a) * red.mean_value(rb, b)
        assert br.exact == pytest.approx(want, abs=1e-10)

    def test_epr_anticorrelation(self):
        a = Observable(np.diag([1.0, 0.0]))
        br = red.correlator(epr_state(), SYS22, a, a)
        # both spins up never occurs in the singlet-like state
        assert br.exact == pytest.approx(0.0, abs=1e-12)

    def test_both_factorizations_match_exact(self, rng):
        for _ in range(30):
            rho = random_density(rng, 4)
            a = Observable(random_nonnegative(rng, 2))
            b = Observable(random_nonnegative(rng, 2))
            br = red.correlator(rho, SYS22, a, b)
            assert br.ab_form is not None and br.ba_form is not None
            assert abs(br.exact - br.ab_form) < 1e-10
            assert abs(br.exact - br.ba_form) < 1e-10

    def test_zero_neumann_mean_disables_factorized_forms(self):
        a = Observable(np.diag([1.0, 0.0]))
        rho = DensityMatrix(np.kron(np.diag([0.0, 1.0]), np.eye(2) / 2))
        br = red.correlator(rho, SYS22, a, Observable(np.eye(2)))
        assert br.ab_form is None and br.ba_form is None
        assert br.exact == pytest.approx(0.0, abs=1e-12)

    def test_negative_observable_rejected_for_factorized_path(self, rng):
        rho = random_density(rng, 4)
        a = Observable(np.diag([1.0, -1.0]))
        b = Observable(random_nonnegative(rng, 2))
        with pytest.raises(NotNonnegative):
            red.correlator(rho, SYS22, a, b)


class TestCorrelatedMeanPair:
    def test_product_state_gap_zero(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        rho = product_state(ra, rb)
        a = Observable(random_nonnegative(rng, 2))
        b = Observable(random_nonnegative(rng, 2))
        rep = red.correlated_reduce(rho, SYS22)
        ma, mb, prod = red.correlated_mean_pair(rep, a, b)
        exact = red.correlator(rho, SYS22, a, b).exact
        assert prod == pytest.approx(exact.real, abs=1e-10)

    def test_jcm_plateau_values(self):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 2 * (math.pi / 8) / p.rabi
        rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p))
        a = Observable(np.diag([1.0, 0.0]), "atom excited")
        b = Observable(np.diag([1.0, 0.0]), "vacuum projector")
        ma, mb, prod = red.correlated_mean_pair(rep, a, b)
        assert (ma, mb, prod) == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_epr_documents_approximation_gap(self):
        rep = red.correlated_reduce(epr_state(), SYS22)
        a = Observable(np.diag([1.0, 0.0]))
        ma, mb, prod = red.correlated_mean_pair(rep, a, a)
        assert prod == pytest.approx(0.25, abs=1e-12)
        exact = red.correlator(epr_state(), SYS22, a, a).exact
        assert exact == pytest.approx(0.0, abs=1e-12)

    def test_requires_convergence(self):
        rep = dataclasses.replace(red.correlated_reduce(epr_state(), SYS22), verdict="max_iter")
        with pytest.raises(NotConverged):
            red.correlated_mean_pair(rep, Observable(np.eye(2)), Observable(np.eye(2)))


def test_neumann_mean_equals_extended_mean(rng):
    # full-space mean of an extended observable equals the reduced-state mean
    for _ in range(20):
        rho = random_density(rng, 4)
        a = np.diag([0.3, 1.7]).astype(complex)
        lhs = np.trace(rho.matrix @ mc.extend(a, SYS22, "alpha"))
        rhs = red.mean_value(red.neumann_reduce(rho, SYS22).rho_alpha, Observable(a))
        assert abs(lhs - rhs) < 1e-12
