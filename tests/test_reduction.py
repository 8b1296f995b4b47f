import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corred import matrixcore as mc
from corred import models
from corred import reduction as red
from corred.errors import (
    DegenerateOverlap,
    DimensionMismatch,
    NotConverged,
    NotNonnegative,
    ValidationError,
)
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


def realigned(rho, sys_):
    """The realigned state R[(i,j),(b,c)] = rho[(i,b),(j,c)], Na^2 x Nb^2."""
    na, nb = sys_.dim_alpha, sys_.dim_beta
    return rho.reshape(na, nb, na, nb).transpose(0, 2, 1, 3).reshape(na * na, nb * nb)


def gauss_seidel_reference(rho, sys_, seed=None, tol=1e-12, max_iter=10_000):
    """Plain Gauss-Seidel loop of the correlated reduction, with dense conditioning.

    Starts at the seed (the partial trace by default) and the partial trace
    of beta. Returns rho_alpha, rho_beta and the number of sweeps to
    convergence, or None in its place after ``max_iter`` sweeps.
    """
    ra = mc.partial_trace(rho, sys_, "beta") if seed is None else seed
    rb = mc.partial_trace(rho, sys_, "alpha")
    for n in range(1, max_iter + 1):
        rb_new = condition_dense(rho, sys_, ra, "alpha")
        ra_new = condition_dense(rho, sys_, rb_new, "beta")
        residual = max(mc.max_abs_diff(ra_new, ra), mc.max_abs_diff(rb_new, rb))
        ra, rb = ra_new, rb_new
        if residual < tol:
            return ra, rb, n
    return ra, rb, None


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
                assert mc.max_abs_diff(got.rho_alpha.matrix, want) < 1e-12

    def test_product_state_cancels_sigma(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        sigma = random_density(rng, 2)
        got = red.conditioned_reduce(product_state(ra, rb), SYS22, sigma, given_side="beta")
        assert mc.matrices_close(got.rho_alpha.matrix, ra.matrix, 1e-12)

    def test_epr_conditioned_on_lower_level(self):
        # conditioning beta on |1> forces alpha into |2>
        got = red.conditioned_reduce(
            epr_state(), SYS22, projector_state(2, 1), given_side="beta"
        )
        assert mc.matrices_close(got.rho_alpha.matrix, np.diag([1.0, 0.0]), 1e-12)

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

    def test_epr_pair_given_alpha(self):
        # partial trace I/2 paired with the conditioned I/2; the product
        # misses the EPR coherence 1/2
        got = red.conditioned_reduce(epr_state(), SYS22, np.eye(2) / 2, given_side="alpha")
        assert got.method == "conditioned"
        assert mc.matrices_close(got.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert mc.matrices_close(got.rho_beta.matrix, np.eye(2) / 2, 1e-12)
        assert got.reconstruction_error == pytest.approx(0.5, abs=1e-12)

    def test_epr_pair_given_beta(self):
        got = red.conditioned_reduce(epr_state(), SYS22, np.eye(2) / 2, given_side="beta")
        assert got.method == "conditioned"
        assert mc.matrices_close(got.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert got.rho_beta is None
        assert got.reconstruction_error is None

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

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            red.correlated_reduce(epr_state(), SYS22, tol=tol)

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


class TestClosedFormStart:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_sweep_reference(self, na, nb, seed):
        rng = np.random.default_rng(seed)
        sys_ = BipartiteSystem(na, nb)
        rho = random_density(rng, sys_.dim)
        sv = np.linalg.svd(realigned(rho.matrix, sys_), compute_uv=False)
        assume(sv.size == 1 or sv[1] < 0.9 * sv[0])
        ra, rb, sweeps = gauss_seidel_reference(rho.matrix, sys_, tol=1e-13)
        assert sweeps is not None
        rep = red.correlated_reduce(rho, sys_)
        assert rep.verdict == "converged" and rep.iterations == 1
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) <= 1e-10
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) <= 1e-10

    @pytest.mark.parametrize("na,nb", [(2, 3), (3, 2), (3, 3)])
    def test_pure_state_gives_top_schmidt_projectors(self, rng, na, nb):
        psi = rng.standard_normal(na * nb) + 1j * rng.standard_normal(na * nb)
        psi /= np.linalg.norm(psi)
        u, s, vh = np.linalg.svd(psi.reshape(na, nb))
        assert s[1] < 0.9 * s[0]
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        rep = red.correlated_reduce(rho, BipartiteSystem(na, nb))
        assert rep.verdict == "converged" and rep.iterations == 1
        assert mc.max_abs_diff(rep.rho_alpha.matrix, np.outer(u[:, 0], u[:, 0].conj())) < 1e-12
        assert mc.max_abs_diff(rep.rho_beta.matrix, np.outer(vh[0], vh[0].conj())) < 1e-12

    def test_jcm_vacuum_operator_schmidt_values(self):
        # sigma = {c^2, s^2, |cs|, |cs|}: a tie c^2 = s^2 is a tie of the top two
        p = JcmParams(omega=1.0, rabi=1.0, n_max=4)
        for t in (0.3, 1.1, 2.0, 4.0, 7.0):
            c, s = math.cos(p.rabi * t / 2), math.sin(p.rabi * t / 2)
            got = np.linalg.svd(realigned(jcm_vacuum_density(p, t).matrix, jcm_system(p)),
                                compute_uv=False)
            want = sorted([c * c, s * s, abs(c * s), abs(c * s)], reverse=True)
            assert mc.max_abs_diff(got, want) < 1e-14

    @pytest.mark.parametrize("n_max", [1, 16])
    def test_jcm_step_limit_in_one_sweep(self, n_max):
        p = JcmParams(omega=1.0, rabi=1.0, n_max=n_max)
        half_angles = np.concatenate([
            np.linspace(0.02, math.pi / 4 - 0.05, 6),
            np.linspace(math.pi / 4 + 0.05, 3 * math.pi / 4 - 0.05, 6),
        ])
        # The last point is 2.9e-4 past the tie 5 pi / 2, where the sweep
        # loop from the partial trace stops at max_iter.
        for t in [*(2 * half_angles / p.rabi), 5 * math.pi / 2 + 2.9e-4]:
            rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p))
            assert rep.verdict == "converged" and rep.iterations == 1
            limit_c, _ = models.jcm_correlated_limit(t, p)
            assert abs(rep.rho_alpha.matrix[0, 0].real - limit_c) < 1e-12

    @pytest.mark.parametrize("offset", [1e-5, 5e-5, -5e-5])
    def test_gap_at_or_below_eps_over_tol_keeps_the_seed_start(self, offset):
        # The relative gap at 5 pi / 2 + offset is about 2 |offset|: 2e-5 and
        # 1e-4 against eps / tol = 2.2e-4. The loop from the partial trace
        # contracts at 1 - gap per sweep, so it ends at max_iter.
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        rho = jcm_vacuum_density(p, 5 * math.pi / 2 + offset).matrix
        ra, rb, sweeps = gauss_seidel_reference(rho, jcm_system(p), max_iter=40)
        assert sweeps is None
        rep = red.correlated_reduce(rho, jcm_system(p), max_iter=40)
        assert rep.verdict == "max_iter" and rep.iterations == 40
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-14
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-14

    @pytest.mark.parametrize("offset", [1.5e-4, -1.5e-4])
    def test_gap_just_above_eps_over_tol_starts_at_the_closed_form(self, offset):
        # Relative gap 3e-4, 1.35 eps / tol.
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 5 * math.pi / 2 + offset
        rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p), max_iter=40)
        assert rep.verdict == "converged" and rep.iterations == 1
        limit_c, _ = models.jcm_correlated_limit(t, p)
        assert abs(rep.rho_alpha.matrix[0, 0].real - limit_c) < 1e-12

    @pytest.mark.parametrize("na,nb", [(5, 5), (5, 7), (7, 5)])
    def test_min_dim_above_the_cutoff_keeps_the_seed_start(self, rng, na, nb):
        assert min(na, nb) > red.CLOSED_FORM_MAX_DIM
        sys_ = BipartiteSystem(na, nb)
        rho = random_density(rng, sys_.dim).matrix
        ra, rb, sweeps = gauss_seidel_reference(rho, sys_)
        assert sweeps is not None and sweeps > 1
        rep = red.correlated_reduce(rho, sys_)
        assert rep.verdict == "converged" and rep.iterations == sweeps
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-13
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-13

    @pytest.mark.parametrize("na,nb,calls", [(2, 3, 2), (4, 9, 2), (3, 2, 3), (9, 4, 3)])
    def test_closed_form_run_conditions_no_pair_twice(self, rng, monkeypatch, na, nb, calls):
        # Alpha side: the start conditions rho_beta on rho_alpha, the sweep
        # rho_alpha on it. Beta side: one more, rho_alpha on the top vector.
        seen = []
        condition = red._condition
        monkeypatch.setattr(red, "_condition",
                            lambda *a, **k: seen.append(a[3]) or condition(*a, **k))
        sys_ = BipartiteSystem(na, nb)
        rep = red.correlated_reduce(random_density(rng, sys_.dim), sys_)
        assert rep.verdict == "converged" and rep.iterations == 1
        assert len(seen) == calls

    @pytest.mark.parametrize("seed", [None, np.diag([0.7, 0.3])])
    def test_degenerate_spectrum_keeps_the_seed_start(self, seed):
        # All four operator-Schmidt values of EPR are 1/2.
        ra, rb, sweeps = gauss_seidel_reference(epr_state().matrix, SYS22, seed)
        rep = red.correlated_reduce(epr_state(), SYS22, seed=seed)
        assert rep.verdict == "converged" and rep.iterations == sweeps
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-15
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-15

    def test_seed_orthogonal_to_top_vector_keeps_the_seed_start(self):
        # Two fixed points, |00> (top, sigma 0.8) and |11> (sigma 0.2); the
        # seed |1><1| sees only the second.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rho = DensityMatrix(0.8 * np.kron(p0, p0) + 0.2 * np.kron(p1, p1))
        ra, rb, sweeps = gauss_seidel_reference(rho.matrix, SYS22, p1)
        rep = red.correlated_reduce(rho, SYS22, seed=DensityMatrix(p1))
        assert rep.verdict == "converged" and rep.iterations == sweeps
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-15
        assert mc.max_abs_diff(rep.rho_alpha.matrix, p1) < 1e-15
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-15
        top = red.correlated_reduce(rho, SYS22)
        assert mc.max_abs_diff(top.rho_alpha.matrix, p0) < 1e-15

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_array_fails_as_the_sweep_loop_does(self):
        # eigh cannot take NaN; the loop from the seed runs and its NaN
        # result fails validation.
        with pytest.raises(ValidationError, match="non-finite"):
            red.correlated_reduce(np.full((4, 4), np.nan), SYS22, max_iter=3)


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
