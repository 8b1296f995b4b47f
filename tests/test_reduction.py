import dataclasses
import itertools
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corred import matrixcore as mc
from corred import models
from corred import reduction as red
from corred.errors import (
    CorredError,
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

from conftest import matrices_close, random_density, random_nonnegative

SYS22 = BipartiteSystem(2, 2)


def product_state(ra, rb):
    return DensityMatrix(np.kron(ra.matrix, rb.matrix))


def condition_dense(rho, sys_, sigma, given_side):
    """Dense reference for reduction._condition.

    Forms sigma' = sigma extended by the identity and the O(N^3) product
    rho sigma', then traces out ``given_side``.
    """
    eye_a, eye_b = np.eye(sys_.dim_alpha), np.eye(sys_.dim_beta)
    extended = np.kron(sigma, eye_b) if given_side == "alpha" else np.kron(eye_a, sigma)
    numerator = mc.partial_trace(rho @ extended, sys_, given_side)
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


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


def near_tie_mixture(a, b, w, noise):
    """w |a_0><a_0| x |b_0><b_0| + (1 - w) |a_1><a_1| x |b_1><b_1| for the
    columns of the unitaries a and b, plus 1e-3 of the state ``noise``,
    normalized: its top two operator-Schmidt values are about w and 1 - w."""
    terms = [np.kron(np.outer(a[:, k], a[:, k].conj()), np.outer(b[:, k], b[:, k].conj()))
             for k in (0, 1)]
    rho = w * terms[0] + (1 - w) * terms[1] + 1e-3 * noise
    return rho / np.trace(rho).real


@st.composite
def correlated_states(draw):
    """(rho, system) of dims 1-9 x 1-9: a Wishart state or, where both dims
    are 2 or more, a near-tie mixture in Haar bases with w in
    [0.5005, 0.6] and a Wishart state as its noise."""
    na, nb = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density(rng, na * nb).matrix
    if min(na, nb) > 1 and draw(st.booleans()):
        w = draw(st.floats(0.5005, 0.6))
        rho = near_tie_mixture(haar_unitary(rng, na), haar_unitary(rng, nb), w, rho)
    return rho, BipartiteSystem(na, nb)


class TestNeumannReduce:
    def test_product_state_exact(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        res = red.neumann_reduce(product_state(ra, rb), SYS22)
        assert matrices_close(res.rho_alpha.matrix, ra.matrix, 1e-12)
        assert matrices_close(res.rho_beta.matrix, rb.matrix, 1e-12)
        assert res.reconstruction_error < 1e-12

    def test_epr_reductions_and_error(self):
        res = red.neumann_reduce(epr_state(), SYS22)
        assert matrices_close(res.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert matrices_close(res.rho_beta.matrix, np.eye(2) / 2, 1e-12)
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
        assert matrices_close(got, np.eye(4) / 4, 1e-12)

    def test_product_with_mixed_beta_is_fixed_point(self, rng):
        ra = random_density(rng, 2)
        rho = product_state(ra, minimum_information_state(2))
        got = red.replacement_operator(rho, SYS22, observed="alpha")
        assert matrices_close(got, rho.matrix, 1e-12)

    def test_block_pattern(self, rng):
        # observed side keeps its partial trace, the other becomes (1/N) I
        rho = random_density(rng, 4)
        got = red.replacement_operator(rho, SYS22, observed="alpha")
        ra = mc.partial_trace(rho.matrix, SYS22, "beta")
        assert matrices_close(got, np.kron(ra, np.eye(2) / 2), 1e-14)
        got_b = red.replacement_operator(rho, SYS22, observed="beta")
        rb = mc.partial_trace(rho.matrix, SYS22, "alpha")
        assert matrices_close(got_b, np.kron(np.eye(2) / 2, rb), 1e-14)


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
        assert matrices_close(got.rho_alpha.matrix, ra.matrix, 1e-12)

    def test_epr_conditioned_on_lower_level(self):
        # conditioning beta on |1> forces alpha into |2>
        got = red.conditioned_reduce(
            epr_state(), SYS22, projector_state(2, 1), given_side="beta"
        )
        assert matrices_close(got.rho_alpha.matrix, np.diag([1.0, 0.0]), 1e-12)

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
        got = red._condition(rho, sys_, sigma, side, [])
        assert mc.max_abs_diff(got, condition_dense(rho, sys_, sigma, side)) <= 1e-13

    def test_epr_pair_given_alpha(self):
        # partial trace I/2 paired with the conditioned I/2; the product
        # misses the EPR coherence 1/2
        got = red.conditioned_reduce(epr_state(), SYS22, np.eye(2) / 2, given_side="alpha")
        assert got.method == "conditioned"
        assert matrices_close(got.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert matrices_close(got.rho_beta.matrix, np.eye(2) / 2, 1e-12)
        assert got.reconstruction_error == pytest.approx(0.5, abs=1e-12)

    def test_epr_pair_given_beta(self):
        got = red.conditioned_reduce(epr_state(), SYS22, np.eye(2) / 2, given_side="beta")
        assert got.method == "conditioned"
        assert matrices_close(got.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
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
        assert matrices_close(res.rho_alpha.matrix, np.diag([1.0, 0.0]), 1e-12)
        assert matrices_close(res.rho_beta.matrix, np.diag([0.0, 1.0]), 1e-12)
        assert res.method == "projective"

    def test_product_state_unchanged(self, rng):
        ra = random_density(rng, 2)
        rho = product_state(ra, minimum_information_state(2))
        res = red.projective_reduce(rho, SYS22, level=0)
        assert matrices_close(res.rho_alpha.matrix, ra.matrix, 1e-12)

    def test_jcm_emitted_photon_branch(self):
        # conditioning the field on |1 photon> leaves the atom in the ground state
        p = JcmParams(omega=1.0, rabi=1.0, n_max=4)
        rho = jcm_vacuum_density(p, t=0.9)
        res = red.projective_reduce(rho, jcm_system(p), level=1)
        assert matrices_close(res.rho_alpha.matrix, np.diag([0.0, 1.0]), 1e-10)


class TestCorrelatedReduce:
    def test_product_state_one_sweep(self, rng):
        ra, rb = random_density(rng, 2), random_density(rng, 2)
        rep = red.correlated_reduce(product_state(ra, rb), SYS22)
        assert rep.verdict == "converged"
        assert rep.iterations == 1
        assert rep.reconstruction_error < 1e-12
        assert matrices_close(rep.rho_alpha.matrix, ra.matrix, 1e-12)

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
        assert matrices_close(rep.rho_alpha.matrix, np.eye(2) / 2, 1e-12)
        assert matrices_close(rep.rho_beta.matrix, np.eye(2) / 2, 1e-12)

    def test_epr_asymmetric_diagonal_seed_converges_immediately(self):
        # any diagonal pair with swapped populations is a fixed point
        seed = DensityMatrix(np.diag([0.7, 0.3]))
        rep = red.correlated_reduce(epr_state(), SYS22, seed=seed)
        assert rep.verdict == "converged"
        assert matrices_close(rep.rho_alpha.matrix, np.diag([0.7, 0.3]), 1e-12)

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
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
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
    def test_near_tie_reaches_the_step_limit_in_one_sweep(self, offset):
        # The relative gap at 5 pi / 2 + offset is about 2 |offset|: 2e-5 and
        # 1e-4, below eps / tol = 2.2e-4. The loop from the partial trace
        # contracts at 1 - gap per sweep, so it ends at max_iter. The
        # amplitude vector's Gram is diagonal, so eigh's top vector has
        # residual 0 and the certified start is the step limit. The density's
        # Lanczos residual is of rounding size, above tol * gap at this gap
        # unless it is exactly 0, so its run is certified only within tol.
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 5 * math.pi / 2 + offset
        rho = jcm_vacuum_density(p, t).matrix
        assert gauss_seidel_reference(rho, jcm_system(p), max_iter=40)[2] is None
        limit_c, _ = models.jcm_correlated_limit(t, p)
        rep = red.correlated_reduce(models.jcm_vacuum_amplitudes(p, t), jcm_system(p), max_iter=40)
        assert rep.verdict == "converged" and rep.iterations == 1
        assert abs(rep.rho_alpha.matrix[0, 0].real - limit_c) < 1e-12
        dense = red.correlated_reduce(rho, jcm_system(p), max_iter=40)
        assert dense.verdict == "max_iter" or abs(dense.rho_alpha.matrix[0, 0].real - limit_c) < 1e-12

    @pytest.mark.parametrize("rabi", [0.7, 1.0, 2.3])
    def test_jcm_near_tie_band_converges_in_one_sweep(self, rabi):
        # Offsets of Omega t from the ties pi/2 and 9 pi/2, on both sides.
        # From 2e-12 on, the step value; closer, where cos^2 - sin^2 is
        # within 2e-12 of 0, the step value or 1/2.
        p = JcmParams(omega=1.0, rabi=rabi, n_max=16)
        for tie in (math.pi / 2, 9 * math.pi / 2):
            for offset in (1e-14, 1e-12, 2e-12, 1e-10, 1e-8, 1e-6, 1e-4, 2e-4):
                for t in ((tie + offset) / rabi, (tie - offset) / rabi):
                    rep = red.correlated_reduce(models.jcm_vacuum_amplitudes(p, t), jcm_system(p))
                    assert rep.verdict == "converged" and rep.iterations == 1
                    pop = rep.rho_alpha.matrix[0, 0].real
                    step = float(math.cos(rabi * t / 2) ** 2 > 0.5)
                    allowed = (step,) if offset >= 2e-12 else (step, 0.5)
                    assert min(abs(pop - v) for v in allowed) < 1e-12, (t, pop)

    @pytest.mark.parametrize("offset", [1.5e-4, -1.5e-4])
    def test_gap_just_above_eps_over_tol_starts_at_the_closed_form(self, offset):
        # Relative gap 3e-4, 1.35 eps / tol: eigh alone places the top vector
        # within tol here.
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        t = 5 * math.pi / 2 + offset
        rep = red.correlated_reduce(jcm_vacuum_density(p, t), jcm_system(p), max_iter=40)
        assert rep.verdict == "converged" and rep.iterations == 1
        limit_c, _ = models.jcm_correlated_limit(t, p)
        assert abs(rep.rho_alpha.matrix[0, 0].real - limit_c) < 1e-12

    @pytest.mark.parametrize("na,nb", [(5, 5), (5, 7), (7, 5)])
    def test_min_dim_above_four_starts_at_the_top_pair(self, rng, na, nb):
        sys_ = BipartiteSystem(na, nb)
        rho = random_density(rng, sys_.dim).matrix
        ra, rb, sweeps = gauss_seidel_reference(rho, sys_)
        assert sweeps is not None and sweeps > 1
        rep = red.correlated_reduce(rho, sys_)
        assert rep.verdict == "converged" and rep.iterations == 1
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

    @pytest.mark.parametrize("na,nb,pure,seeded,calls", [
        (2, 3, True, False, 3), (4, 9, True, False, 3), (2, 3, True, True, 3),
        (2, 3, False, False, 11), (2, 3, False, True, 10), (3, 2, True, False, 5),
        (3, 2, True, True, 4), (3, 2, False, False, 13), (3, 2, False, True, 12)])
    def test_closed_form_run_contracts_no_gram_twice(self, rng, monkeypatch, na, nb, pure,
                                                     seeded, calls):
        # The conditionings counted above, the default seed Sp_beta rho and an
        # amplitude vector's Gram, which on the alpha side is that seed. A
        # matrix adds two per Lanczos step, here all n^2 = 4 of them, and on
        # the beta side the beta state of the seed that Lanczos starts from.
        seen = []
        contract = mc._contract
        monkeypatch.setattr(mc, "_contract", lambda *a, **k: seen.append(a[2]) or contract(*a, **k))
        sys_ = BipartiteSystem(na, nb)
        state = random_amplitudes(rng, sys_.dim) if pure else random_density(rng, sys_.dim)
        seed = random_density(rng, na) if seeded else None
        rep = red.correlated_reduce(state, sys_, seed=seed)
        assert rep.verdict == "converged" and rep.iterations == 1
        assert len(seen) == calls

    def test_refused_start_takes_the_beta_gram_once(self):
        # Na > Nb: the start's Gram Psi^T Psi^* is the beta iterate's partial
        # trace. The Bell pair's Gram I/2 is a tie, so the loop starts there:
        # the default seed, that Gram and one sweep's two conditionings.
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[3] = 2 ** -0.5
        contract = mc._contract
        with mock.patch.object(mc, "_contract", side_effect=contract) as spy:
            rep = red.correlated_reduce(psi, BipartiteSystem(3, 2))
        assert [c.args[2:] for c in spy.call_args_list].count(("alpha",)) == 1
        assert spy.call_count == 4
        assert rep.verdict == "converged" and rep.iterations == 1
        assert mc.max_abs_diff(rep.rho_alpha.matrix, np.diag([0.5, 0.5, 0.0])) < 1e-15
        assert mc.max_abs_diff(rep.rho_beta.matrix, np.eye(2) / 2) < 1e-15

    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_a_seeded_run_stops_at_max_iter(self, max_iter):
        # At a relative gap of 2e-5 the JCM density's start is not certified
        # (see above), so the loop starts at the seed and runs past 40
        # sweeps; every sweep up to max_iter is recorded.
        p = JcmParams(omega=1.0, rabi=1.0, n_max=1)
        sys_, rho = jcm_system(p), jcm_vacuum_density(p, 5 * math.pi / 2 + 1e-5)
        assert red.correlated_reduce(rho, sys_, max_iter=40).verdict == "max_iter"
        ra, rb, sweeps = gauss_seidel_reference(rho.matrix, sys_, max_iter=max_iter)
        rep = red.correlated_reduce(rho, sys_, max_iter=max_iter)
        assert sweeps is None and rep.verdict == "max_iter"
        assert rep.iterations == len(rep.residuals) == max_iter
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-13
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-13

    def test_a_degenerate_first_sweep_raises(self):
        # The seed |1><1| does not overlap the top vector |0><0|, so the loop
        # starts at the seed, whose overlap with rho is 0.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rho = DensityMatrix(np.kron(p0, p1))
        with pytest.raises(DegenerateOverlap, match=r"overlap denominator 0\.000e\+00 below 1e-14"):
            red.correlated_reduce(rho, SYS22, seed=DensityMatrix(p1))

    def test_a_seed_with_no_beta_state_raises_at_the_first_sweep(self):
        # Na > Nb, so the start is searched for on beta, from the beta state
        # that the seed |1><1| conditions, which is 0 here: the loop starts
        # at the seed, whose overlap with rho is 0.
        rho = DensityMatrix(np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(2) / 2))
        seed = DensityMatrix(np.diag([0.0, 1.0, 0.0]))
        with pytest.raises(DegenerateOverlap, match=r"overlap denominator 0\.000e\+00 below 1e-14"):
            red.correlated_reduce(rho, BipartiteSystem(3, 2), seed=seed)

    def test_a_degenerate_verifying_sweep_raises(self, rng, monkeypatch):
        # No sweep is recorded before the verifying one, so its
        # DegenerateOverlap leaves the reduction rather than ending the run.
        rho = random_density(rng, 4)
        assert red.correlated_reduce(rho, SYS22).iterations == 1  # a certified start
        condition = red._condition

        def degenerate_on_beta(rho, sys_, sigma, given_side, warnings=None):
            if given_side == "beta":
                raise DegenerateOverlap("overlap denominator 0.000e+00 below 1e-14")
            return condition(rho, sys_, sigma, given_side, warnings)
        monkeypatch.setattr(red, "_condition", degenerate_on_beta)
        with pytest.raises(DegenerateOverlap):
            red.correlated_reduce(rho, SYS22)

    def test_a_degenerate_certified_start_falls_back_and_the_loop_ends_degenerate(self, caplog):
        # A relaxed rho (trace 1, not positive) whose certified top vector
        # diag(1, 0) has an overlap denominator of exactly 0, so the loop
        # starts at the seed; from there each sweep's denominator shrinks,
        # three of them below the warning threshold, until one is degenerate.
        rho, seed = np.diag([2.0, -2.0, 0.5, 0.5]), np.diag([0.5, 0.5])
        with pytest.raises(DegenerateOverlap, match=r"overlap denominator 0\.000e\+00"):
            red._condition(rho, SYS22, np.diag([1.0, 0.0]), "alpha", [])
        with caplog.at_level(logging.WARNING, logger="corred"):
            rep = red.correlated_reduce(rho, SYS22, seed=seed)
        assert rep.verdict == "degenerate"
        assert rep.iterations == len(rep.residuals) == 12
        assert rep.warnings == [f"near-degenerate overlap denominator {d}"
                                for d in ("1.455e-11", "9.095e-13", "5.684e-14")]
        assert not caplog.records  # the result is the one report

    @pytest.mark.parametrize("seed", [None, np.diag([0.7, 0.3])])
    def test_degenerate_spectrum_keeps_the_seed_start(self, seed):
        # All four operator-Schmidt values of EPR are 1/2, so the seed is a
        # top vector and its Krylov space is the seed alone: the start is the
        # seed, where the loop stays, and it takes one sweep.
        ra, rb, sweeps = gauss_seidel_reference(epr_state().matrix, SYS22, seed)
        assert sweeps is not None
        rep = red.correlated_reduce(epr_state(), SYS22, seed=seed)
        assert rep.verdict == "converged" and rep.iterations == 1
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-15
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-15

    def test_seed_orthogonal_to_top_vector_keeps_the_seed_start(self):
        # Two fixed points, |00> (top, sigma 0.8) and |11> (sigma 0.2); the
        # seed |1><1| sees only the second, and so does its Krylov space.
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        rho = DensityMatrix(0.8 * np.kron(p0, p0) + 0.2 * np.kron(p1, p1))
        ra, rb, sweeps = gauss_seidel_reference(rho.matrix, SYS22, p1)
        assert sweeps is not None
        rep = red.correlated_reduce(rho, SYS22, seed=DensityMatrix(p1))
        assert rep.verdict == "converged" and rep.iterations == 1
        assert mc.max_abs_diff(rep.rho_alpha.matrix, ra) < 1e-15
        assert mc.max_abs_diff(rep.rho_alpha.matrix, p1) < 1e-15
        assert mc.max_abs_diff(rep.rho_beta.matrix, rb) < 1e-15
        top = red.correlated_reduce(rho, SYS22)
        assert mc.max_abs_diff(top.rho_alpha.matrix, p0) < 1e-15

    @settings(max_examples=100, deadline=None)
    @given(correlated_states())
    # The sweep loop from the partial trace reports `converged` here after
    # 2,839 sweeps, 1.2e-10 from the SVD pair.
    @example((near_tie_mixture(np.eye(5), np.eye(5), 0.501, np.eye(25) / 25),
              BipartiteSystem(5, 5)))
    def test_a_converged_run_is_within_tol_of_the_svd_pair(self, case):
        rho, sys_ = case
        na, nb = sys_.dim_alpha, sys_.dim_beta
        u, s, vh = np.linalg.svd(realigned(rho, sys_))
        assume(s.size == 1 or s[1] < (1 - 1e-6) * s[0])
        rep = red.correlated_reduce(rho, sys_, tol=1e-12)
        if rep.verdict == "converged":
            ra, rb = u[:, 0].reshape(na, na), vh[0].reshape(nb, nb)
            assert mc.max_abs_diff(rep.rho_alpha.matrix, ra / ra.trace()) <= 1e-12
            assert mc.max_abs_diff(rep.rho_beta.matrix, rb / rb.trace()) <= 1e-12


@st.composite
def amplitude_vectors(draw, max_na=5):
    """(psi, system) for a normalized Psi of dims 1-``max_na`` x 1-9 whose
    random rows and columns are zeroed, down to a single nonzero entry."""
    na, nb = draw(st.integers(1, max_na)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i0, j0 = draw(st.integers(0, na - 1)), draw(st.integers(0, nb - 1))
    psi = rng.standard_normal((na, nb)) + 1j * rng.standard_normal((na, nb))
    if draw(st.booleans()):
        keep = np.zeros((na, nb), dtype=bool)
        keep[i0, j0] = True
    else:
        rows = np.array(draw(st.lists(st.booleans(), min_size=na, max_size=na)))
        cols = np.array(draw(st.lists(st.booleans(), min_size=nb, max_size=nb)))
        rows[i0] = cols[j0] = True
        keep = np.outer(rows, cols)
    psi = np.where(keep, psi, 0.0)
    return (psi / np.linalg.norm(psi)).ravel(), BipartiteSystem(na, nb)


def random_amplitudes(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


#: Largest difference allowed between a pure state's reductions taken from
#: its amplitude vector and from its N x N matrix: two roundings. The
#: correlated pair is a top eigenvector, so both forms carry a rounding
#: error up to 1/(1 - q) times larger, q = (s_2 / s_1)^2 the ratio of Psi's
#: top squared singular values (Davis-Kahan), and that bound is scaled by it.
PURE_TOL = 2 * np.finfo(float).eps  # 4.44e-16


def _outcome(reduce, state):
    """The result of ``reduce(state)``, or DegenerateOverlap where it raises it."""
    try:
        return reduce(state)
    except DegenerateOverlap:
        return DegenerateOverlap


def assert_vector_and_density_agree(psi, rho, sys_, rng):
    """Every reduction of the pure state gives the same run from its amplitude
    vector ``psi`` as from its matrix ``rho``: verdict, iterations, reduced
    states and reconstruction error, the last two within PURE_TOL."""
    na, nb = sys_.dim_alpha, sys_.dim_beta
    sigma_a, sigma_b = random_density(rng, na), random_density(rng, nb)
    reductions = [
        lambda r: red.correlated_reduce(r, sys_),
        lambda r: red.conditioned_reduce(r, sys_, sigma_a, "alpha"),
        lambda r: red.conditioned_reduce(r, sys_, sigma_b, "beta"),
        *(lambda r, level=level: red.projective_reduce(r, sys_, level) for level in range(nb)),
    ]
    s = np.linalg.svd(psi.reshape(na, nb), compute_uv=False)
    q = (s[1] / s[0]) ** 2 if s.size > 1 else 0.0
    # The reconstruction error is the largest modulus of an entry of
    # rho - kron(ra, rb), and the reduced states are hermitian bit for bit.
    # On the diagonal, psi_ib psi_ib^* is real, as is the hermitized
    # matrix's entry, but the vector form's complex product keeps in its
    # imaginary part the rounding of Re * Im that a fused multiply-add
    # leaves: at most eps/2 |Re||Im| <= eps/4 |psi_ib|^2. It adds to the
    # real part's gap in quadrature.
    imaginary = np.finfo(float).eps / 4 * np.max(np.abs(psi)) ** 2
    for reduce in reductions:
        got, want = _outcome(reduce, psi), _outcome(reduce, rho)
        if want is DegenerateOverlap:
            assert got is DegenerateOverlap
            continue
        assert (got.method, got.verdict, got.iterations) == (
            want.method, want.verdict, want.iterations)
        tol = PURE_TOL / (1 - q) if want.method == "correlated" else PURE_TOL
        assert mc.max_abs_diff(got.rho_alpha.matrix, want.rho_alpha.matrix) <= tol
        if want.rho_beta is None:
            assert got.rho_beta is None and got.reconstruction_error is None
        else:
            assert mc.max_abs_diff(got.rho_beta.matrix, want.rho_beta.matrix) <= tol
            gap = abs(got.reconstruction_error - want.reconstruction_error)
            assert gap <= math.hypot(tol, imaginary)
    for observed in ("alpha", "beta"):
        got = red.replacement_operator(psi, sys_, observed)
        assert mc.max_abs_diff(got, red.replacement_operator(rho, sys_, observed)) <= PURE_TOL
    # Unit-trace nonnegative observables, so every mean and correlator is at most 1.
    a, b = Observable(random_density(rng, na).matrix), Observable(random_density(rng, nb).matrix)
    got, want = _outcome(lambda r: red.correlator(r, sys_, a, b), psi), _outcome(
        lambda r: red.correlator(r, sys_, a, b), rho)
    if want is DegenerateOverlap:
        assert got is DegenerateOverlap
        return
    # Every number; not the warnings, whose text a denominator that rounds
    # differently from psi and from rho can change.
    for name in [field.name for field in dataclasses.fields(want) if field.name != "warnings"]:
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None)
        assert x is None or abs(x - y) <= PURE_TOL


@st.composite
def amplitude_stacks(draw):
    """(Psi, system) for a stack of 1-5 amplitude matrices of dims 1-4 x 1-4,
    each normalized, with entries zeroed at random (one nonzero at least)."""
    k, na, nb = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.standard_normal((k, na, nb)) + 1j * rng.standard_normal((k, na, nb))
    p *= rng.random((k, na, nb)) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    p[~p.any(axis=(1, 2)), 0, 0] = 1.0
    return p / np.linalg.norm(p, axis=(1, 2))[:, None, None], BipartiteSystem(na, nb)


class TestStackedKernels:
    """A stack of amplitude matrices gives each state the bits of that state alone."""

    @settings(max_examples=200, deadline=None)
    @given(amplitude_stacks(), st.integers(0, 2**32 - 1))
    def test_each_state_of_a_stack_gets_its_own_bits(self, case, seed):
        p, sys_ = case
        rng = np.random.default_rng(seed)
        for side, n in (("alpha", sys_.dim_alpha), ("beta", sys_.dim_beta)):
            w = np.stack([random_density(rng, n).matrix for _ in p])
            for weight in (None, w[0], w):
                each = [None if weight is None else weight if weight.ndim == 2 else weight[k]
                        for k in range(len(p))]
                got = mc._contract(p, sys_, side, weight)
                for k, psi in enumerate(p):
                    assert got[k].tobytes() == mc._contract(psi.ravel(), sys_, side, each[k]).tobytes()
                if weight is None:
                    continue
                got = red._condition(p, sys_, weight, side, [])
                for k, psi in enumerate(p):
                    num = mc._contract(psi.ravel(), sys_, side, each[k])
                    if abs(num.trace().real) < red.NEAR_DEGENERACY_THRESHOLD:
                        assert np.isnan(got[k]).all()
                    else:
                        want = red._condition(psi.ravel(), sys_, each[k], side, [])
                        assert got[k].tobytes() == want.tobytes()
        ra, rb = mc._contract(p, sys_, "beta"), mc._contract(p, sys_, "alpha")
        errors = red._reconstruction_error(p, ra, rb)
        for k, psi in enumerate(p):
            assert errors[k] == red._reconstruction_error(psi.ravel(), ra[k], rb[k])

    @settings(max_examples=200, deadline=None)
    @given(amplitude_stacks())
    def test_a_stack_starts_each_state_where_it_alone_starts(self, case):
        p, sys_ = case
        start = red._start(p, sys_, None, 1e-12, [])
        for k, psi in enumerate(p):
            want = red._start(psi.ravel(), sys_, None, 1e-12, [])
            if want[2] is None:
                assert start[2] is None or all(np.isnan(m[k]).all() for m in start)
            else:
                assert [m[k].tobytes() for m in start] == [m.tobytes() for m in want]

    def test_a_stack_settles_only_what_one_sweep_certifies(self):
        # JCM vacuum, rabi = 1: a tie at t = pi/2, where the start is not
        # certified, between two points that converge in one sweep.
        p = JcmParams(1.0, 1.0, n_max=3)
        ts = [0.3, math.pi / 2, 2.0]
        psi = models.jcm_vacuum_amplitudes(p, np.array(ts))
        stack = red.reduce_stack(psi.reshape(len(ts), 2, -1), jcm_system(p), "correlated")
        assert stack.done.tolist() == [True, False, True]
        assert (stack.verdict, stack.iterations) == ("converged", 1)
        # On every level of the whole vectors, the field's beyond {0, 1} exactly 0.
        assert stack.rho_alpha.shape == (len(ts), 2, 2) and stack.rho_beta.shape == (len(ts), 4, 4)
        assert not stack.rho_beta[[0, 2], 2:].any() and not stack.rho_beta[[0, 2], :, 2:].any()
        for k in (0, 2):
            one = red.correlated_reduce(models.jcm_vacuum_amplitudes(p, ts[k]), jcm_system(p))
            assert one.verdict == "converged" and one.iterations == 1
            assert mc.max_abs_diff(stack.rho_alpha[k], one.rho_alpha.matrix) < 1e-15
            assert mc.max_abs_diff(stack.rho_beta[k], one.rho_beta.matrix) < 1e-15
            assert abs(stack.error[k] - one.reconstruction_error) < 1e-15

    @pytest.mark.parametrize("seed", [None, np.eye(2) / 2], ids=["no-seed", "seed"])
    @pytest.mark.parametrize("k, reduce", [
        (3, lambda p, sys_, seed: red.reduce_stack(p, sys_, "correlated", seed=seed)),
        (1, lambda p, sys_, seed: red._reduce_one(p, sys_, "correlated", block=True, seed=seed)),
    ], ids=["stack", "alone"])
    def test_a_block_short_of_an_alpha_level_is_refused(self, seed, k, reduce):
        # Psi = [[0, 1], [0, 0]], the spin pair at default params, on its one
        # nonzero alpha level: a model's block holds every alpha level, which
        # the seed test reads, so the stack and the point alone refuse it,
        # with a seed or without.
        p = np.zeros((k, 1, 2), dtype=complex)
        p[:, 0, 1] = 1.0
        refused = rf"^block shape \({k}, 1, 2\) does not match dim_alpha=2$"
        with pytest.raises(DimensionMismatch, match=refused):
            reduce(p, BipartiteSystem(2, 2), seed)

    @pytest.mark.parametrize("n_max", [1, 2, 16, 256])
    def test_a_block_cuts_as_its_whole_vectors_cut(self, n_max):
        # ``reduce_stack`` of a JCM chunk's block on levels {0, 1} is that of
        # its whole vectors on those levels, up to the README's identity rule,
        # 2 ulp of 1, and the whole vectors' reduced states are exactly 0 off
        # them. A chunk of t = 0 alone, whose block holds an all-zero field
        # level, is reduced on both levels with that level exactly 0, and a
        # state off the unit norm is zeroed and not done in both.
        p = JcmParams(0.7, 1.3, n_max=n_max)
        sys_ = jcm_system(p)
        ulps = 2 * np.finfo(float).eps
        for ts, scale, method in itertools.product(
                (np.zeros(1), np.zeros(3), np.linspace(0.0, 10.0, 16), np.linspace(0.5, 3.0, 5)),
                (1.0, 2.0), ("neumann", "correlated")):
            block = models._jcm_vacuum_block(p, ts)
            whole = models.jcm_vacuum_amplitudes(p, ts).reshape(len(ts), 2, n_max + 1)
            block[-1] *= scale
            whole[-1] *= scale
            got, want = red.reduce_stack(block, sys_, method), red.reduce_stack(whole, sys_, method)
            assert (got.done.tolist(), got.verdict, got.iterations) == (
                want.done.tolist(), want.verdict, want.iterations)
            done = got.done
            assert (got.error is None) == (want.error is None)
            if got.error is None:  # a start that no state certifies
                continue
            assert abs(got.error[done] - want.error[done]).max(initial=0.0) <= ulps
            for a, b in ((got.rho_alpha, want.rho_alpha), (got.rho_beta, want.rho_beta)):
                assert a.shape == (len(ts), 2, 2)
                assert abs(a[done] - b[done][:, :2, :2]).max(initial=0.0) <= ulps
                assert not b[done][:, 2:].any() and not b[done][:, :, 2:].any()
            assert scale == 1.0 or not done[-1]
            if scale == 1.0 and not ts.any():
                assert done.all() and not got.rho_beta[:, 1].any() and not got.rho_beta[:, :, 1].any()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 600), st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_a_stack_checks_each_norm_as_one_vector_alone(self, n, k, seed):
        # Squared norms a few ulp either side of 1 +- NORM_TOL: ``_unit`` on
        # the stack and ``_state`` on each vector alone compute the same bits,
        # so they accept and refuse the same vectors.
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        psi *= rng.random((k, n)) < 0.5
        psi[:, 0] += 1.0
        edge = np.array([1.0 + red.NORM_TOL, 1.0 - red.NORM_TOL])[rng.integers(0, 2, k)]
        target = edge + rng.integers(-4, 5, k) * np.spacing(edge)
        psi *= np.sqrt(target / np.linalg.norm(psi, axis=1) ** 2)[:, None]
        sys_ = BipartiteSystem(1, n)
        norm = red._norm(psi)
        accepted = []
        for j, vector in enumerate(psi):
            assert red._norm(vector).tobytes() == norm[j].tobytes()
            try:
                red._state(vector, sys_)
                accepted.append(True)
            except ValidationError:
                accepted.append(False)
        assert red._unit(psi).tolist() == accepted

    def test_the_norm_edge_is_met_both_ways(self):
        # 4 ulp past either edge, 1 + NORM_TOL or 1 - NORM_TOL, decide; the
        # test above draws squared norms on both sides of both edges.
        psi = np.zeros((4, 3), dtype=complex)
        psi[:, 0] = np.sqrt([1.0 + red.NORM_TOL, 1.0 - red.NORM_TOL]).repeat(2)
        psi[1::2, 0] *= 1.0 + 4 * np.finfo(float).eps
        psi[::2, 0] *= 1.0 - 4 * np.finfo(float).eps
        assert red._unit(psi).tolist() == [True, False, False, True]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 20), st.integers(0, 2**32 - 1),
           st.sampled_from([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(np.nan, -np.inf),
                            complex(-np.inf, np.inf), 1e200, -1e200j]))
    def test_a_stack_refuses_exactly_the_vectors_state_refuses(self, n, k, seed, bad):
        # Non-finite entries, or finite ones whose squared norm overflows:
        # ``_unit`` refuses them by its norm alone, non-finite, which fails
        # the comparison with 1.
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        psi /= np.linalg.norm(psi, axis=1)[:, None]
        hit = rng.random(k) < 0.5
        psi[hit, rng.integers(0, n, hit.sum())] = bad
        sys_ = BipartiteSystem(1, n)
        accepted = []
        for vector in psi:
            try:
                red._state(vector, sys_)
                accepted.append(True)
            except ValidationError:
                accepted.append(False)
        assert accepted == (~hit).tolist()
        assert red._unit(psi).tolist() == accepted


@st.composite
def alone_points(draw):
    """One time point of a model, its whole amplitude vector and its one-point
    block, with a reduction's method and ``reduce_stack`` keywords: JCM
    vacuum at n_max 1-40 or the spin pair; t on a tie of the correlated step
    limit, 1e-8 from one, or off ties, or by a zero of a conditioning
    overlap; a projective level on the block's beta levels, off them or out
    of range; a conditioning sigma with a zero overlap somewhere; and a
    ``file:`` seed of the ground state or a random one."""
    if draw(st.integers(0, 4)):
        p = JcmParams(draw(st.floats(-3.0, 3.0)), draw(st.floats(0.2, 3.0)), draw(st.integers(1, 40)))
        sys_, turn = jcm_system(p), math.pi / p.rabi  # cos^2(rabi t / 2) = 1/2 at odd t / turn / 2

        def whole(t):
            return models.jcm_vacuum_amplitudes(p, t)

        def block(t):
            return models._jcm_vacuum_block(p, np.array([t]))
    else:
        p = models.SpinPairParams(draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0)),
                                  draw(st.floats(0.2, 2.0)), draw(st.floats(-1.0, 1.0)))
        phi = draw(st.floats(-1.5, 1.5))
        sys_, turn = models.SPIN_PAIR_SYSTEM, math.pi / (2 * p.c_coupling)

        def whole(t):
            return models.spin_pair_amplitudes(p, phi, t)

        def block(t):
            return models.spin_pair_amplitudes(p, phi, np.array([t])).reshape(-1, 2, 2)
    # Ties at odd multiples of turn / 2. The JCM overlaps with |1> of the
    # atom or of the field vanish at even multiples of turn, those with |0>
    # at odd ones; 1e-6 from a zero an overlap is near-degenerate.
    mark = draw(st.integers(0, 7)) * turn / 2
    t = mark + draw(st.sampled_from([0.0, 1e-8, -1e-8, 1e-6, -1e-6, draw(st.floats(-1.0, 1.0))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    method = draw(st.sampled_from(["correlated", "conditioned", "projective", "neumann"]))
    kwargs = {}
    if method == "projective":
        kwargs["level"] = draw(st.integers(0, sys_.dim_beta))
    elif method == "conditioned":
        side = kwargs["given_side"] = draw(st.sampled_from(["alpha", "beta"]))
        n = sys_.dim_alpha if side == "alpha" else sys_.dim_beta
        kwargs["sigma"] = draw(st.sampled_from([random_density(rng, n), projector_state(n, 0),
                                                projector_state(n, 1), projector_state(n, n - 1)]))
    elif method == "correlated" and draw(st.booleans()):
        kwargs["seed"] = draw(st.sampled_from([projector_state(2, 1), random_density(rng, 2)]))
    return sys_, whole(t), block(t), method, kwargs


def _public(sys_, psi, method, kwargs):
    """The public reduction ``method`` of the whole vector psi."""
    if method == "neumann":
        return red.neumann_reduce(psi, sys_)
    if method == "projective":
        return red.projective_reduce(psi, sys_, kwargs["level"])
    if method == "conditioned":
        return red.conditioned_reduce(psi, sys_, kwargs["sigma"], kwargs["given_side"])
    return red.correlated_reduce(psi, sys_, kwargs.get("seed"))


def _run(reduce):
    """The result of ``reduce()``, or its CorredError's type and message."""
    try:
        return reduce()
    except CorredError as exc:
        return type(exc), str(exc)


class TestPointReducedAlone:
    """A point reduced alone from its one-point block is the public reduction
    of its whole vector on the block's levels."""

    @settings(max_examples=300, deadline=None)
    @given(alone_points())
    def test_the_block_reduces_as_the_whole_vector(self, case):
        sys_, psi, block, method, kwargs = case
        want = _run(lambda: _public(sys_, psi, method, kwargs))
        got = _run(lambda: red._reduce_one(block, sys_, method, block=True, **kwargs))
        if isinstance(want, tuple):
            assert got == want
            return
        run = ("verdict", "iterations", "warnings", "method")
        assert [getattr(got, key) for key in run] == [getattr(want, key) for key in run]
        # The README's identity rule: the last bits, here within 2 ulp of 1,
        # which bounds every entry of a state of unit trace.
        ulps = 2 * np.finfo(float).eps
        for side in ("rho_alpha", "rho_beta"):
            whole, alone = getattr(want, side), getattr(got, side)
            assert (whole is None) == (alone is None)
            if whole is None:
                continue
            whole, alone = whole.matrix, alone.matrix
            c = len(alone)
            assert abs(whole[:c, :c] - alone).max() <= ulps
            assert not whole[c:].any() and not whole[:, c:].any()
        assert (want.reconstruction_error is None) == (got.reconstruction_error is None)
        if want.reconstruction_error is not None:
            assert abs(want.reconstruction_error - got.reconstruction_error) <= ulps


class TestAmplitudeVectorInput:
    @settings(max_examples=300, deadline=None)
    @given(amplitude_vectors())
    def test_neumann_matches_the_dense_projector(self, case):
        psi, sys_ = case
        pure = red.neumann_reduce(psi, sys_)
        dense = red.neumann_reduce(np.outer(psi, psi.conj()), sys_)
        assert mc.max_abs_diff(pure.rho_alpha.matrix, dense.rho_alpha.matrix) < 1e-14
        assert mc.max_abs_diff(pure.rho_beta.matrix, dense.rho_beta.matrix) < 1e-14
        assert abs(pure.reconstruction_error - dense.reconstruction_error) < 1e-14

    @settings(max_examples=300, deadline=None)
    @given(amplitude_vectors(max_na=9), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_slab_error_equals_the_kron_form(self, case, seed, pure, traces):
        # Dense states and amplitude vectors (zeroed rows and columns) of
        # 1-9 x 1-9, so Na > Nb too, compared one alpha row at a time.
        psi, sys_ = case
        rng = np.random.default_rng(seed)
        state = psi if pure else random_density(rng, sys_.dim).matrix
        rho = np.outer(psi, psi.conj()) if pure else state
        if traces or pure:
            # Partial traces, or conditionings of psi on random states: like
            # every pair a reduction of psi returns, they vanish off the rows
            # and columns of Psi that hold a nonzero entry.
            ra, rb = (mc._contract(state, sys_, over, None if traces else random_density(rng, n).matrix)
                      for over, n in (("beta", sys_.dim_beta), ("alpha", sys_.dim_alpha)))
        else:
            ra, rb = random_density(rng, sys_.dim_alpha).matrix, random_density(rng, sys_.dim_beta).matrix
        assert red._reconstruction_error(state, ra, rb) == mc.max_abs_diff(rho, np.kron(ra, rb))

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4), (4, 2), (2, 17)])
    def test_iterated_and_conditioned_reductions_match_the_dense_state(self, rng, dims):
        sys_ = BipartiteSystem(*dims)
        psi = random_amplitudes(rng, sys_.dim)
        assert_vector_and_density_agree(psi, np.outer(psi, psi.conj()), sys_, rng)

    def test_replacement_operator_and_correlator_take_a_vector(self, rng):
        sys_ = BipartiteSystem(2, 3)
        psi = random_amplitudes(rng, sys_.dim)
        dense = np.outer(psi, psi.conj())
        for observed in ("alpha", "beta"):
            got = red.replacement_operator(psi, sys_, observed)
            assert mc.max_abs_diff(got, red.replacement_operator(dense, sys_, observed)) < 1e-15
        a = Observable(np.diag([1.0, 0.5]))
        b = Observable(np.diag([0.2, 1.0, 0.7]))
        got, want = red.correlator(psi, sys_, a, b), red.correlator(dense, sys_, a, b)
        assert abs(got.exact - want.exact) < 1e-15
        assert abs(got.ab_form - want.ab_form) < 1e-15

    def test_jcm_vacuum_vector_and_density_agree(self, rng):
        p = JcmParams(1.0, 1.0, n_max=16)
        for t in (0.4, 2.0, 7.3):
            psi, rho = models.jcm_vacuum_amplitudes(p, t), jcm_vacuum_density(p, t)
            assert_vector_and_density_agree(psi, rho, jcm_system(p), rng)

    @settings(max_examples=200, deadline=None)
    @given(amplitude_vectors(max_na=9), st.integers(0, 2**32 - 1))
    # One amplitude with |psi|^2 = 1 + 2 eps: the errors differ by 2 eps in
    # the real part and 8.0e-18 in the imaginary part.
    @example((np.eye(20)[12] * (0.9920221139150377 + 0.12606397385272416j), BipartiteSystem(4, 5)), 1)
    def test_vector_and_density_agree(self, case, seed):
        psi, sys_ = case
        assert_vector_and_density_agree(psi, mc.hermitize(np.outer(psi, psi.conj())), sys_,
                                        np.random.default_rng(seed))

    @pytest.mark.parametrize("edit, error", [
        ("nan", ValidationError),
        ("inf", ValidationError),
        ("norm", ValidationError),
        ("length", DimensionMismatch),
    ])
    @pytest.mark.parametrize("method", ["neumann", "conditioned", "projective", "correlated"])
    def test_bad_vector_rejected(self, method, edit, error):
        psi = models.jcm_vacuum_amplitudes(JcmParams(1.0, 1.0, n_max=2), 0.7)
        if edit in ("nan", "inf"):
            psi[3] = float(edit)
        elif edit == "norm":
            psi *= math.sqrt(1 + 1e-6)
        else:
            psi = np.append(psi, 0.0)
        sys_ = BipartiteSystem(2, 3)
        reduce = {
            "neumann": lambda: red.neumann_reduce(psi, sys_),
            "conditioned": lambda: red.conditioned_reduce(psi, sys_, np.eye(3) / 3, "alpha"),
            "projective": lambda: red.projective_reduce(psi, sys_, 0),
            "correlated": lambda: red.correlated_reduce(psi, sys_),
        }[method]
        with pytest.raises(error):
            reduce()

    def test_other_matrix_arguments_stay_two_dimensional(self):
        psi = models.jcm_vacuum_amplitudes(JcmParams(1.0, 1.0, n_max=2), 0.7)
        sys_ = BipartiteSystem(2, 3)
        with pytest.raises(DimensionMismatch):
            red.conditioned_reduce(psi, sys_, np.ones(2) / 2, "alpha")
        with pytest.raises(DimensionMismatch):
            red.correlated_reduce(psi, sys_, seed=np.ones(2) / 2)

    def test_pure_neumann_peaks_below_one_composite_matrix(self):
        p = JcmParams(1.0, 1.0, n_max=256)
        psi, sys_ = models.jcm_vacuum_amplitudes(p, 0.7), jcm_system(p)
        red.neumann_reduce(psi, sys_)
        tracemalloc.start()
        try:
            red.neumann_reduce(psi, sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sys_.dim**2 * 16  # one 514 x 514 complex matrix, 4.2 MB


def _bad_state(edit: str, n: int) -> np.ndarray:
    """A copy of an n x n state made invalid by ``edit``."""
    m = random_density(np.random.default_rng(7), n + (edit == "shape")).matrix.copy()
    if edit == "non-hermitian":
        m[0, 1] += 0.1
    elif edit == "trace-2":
        m *= 2
    elif edit in ("nan", "inf"):
        m[0, 0] = float(edit)
    return m


_A, _B = Observable(np.diag([1.0, 0.2])), Observable(np.diag([0.3, 1.0]))
#: Each entry point with the argument under test in the place of x: the
#: composite rho (4 x 4) or a one-side state (2 x 2).
ENTRY_POINTS = {
    "neumann_reduce": (4, lambda x: red.neumann_reduce(x, SYS22)),
    "conditioned_reduce": (4, lambda x: red.conditioned_reduce(x, SYS22, np.eye(2) / 2, "beta")),
    "projective_reduce": (4, lambda x: red.projective_reduce(x, SYS22, 0)),
    "correlated_reduce": (4, lambda x: red.correlated_reduce(x, SYS22)),
    "replacement_operator": (4, lambda x: red.replacement_operator(x, SYS22)),
    "correlator": (4, lambda x: red.correlator(x, SYS22, _A, _B)),
    "sigma": (2, lambda x: red.conditioned_reduce(epr_state(), SYS22, x, "alpha")),
    "seed": (2, lambda x: red.correlated_reduce(epr_state(), SYS22, seed=x)),
}


@st.composite
def reduction_inputs(draw):
    """(rho, system) with rho a dense state, a raw matrix with up to 1e-11
    asymmetry or an amplitude vector, of dims 1-4 x 1-4."""
    na, nb = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "relaxed", "vector"]))
    if kind == "vector":
        return random_amplitudes(rng, na * nb), BipartiteSystem(na, nb)
    rho = random_density(rng, na * nb)
    if kind == "relaxed":
        asymmetry = np.triu(rng.uniform(-1e-11, 1e-11, (na * nb, na * nb)), 1)
        return rho.matrix + asymmetry, BipartiteSystem(na, nb)
    return rho, BipartiteSystem(na, nb)


#: The error each edit of ``_bad_state`` raises, and a phrase of its message.
REJECTIONS = {
    "non-hermitian": (ValidationError, "not hermitian"),
    "trace-2": (ValidationError, "trace must be 1"),
    "nan": (ValidationError, "non-finite"),
    "inf": (ValidationError, "non-finite"),
    "shape": (DimensionMismatch, "does not match"),
}


class TestEntryCheck:
    @pytest.mark.parametrize("edit", list(REJECTIONS))
    @pytest.mark.parametrize("target", list(ENTRY_POINTS))
    def test_invalid_state_rejected_at_entry(self, monkeypatch, target, edit):
        n, call = ENTRY_POINTS[target]
        bad = _bad_state(edit, n)
        error, message = REJECTIONS[edit]

        def contract(*args, **kwargs):
            raise AssertionError("a contraction ran on unchecked input")

        monkeypatch.setattr(mc, "_contract", contract)
        with pytest.raises(error, match=message):
            call(bad)

    @settings(max_examples=150, deadline=None)
    @given(reduction_inputs(), st.integers(0, 2**32 - 1))
    def test_reduced_states_pass_the_relaxed_check(self, case, seed):
        rho, sys_ = case
        rng = np.random.default_rng(seed)
        results = [
            red.neumann_reduce(rho, sys_),
            red.conditioned_reduce(rho, sys_, random_density(rng, sys_.dim_alpha), "alpha"),
            red.conditioned_reduce(rho, sys_, random_density(rng, sys_.dim_beta).matrix, "beta"),
            red.projective_reduce(rho, sys_, int(rng.integers(sys_.dim_beta))),
            red.correlated_reduce(rho, sys_, max_iter=500),
        ]
        for res in results:
            for m in (res.rho_alpha, res.rho_beta):
                if m is not None:
                    DensityMatrix(m.matrix, validation="relaxed")

    def test_hermiticity_is_checked_once_at_entry(self, rng, monkeypatch):
        p = JcmParams(1.0, 1.0, n_max=16)
        psi, sys_ = models.jcm_vacuum_amplitudes(p, 0.7), jcm_system(p)
        rho = random_density(rng, 4)
        calls = []
        is_hermitian = mc.is_hermitian
        monkeypatch.setattr(mc, "is_hermitian", lambda *a: calls.append(1) or is_hermitian(*a))
        red.neumann_reduce(psi, sys_)
        red.neumann_reduce(rho, SYS22)
        assert len(calls) == 0
        red.neumann_reduce(rho.matrix, SYS22)
        assert len(calls) == 1


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

    def test_each_result_reports_its_near_degenerate_conditioning(self, caplog):
        # Beta level 1 holds 1e-11 of the state, so conditioning on it is
        # near-degenerate: the projective, conditioned and correlator
        # results say so, and the library logs nothing.
        rho = np.diag([1 - 1e-11, 1e-11, 0.0, 0.0])
        up = np.diag([0.0, 1.0])
        want = ["near-degenerate overlap denominator 1.000e-11"]
        with caplog.at_level(logging.WARNING, logger="corred"):
            assert red.projective_reduce(rho, SYS22, 1).warnings == want
            assert red.conditioned_reduce(rho, SYS22, up, "beta").warnings == want
            assert red.conditioned_reduce(rho, SYS22, np.eye(2) / 2, "alpha").warnings == []
            assert red.correlator(rho, SYS22, Observable(np.eye(2)), Observable(up)).warnings == want
        assert not caplog.records

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_exact_equals_the_kron_form(self, na, nb, seed):
        # the exact value contracts beta once; the dense reference forms the
        # N x N product rho (A x B)
        rng = np.random.default_rng(seed)
        rho = random_density(rng, na * nb).matrix
        a = Observable(random_nonnegative(rng, na))
        b = Observable(random_nonnegative(rng, nb))
        want = np.trace(rho @ np.kron(a.matrix, b.matrix))
        got = red.correlator(rho, BipartiteSystem(na, nb), a, b).exact
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

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
        lhs = np.trace(rho.matrix @ np.kron(a, np.eye(2)))
        rhs = red.mean_value(red.neumann_reduce(rho, SYS22).rho_alpha, Observable(a))
        assert abs(lhs - rhs) < 1e-12
