import math

import numpy as np
import pytest

from corred import ensembles as ens
from corred import matrixcore as mc
from corred.errors import TieUndefined, ValidationError
from corred.matrixcore import BipartiteSystem
from corred.models import SpinPairParams, spin_pair_density
from corred.states import epr_state, spin_pair_initial, triplet_state

from conftest import matrices_close, random_density

SYS22 = BipartiteSystem(2, 2)


class TestAssemble:
    def test_single_product_term(self, rng):
        ra, rb = random_density(rng, 2).matrix, random_density(rng, 2).matrix
        e = ens.Ensemble(
            terms=(ens.EnsembleTerm(1.0, ra, rb),), system=SYS22
        )
        assert matrices_close(ens.assemble(e), np.kron(ra, rb), 1e-14)

    def test_epr_assembles(self):
        got = ens.assemble(ens.epr_decomposition(0.0))
        assert mc.max_abs_diff(got, epr_state().matrix) < 1e-12

    def test_triplet_assembles(self):
        got = ens.assemble(ens.triplet_decomposition(0.7))
        assert mc.max_abs_diff(got, triplet_state().matrix) < 1e-12


class TestEprDecomposition:
    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.3])
    def test_assembles_for_any_phase(self, theta):
        got = ens.assemble(ens.epr_decomposition(theta))
        assert mc.max_abs_diff(got, epr_state().matrix) < 1e-12

    def test_phase_is_hidden(self):
        a = ens.assemble(ens.epr_decomposition(0.3))
        b = ens.assemble(ens.epr_decomposition(1.9))
        assert mc.max_abs_diff(a, b) < 1e-12

    def test_term_diagonals_are_zero_one(self):
        for term in ens.epr_decomposition(0.4).terms:
            for m in (term.left, term.right):
                assert sorted(np.real(np.diag(m)).tolist()) == [0.0, 1.0]

    def test_terms_have_negative_eigenvalue(self):
        # unit trace but eigenvalues (1 +- sqrt(3)) / 2, so not states
        for term in ens.epr_decomposition(0.0).terms:
            w = np.linalg.eigvalsh(term.left)
            assert abs(term.left.trace() - 1.0) < 1e-14
            assert w.min() == pytest.approx((1 - math.sqrt(3)) / 2, abs=1e-12)

    def test_equiprobable(self):
        assert all(t.weight == 0.25 for t in ens.epr_decomposition(1.0).terms)


class TestTripletDecomposition:
    @pytest.mark.parametrize("theta", [0.0, 1.1, math.pi])
    def test_assembles(self, theta):
        got = ens.assemble(ens.triplet_decomposition(theta))
        assert mc.max_abs_diff(got, triplet_state().matrix) < 1e-12

    def test_pairs_share_phase(self):
        for term in ens.triplet_decomposition(0.9).terms:
            zl, zr = term.left[0, 1], term.right[0, 1]
            assert abs(zl - zr) < 1e-14

    def test_weights(self):
        assert all(t.weight == 0.25 for t in ens.triplet_decomposition(0.0).terms)


class TestSpinPairInitialDecomposition:
    def test_epr_angle_gives_four_terms(self):
        e = ens.spin_pair_initial_decomposition(math.pi / 4)
        assert len(e.terms) == 4
        assert mc.max_abs_diff(ens.assemble(e), epr_state().matrix) < 1e-12

    def test_triplet_angle(self):
        e = ens.spin_pair_initial_decomposition(-math.pi / 4)
        assert mc.max_abs_diff(ens.assemble(e), triplet_state().matrix) < 1e-12

    def test_phi_zero_single_term(self):
        # printed |tan phi| < 1 branch: weight 1 on diag(0,1) x diag(1,0)
        e = ens.spin_pair_initial_decomposition(0.0)
        assert len(e.terms) == 1
        term = e.terms[0]
        assert matrices_close(term.left, np.diag([0.0, 1.0]))
        assert matrices_close(term.right, np.diag([1.0, 0.0]))

    def test_branch_discrepancy_reported_not_hidden(self):
        # the printed branch disagrees with the initial state's diagonal;
        # verify_ensemble reports the mismatch instead of asserting exactness
        rep = ens.verify_ensemble(
            ens.spin_pair_initial_decomposition(0.3), spin_pair_initial(0.3)
        )
        assert not rep.matches
        assert rep.diagonal_error > 0.1

    @pytest.mark.parametrize("phi", [1.2, -1.2])
    def test_beyond_the_epr_angles_the_diagonal_matches(self, phi):
        # |tan phi| > 1: weight cos^2 on up x down and sin^2 on down x up,
        # the initial state's diagonal; only its coherence is missed.
        e = ens.spin_pair_initial_decomposition(phi)
        assert [(term.weight, term.left[0, 0], term.right[0, 0]) for term in e.terms] == [
            (math.cos(phi) ** 2, 1.0, 0.0), (math.sin(phi) ** 2, 0.0, 1.0)]
        rep = ens.verify_ensemble(e, spin_pair_initial(phi))
        assert rep.diagonal_error == 0.0
        assert rep.coherence_error == pytest.approx(abs(math.sin(2 * phi)) / 2, abs=1e-15)


class TestSpinPairReducedDecomposition:
    def test_positive_branch_at_t_zero(self):
        e = ens.spin_pair_reduced_decomposition(phi=0.0, c=1.0, t=0.0)
        assert len(e.terms) == 1
        assert e.terms[0].weight == pytest.approx(1.0)
        assert matrices_close(e.terms[0].left, np.diag([1.0, 0.0]))
        assert matrices_close(e.terms[0].right, np.diag([0.0, 1.0]))

    def test_negative_branch_at_half_period(self):
        e = ens.spin_pair_reduced_decomposition(phi=0.0, c=1.0, t=math.pi / 2)
        assert len(e.terms) == 1
        assert matrices_close(e.terms[0].left, np.diag([0.0, 1.0]))
        assert matrices_close(e.terms[0].right, np.diag([1.0, 0.0]))

    def test_weights_follow_correlation(self):
        phi, c, n = math.pi / 8, 0.7, 1
        t = (2 * n + 1) * math.pi / (8 * c) + 0.1  # off the tie
        corr = math.cos(2 * phi) * math.cos(2 * c * t)
        e = ens.spin_pair_reduced_decomposition(phi, c, t)
        weights = sorted(term.weight for term in e.terms)
        want = sorted([(1 + corr) / 2, (1 - corr) / 2])
        assert weights == pytest.approx(want, abs=1e-12)

    def test_tie_raises(self):
        # 2ct = pi/2 makes the correlation vanish exactly
        with pytest.raises(TieUndefined):
            ens.spin_pair_reduced_decomposition(phi=0.0, c=1.0, t=math.pi / 4)

    def test_epr_angle_stationary(self):
        e = ens.spin_pair_reduced_decomposition(phi=math.pi / 4, c=1.0, t=2.7)
        assert mc.max_abs_diff(ens.assemble(e), epr_state().matrix) < 1e-12

    def test_triplet_angle_stationary(self):
        e = ens.spin_pair_reduced_decomposition(phi=-math.pi / 4, c=1.0, t=2.7)
        assert mc.max_abs_diff(ens.assemble(e), triplet_state().matrix) < 1e-12

    def test_diagonals_match_evolved_state(self):
        phi, c, t = math.pi / 8, 0.4, 0.9
        e = ens.spin_pair_reduced_decomposition(phi, c, t)
        rho_t = spin_pair_density(SpinPairParams(1.0, c_coupling=c), phi, t)
        diff = np.abs(np.diag(ens.assemble(e)) - np.diag(rho_t.matrix))
        assert diff.max() < 1e-12


class TestVerifyEnsemble:
    def test_epr_exact(self):
        rep = ens.verify_ensemble(ens.epr_decomposition(0.0), epr_state(), tol=1e-12)
        assert rep.matches and rep.max_error < 1e-12

    def test_neumann_product_misses_epr_by_half(self):
        e = ens.Ensemble(
            terms=(ens.EnsembleTerm(1.0, np.eye(2) / 2, np.eye(2) / 2),),
            system=SYS22,
        )
        rep = ens.verify_ensemble(e, epr_state())
        assert rep.max_error == pytest.approx(0.5, abs=1e-14)
        assert rep.coherence_error == pytest.approx(0.5, abs=1e-14)

    def test_exact_product(self, rng):
        ra, rb = random_density(rng, 2).matrix, random_density(rng, 2).matrix
        e = ens.Ensemble(terms=(ens.EnsembleTerm(1.0, ra, rb),), system=SYS22)
        rep = ens.verify_ensemble(e, np.kron(ra, rb))
        assert rep.max_error == 0.0


class TestStatistics:
    def test_hidden_diagonal_statistics(self):
        # four terms with alpha upper population exactly in {1, 0}
        stats = ens.diagonal_statistics(ens.epr_decomposition(0.8))
        assert stats["mean_a22_times_1_minus_a22"] == 0.0
        assert stats["mean_a22_squared"] == pytest.approx(0.5, abs=1e-15)
        assert stats["mean_a22"] == pytest.approx(0.5, abs=1e-15)


class TestEnsembleValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ens.Ensemble(
                terms=(ens.EnsembleTerm(0.5, np.eye(2) / 2, np.eye(2) / 2),),
                system=SYS22,
            )

    def test_terms_must_have_unit_trace(self):
        with pytest.raises(ValueError):
            ens.Ensemble(
                terms=(ens.EnsembleTerm(1.0, np.eye(2), np.eye(2) / 2),),
                system=SYS22,
            )

    def test_json_round_trip(self):
        e = ens.epr_decomposition(0.35)
        again = ens.Ensemble.from_json(e.to_json())
        assert mc.max_abs_diff(ens.assemble(again), ens.assemble(e)) < 1e-15


def test_overflowing_phase_is_a_validation_error():
    with pytest.raises(ValidationError, match=r"^2 \* c \* t overflows at t=2.0$"):
        ens.spin_pair_reduced_decomposition(0.3, 1e308, 2.0)
