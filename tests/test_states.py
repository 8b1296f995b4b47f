import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corred import matrixcore as mc
from corred import states
from corred.errors import (
    IndexOutOfRange,
    NonPositiveTemperature,
    NotHermitian,
    NotNonnegative,
    ValidationError,
    ZeroTrace,
)

from conftest import matrices_close

TOL = states.POSITIVITY_TOL
#: Smallest planted eigenvalue of each spectrum, in units of TOL; "pure" is
#: rank 1, "full-rank" has every eigenvalue positive.
SPECTRA = {"below-floor": -1.1, "above-floor": -0.9, "half-floor": -0.5, "pure": 0.0,
           "full-rank": None}


def haar_unitary(rng, n: int) -> np.ndarray:
    """Q of the QR of a complex Gaussian matrix, its column phases fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = r.diagonal()
    return q * (d / abs(d))


def planted_state(rng, n: int, spectrum: str) -> np.ndarray:
    """U diag(lam) U^dag for a Haar U, with trace 1 and the smallest eigenvalue of ``SPECTRA``."""
    if spectrum == "pure":
        lam = np.zeros(n)
        lam[0] = 1.0
    elif spectrum == "full-rank":
        lam = rng.uniform(0.1, 1.0, n)
        lam /= lam.sum()
    else:
        lam = rng.uniform(0.1, 1.0, n)
        lam[0] = SPECTRA[spectrum] * TOL
        lam[1:] *= (1.0 - lam[0]) / lam[1:].sum()
    u = haar_unitary(rng, n)
    return (u * lam) @ u.conj().T


def assert_strict_decides_as_the_eigensolve(m: np.ndarray, spectrum: str) -> None:
    lowest = float(np.linalg.eigvalsh(mc.hermitize(m)).min())
    assert (lowest < -TOL) == (spectrum == "below-floor")
    if lowest < -TOL:
        with pytest.raises(ValidationError) as refused:
            states.DensityMatrix(m)
        assert str(refused.value) == f"negative eigenvalue {lowest} below -{TOL}"
        return
    dm = states.DensityMatrix(m)
    if spectrum in ("pure", "full-rank"):  # certified without an eigensolve
        assert dm._min_eigenvalue is None
    assert dm.min_eigenvalue == lowest


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            states.DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            states.DensityMatrix(np.eye(2))

    def test_strict_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValidationError):
            states.DensityMatrix(m, validation="strict")
        relaxed = states.DensityMatrix(m, validation="relaxed")
        assert relaxed.min_eigenvalue == pytest.approx(-0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(2) / 2
        m[0, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            states.DensityMatrix(m, validation="relaxed")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(["strict", "relaxed"]))
    def test_min_eigenvalue_matches_eigvalsh(self, dim, seed, validation):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        m /= np.trace(m).real
        dm = states.DensityMatrix(m, validation=validation)
        want = float(np.linalg.eigvalsh(mc.hermitize(m)).min())
        assert dm.min_eigenvalue == want

    def test_relaxed_defers_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        dm = states.DensityMatrix(np.diag([1.5, -0.5]), validation="relaxed")
        assert calls == []
        assert dm.min_eigenvalue == pytest.approx(-0.5)
        assert dm.min_eigenvalue == pytest.approx(-0.5)
        assert calls == [1]

    def test_strict_acceptance_defers_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        dm = states.DensityMatrix(planted_state(np.random.default_rng(3), 6, "full-rank"))
        assert calls == []
        assert dm.min_eigenvalue == float(eigvalsh(mc.hermitize(dm.matrix)).min())
        assert calls == [1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 16), st.sampled_from(list(SPECTRA)), st.integers(0, 2**32 - 1))
    def test_strict_decides_as_the_eigensolve(self, dim, spectrum, seed):
        assert_strict_decides_as_the_eigensolve(
            planted_state(np.random.default_rng(seed), dim, spectrum), spectrum)

    @pytest.mark.parametrize("spectrum", ["below-floor", "pure"])
    def test_strict_decides_as_the_eigensolve_at_n_514(self, spectrum):
        assert_strict_decides_as_the_eigensolve(
            planted_state(np.random.default_rng(514), 514, spectrum), spectrum)

    def test_a_floor_under_the_certificate_bound_leaves_the_decision_to_the_eigensolve(self):
        # At n = 16 the Cholesky error bound is about 1.5e-14: a floor of
        # 1e-16 cannot be certified by it.
        m = mc.hermitize(planted_state(np.random.default_rng(5), 16, "full-rank"))
        assert states.DensityMatrix(m)._min_eigenvalue is None
        assert states.DensityMatrix(m, tol=1e-16)._min_eigenvalue is not None

    def test_json_round_trip(self):
        dm = states.epr_state()
        again = states.DensityMatrix.from_json(dm.to_json())
        assert matrices_close(again.matrix, dm.matrix, 1e-15)
        assert dm.to_json()["kind"] == "density"


class TestMinimumInformation:
    def test_qubit(self):
        assert matrices_close(states.minimum_information_state(2).matrix, np.eye(2) / 2)

    def test_trivial_dim(self):
        assert matrices_close(states.minimum_information_state(1).matrix, [[1.0]])

    def test_two_qubit(self):
        assert matrices_close(states.minimum_information_state(4).matrix, np.eye(4) / 4)


class TestThermal:
    def test_infinite_temperature(self):
        got = states.thermal_state(np.array([[1.0, 0.2], [0.2, -0.3]]), math.inf)
        assert matrices_close(got.matrix, np.eye(2) / 2, 1e-12)

    def test_degenerate_spectrum(self):
        got = states.thermal_state(np.zeros((2, 2)), 0.7)
        assert matrices_close(got.matrix, np.eye(2) / 2, 1e-12)

    def test_boltzmann_populations(self):
        # independent scalar Boltzmann evaluation for H = diag(+e, -e), T = e
        eps = 0.83
        expected = np.array([math.exp(-1.0), math.exp(1.0)])
        expected /= expected.sum()
        got = states.thermal_state(np.diag([eps, -eps]), eps)
        assert np.allclose(np.diag(got.matrix).real, expected, atol=1e-12)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(NonPositiveTemperature):
            states.thermal_state(np.eye(2) * 0.5, -1.0)

    @pytest.mark.parametrize("temperature", [-math.inf, math.nan, 0.0, -0.0, -5e-324])
    def test_rejects_every_temperature_not_above_zero(self, temperature):
        # -inf is infinite but no temperature, and nan compares false with 0.
        with pytest.raises(NonPositiveTemperature, match="temperature must be > 0"):
            states.thermal_state(np.diag([1.0, -1.0]), temperature)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            states.thermal_state(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestProjector:
    def test_upper_level(self):
        assert matrices_close(states.projector_state(2, 0).matrix, np.diag([1.0, 0.0]))

    def test_lower_level(self):
        assert matrices_close(states.projector_state(2, 1).matrix, np.diag([0.0, 1.0]))

    def test_unit_trace(self):
        for dim in (2, 3, 5):
            for level in range(dim):
                assert states.projector_state(dim, level).matrix.trace() == 1.0

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            states.projector_state(2, 2)


class TestSpecialStates:
    def test_epr_structure(self):
        m = states.epr_state().matrix
        assert m[1, 1] == m[2, 2] == 0.5
        assert m[1, 2] == m[2, 1] == -0.5
        assert abs(m.trace() - 1.0) < 1e-15

    def test_epr_is_pure(self):
        w = np.linalg.eigvalsh(states.epr_state().matrix)
        assert np.allclose(sorted(w), [0, 0, 0, 1], atol=1e-12)
        assert states.epr_state().purity() == pytest.approx(1.0, abs=1e-12)

    def test_triplet_flips_coherence_sign(self):
        s, t = states.epr_state().matrix, states.triplet_state().matrix
        assert t[1, 2] == -s[1, 2] == 0.5
        assert np.allclose(np.diag(t), np.diag(s))
        assert states.triplet_state().purity() == pytest.approx(1.0, abs=1e-12)

    def test_spin_pair_initial_at_epr_angle(self):
        m = states.spin_pair_initial(math.pi / 4).matrix
        assert np.allclose(
            m[1:3, 1:3], np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )

    def test_spin_pair_initial_at_zero(self):
        m = states.spin_pair_initial(0.0).matrix
        assert matrices_close(m, np.diag([0.0, 1.0, 0.0, 0.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-10.0, 10.0))
    def test_spin_pair_initial_pure_and_periodic(self, phi):
        dm = states.spin_pair_initial(phi)
        assert dm.purity() == pytest.approx(1.0, abs=1e-12)
        shifted = states.spin_pair_initial(phi + math.pi)
        assert mc.max_abs_diff(dm.matrix, shifted.matrix) < 1e-12


class TestStateFromObservable:
    def test_identity_gives_minimum_information(self):
        got = states.state_from_observable(np.eye(2))
        assert matrices_close(got.matrix, np.eye(2) / 2)

    def test_rank_one(self):
        got = states.state_from_observable(np.diag([2.0, 0.0]))
        assert matrices_close(got.matrix, np.diag([1.0, 0.0]))

    def test_diagonal_weights(self):
        got = states.state_from_observable(np.diag([1.0, 3.0]))
        assert matrices_close(got.matrix, np.diag([0.25, 0.75]))

    def test_rejects_negative_operator(self):
        with pytest.raises(NotNonnegative):
            states.state_from_observable(np.diag([1.0, -1.0]))

    def test_rejects_zero_trace(self):
        with pytest.raises(ZeroTrace):
            states.state_from_observable(np.zeros((2, 2)))


def test_constructors_pass_strict_validation():
    outputs = [
        states.minimum_information_state(3),
        states.thermal_state(np.diag([1.0, -1.0]), 0.5),
        states.projector_state(4, 2),
        states.epr_state(),
        states.triplet_state(),
        states.spin_pair_initial(0.37),
    ]
    for dm in outputs:
        # re-validate at a tighter floor than the default
        states.DensityMatrix(dm.matrix, validation="strict", tol=1e-12)
