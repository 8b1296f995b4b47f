import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corred import matrixcore as mc
from corred.errors import DimensionMismatch
from corred.states import epr_state

from conftest import expm, matrices_close, random_density, random_hermitian

I2 = np.eye(2)
SYS22 = mc.BipartiteSystem(2, 2)


class TestKron:
    """numpy's Kronecker product is the composite layout of matrixcore:
    the pair (i, i') sits at composite index i * dim_beta + i'."""

    def test_identity(self):
        assert matrices_close(np.kron(I2, I2), np.eye(4))

    def test_projector_product(self):
        got = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert matrices_close(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_maximally_mixed_pair(self):
        # (1/2) I x (1/2) I is the composite minimum-information state
        assert matrices_close(np.kron(I2 / 2, I2 / 2), np.eye(4) / 4)

    def test_associativity(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        assert mc.max_abs_diff(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c))) < 1e-12

    def test_trace_multiplicative(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_epr_reduces_to_maximally_mixed(self):
        rho = epr_state().matrix
        assert matrices_close(mc.partial_trace(rho, SYS22, "beta"), I2 / 2, 1e-12)
        assert matrices_close(mc.partial_trace(rho, SYS22, "alpha"), I2 / 2, 1e-12)

    def test_product_factorization(self, rng):
        ra = random_density(rng, 2).matrix
        rb = random_density(rng, 2).matrix
        got = mc.partial_trace(np.kron(ra, rb), SYS22, "beta")
        assert matrices_close(got, ra, 1e-12)

    def test_general_4x4_corner_entry(self, rng):
        # reduced (0,0) entry collects the two alpha-up diagonal entries
        rho = random_density(rng, 4).matrix
        got = mc.partial_trace(rho, SYS22, "beta")
        assert abs(got[0, 0] - (rho[0, 0] + rho[1, 1])) < 1e-14
        got_b = mc.partial_trace(rho, SYS22, "alpha")
        assert abs(got_b[0, 0] - (rho[0, 0] + rho[2, 2])) < 1e-14

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 6).matrix
        sys_ = mc.BipartiteSystem(2, 3)
        for over in ("alpha", "beta"):
            assert abs(np.trace(mc.partial_trace(rho, sys_, over)) - 1.0) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mc.partial_trace(np.eye(3), SYS22, "beta")

    def test_interchangeable_partial_traces(self, rng):
        rho = random_density(rng, 6).matrix
        sys_ = mc.BipartiteSystem(3, 2)
        via_beta = np.trace(mc.partial_trace(rho, sys_, "beta"))
        via_alpha = np.trace(mc.partial_trace(rho, sys_, "alpha"))
        assert abs(via_beta - via_alpha) < 1e-13


class TestExtend:
    """Operators on one side enter the composite space as A x 1 or 1 x B."""

    def test_identity(self):
        assert matrices_close(np.kron(I2, np.eye(3)), np.eye(6))

    def test_projector(self):
        got = np.kron(np.diag([1.0, 0.0]), I2)
        assert matrices_close(got, np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_extended_operators_commute(self, rng):
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ax = np.kron(a, I2)
            bx = np.kron(I2, b)
            assert mc.max_abs_diff(ax @ bx, bx @ ax) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mc._contract(np.eye(4) / 4, SYS22, "alpha", np.eye(3))

    @pytest.mark.parametrize("side", ["alpha", "beta"])
    def test_contraction_rejects_weight_as_extend_does(self, side):
        # A weight of the wrong shape fails in the contraction kernel with a
        # message naming the side and its dimension.
        sys_ = mc.BipartiteSystem(2, 3)
        n = 2 if side == "alpha" else 3
        with pytest.raises(DimensionMismatch) as got:
            mc._contract(np.eye(6) / 6, sys_, side, np.eye(4))
        assert str(got.value) == f"operator shape (4, 4) does not match dim_{side}={n}"

    def test_reduction_intertwines_with_extension(self, rng):
        rho = random_density(rng, 4).matrix
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = mc.partial_trace(np.kron(a, I2) @ rho, SYS22, "beta")
            rhs = a @ mc.partial_trace(rho, SYS22, "beta")
            assert mc.max_abs_diff(lhs, rhs) < 1e-12


class TestEvolveOperator:
    """The test reference ``expm`` that closed-form evolution is checked against."""

    def test_time_zero_is_identity(self, rng):
        h = random_hermitian(rng, 5)
        assert matrices_close(expm(h, 0.0), np.eye(5), 1e-12)

    def test_diagonal_generator(self):
        e = np.array([2.0, -1.0, 0.5])
        u = expm(np.diag(e), 1.3)
        assert matrices_close(u, np.diag(np.exp(-1j * e * 1.3)), 1e-12)

    def test_unitarity_up_to_dim_64(self, rng):
        for dim in (2, 8, 64):
            u = expm(random_hermitian(rng, dim), 2.7)
            assert mc.max_abs_diff(u @ u.conj().T, np.eye(dim)) < 1e-10

    def test_hbar_scaling(self, rng):
        # exp(-i t H / hbar) at hbar = 2 is exp(-i (t / 2) H)
        h = random_hermitian(rng, 3)
        assert matrices_close(expm(h / 2.0, 1.0), expm(h, 0.5), 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_kron_associativity_property(values):
    a = np.array(values[:4]).reshape(2, 2)
    b = np.array(values[4:]).reshape(2, 2)
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mc.max_abs_diff(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c))) < 1e-12


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    obj = json.loads(json.dumps(mc.matrix_to_json(m)))
    assert matrices_close(mc.matrix_from_json(obj), m, 1e-15)
    assert obj["rows"] == 2 and obj["cols"] == 3


def matrix_to_json_reference(m) -> dict:
    """The per-element serialization that ``matrix_to_json`` vectorizes."""
    m = mc.as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def test_matrix_json_text_matches_reference(rng):
    tiny = np.finfo(float).smallest_subnormal
    special = np.array([[-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny)],
                        [complex(-tiny * 3, 5e-320), complex(1e308, -1e-308), 1 / 3 - 2j]])
    cases = [special, special.T, rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))]
    for m in cases:
        assert json.dumps(mc.matrix_to_json(m)) == json.dumps(matrix_to_json_reference(m))
