import numpy as np
import pytest

from corred import matrixcore as mc
from corred.models import SpinPairParams
from corred.states import DensityMatrix


acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def matrices_close(a, b, tol: float = mc.DEFAULT_TOL) -> bool:
    """Same shape, and no entry differs by ``tol`` or more."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and mc.max_abs_diff(a, b) < tol


def random_density(rng, dim: int) -> DensityMatrix:
    """Random full-rank density matrix from a complex Wishart construction."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_nonnegative(rng, dim: int) -> np.ndarray:
    """Random positive-semidefinite observable matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g @ g.conj().T


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)



def expm(h, t):
    """exp(-i h t) of a hermitian h, from its eigendecomposition: the one
    matrix exponential the closed-form evolution operators are checked against."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def spin_pair_hamiltonian(p: SpinPairParams) -> np.ndarray:
    """4x4 hamiltonian of a pair of identical spins-1/2 in a d-c field, basis
    |22>, |21>, |12>, |11>; ``models.spin_pair_evolution`` is exp(-i H t)."""
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
