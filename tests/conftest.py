import numpy as np
import pytest

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


def odd_multiples(step: float | None, t_max: float) -> list[float]:
    """Tie times (2k+1) step for k = 0, 1, ... up to t_max; none for step None."""
    ties = []
    k = 0
    while step is not None and (tie := (2 * k + 1) * step) <= t_max:
        ties.append(tie)
        k += 1
    return ties
