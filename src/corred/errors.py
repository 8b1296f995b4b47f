"""Exception hierarchy shared by all corred modules."""


class CorredError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CorredError):
    """Operand dimensions are incompatible with the requested operation."""


class NotHermitian(CorredError):
    """A matrix required to be hermitian is not, within tolerance."""


class NotNonnegative(CorredError):
    """An operator required to be positive semidefinite has a negative eigenvalue."""


class ZeroTrace(CorredError):
    """An operator that must be normalizable has (near-)zero trace."""


class NonPositiveTemperature(CorredError):
    """A finite temperature must be strictly positive."""


class IndexOutOfRange(CorredError):
    """A basis-level index lies outside the subsystem dimension."""


class ValidationError(CorredError):
    """A density matrix failed hermiticity / trace / positivity validation."""


class DegenerateOverlap(CorredError):
    """The conditioning state is (numerically) orthogonal to the support of rho."""


class NotConverged(CorredError):
    """An operation requires a converged iteration report."""


class TieUndefined(CorredError):
    """A piecewise branch is undefined exactly at its tie point."""
