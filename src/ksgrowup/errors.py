"""Exception types shared across the package.

The CLI maps NumericsError (and subclasses) to exit code 2; a scientific
verdict failing is not an exception, it is a reported result (exit code 1).
"""


class NumericsError(Exception):
    """Base class for configuration / numerical failures."""


class ConstructionError(NumericsError):
    """Requested grid or table cannot be built from the given parameters."""


class RangeError(NumericsError):
    """Query point outside the domain covered by a grid, table or path."""


class SingularInputError(NumericsError):
    """Integrand fails the O(y) smallness required at the origin."""


class InfeasibleError(NumericsError):
    """No admissible parameter found within the search bounds."""


class InvalidKError(NumericsError):
    """Correction constant K makes the matching ODE ill-posed at start."""


class SolverFailureError(NumericsError):
    """Newton iteration failed to converge even at the smallest step."""


class MaximumPrincipleViolation(NumericsError):
    """An accepted step left the admissible range or broke monotonicity."""


class ResolutionError(NumericsError):
    """Grid or step too coarse to resolve the inner layer reliably."""


class OrderingFailureError(NumericsError):
    """No time shift within bounds restores the barrier ordering."""
