"""Exception types shared across the package."""

__all__ = [
    "GHConvexError",
    "EmptyConfiguration",
    "SingularPoint",
    "ChartDomainError",
    "SolverFailure",
    "NotSymmetric",
    "TooFewSamples",
    "NonFiniteEigensum",
    "NonFiniteReport",
    "InvalidParams",
    "InvalidK",
    "InvalidIndex",
    "OnAxis",
    "NoConvergence",
]


class GHConvexError(Exception):
    """Base class for all errors raised by this package."""


class EmptyConfiguration(GHConvexError):
    """Potential has no centres and zero mass, i.e. it is identically zero."""


class SingularPoint(GHConvexError):
    """Evaluation point lies inside the exclusion radius of a centre."""


class ChartDomainError(GHConvexError):
    """Surface parameters fall outside the chart's domain."""


class SolverFailure(GHConvexError):
    """An implicit chart equation could not be solved."""


class NotSymmetric(GHConvexError):
    """Matrix argument is not symmetric within tolerance."""


class TooFewSamples(GHConvexError):
    """Singular-point skipping removed more than half of a scan's samples."""


class NonFiniteEigensum(GHConvexError):
    """A scan's k-eigensum overflowed the float range at some kept samples."""


class NonFiniteReport(GHConvexError):
    """A CLI report would hold NaN or an infinity: the inputs leave the float range."""


class InvalidParams(GHConvexError):
    """Numeric arguments violate a documented precondition."""


class InvalidK(GHConvexError):
    """Integer order parameter outside its admissible range."""


class InvalidIndex(GHConvexError):
    """Centre index out of range, or two indices that must differ coincide."""


class OnAxis(GHConvexError):
    """Point lies on (or numerically on) a cylinder axis."""


class NoConvergence(GHConvexError):
    """An iterative solve ran out of iterations.

    Seed-level Newton failures in the critical-point finder are swallowed
    (the seed is dropped); this exception is raised only where convergence
    is part of the operation's contract.
    """
