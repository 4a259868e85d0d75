"""Exception and warning types shared across the package."""


class RicciGapError(Exception):
    """Base class for all numerical/validation errors raised by riccigap."""


class CutLocusError(RicciGapError):
    """A point pair is at or beyond the cut locus, so the requested quantity
    (log map, transport, distance jet, coupling) is not defined."""


class NegativeSpectrumError(RicciGapError):
    """A matrix expected to have nonnegative spectrum has an eigenvalue below
    tolerance."""


class NonPositiveSpectrumError(RicciGapError):
    """A matrix expected to be positive definite has a nonpositive eigenvalue."""


class SingularDiffusionError(RicciGapError):
    """The diffusion tensor is rank-deficient where full rank is required."""


class HViolationError(RicciGapError):
    """The geodesic-invariance condition on the diffusion tensor fails, so the
    variance-cancelling coupling does not exist."""


class NonPositiveCurvatureError(RicciGapError):
    """A harmonic-mean style bound was requested but the curvature field is
    not strictly positive on the quadrature grid."""


class DegenerateSpectrumError(RicciGapError):
    """The zero eigenvalue of a discretized generator is not simple, or its bisection failed."""


class TermMismatchError(RicciGapError):
    """A curvature's additive term breakdown does not sum to its value within
    the rounding of the additions."""


class DivergenceError(RicciGapError):
    """A simulated step left the model space: its coordinates stopped being
    finite or moved off the space by more than rounding."""


class InputError(RicciGapError):
    """Invalid user input (CLI / config validation)."""


class GridTooCoarseError(RicciGapError):
    """The grid cannot resolve the problem; raised only as GridSizeError."""


class GridSizeError(GridTooCoarseError, InputError):
    """Fewer grid points than the discretization needs."""


class DimensionOneError(InputError):
    """A bound formula with an n/(n-1) factor was requested at n = 1."""


class DimensionMismatchError(InputError):
    """Inconsistent dimensions (e.g. effective dimension below the manifold
    dimension, or a nonzero potential with no dimension headroom)."""


class NonPSDWarning(UserWarning):
    """A constructed tensor field fails positive semidefiniteness at sampled
    points."""


class CutLocusRiskWarning(UserWarning):
    """Sampled diffusion paths came close enough to the cut locus that a
    Monte Carlo estimate may be contaminated."""
