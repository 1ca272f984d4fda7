"""Exception types shared across the package.

Every precondition failure raises one of these rather than a bare
ValueError, so callers (and the CLI) can map them to input-error exits.
"""


class TorusNodalError(Exception):
    """Base class for all package-specific errors."""


class EmptySpectrum(TorusNodalError):
    """The requested energy level is not a sum of two integer squares."""


class NonRealValue(TorusNodalError):
    """Coefficient vector broke conjugate symmetry: evaluation came out complex."""


class ResolutionTooCoarse(TorusNodalError):
    """Sampling grid too coarse for the frequency content of the eigenfunction."""


class BallTooLarge(TorusNodalError):
    """Ball radius at or beyond the half-period: not an embedded metric disk."""


class RadiusUnderResolved(TorusNodalError):
    """Ball radius spans too few grid cells for quadrature to be trusted."""


class RadiusTooLarge(TorusNodalError):
    """Radius incompatible with a construction bound (covering or dilation)."""


class DivisionByNegligibleMass(TorusNodalError):
    """Denominator mass below working precision; a ratio would be meaningless."""


class ChartExceeded(TorusNodalError):
    """A doubled ball leaves the growth chart |y| <= 10 of real_doubling_exponent."""


class NegativeTestFunction(TorusNodalError):
    """Weight functions for nodal line integrals must be nonnegative."""
