"""Domain error hierarchy.

Each class name is stable: the CLI emits it verbatim as the ``error`` of
its machine-readable error records.
"""


class AlphaFractionError(Exception):
    """Base class for all domain errors of this library."""


class NotMonic(AlphaFractionError):
    """A polynomial required to be monic of a given degree is not."""


class NotAdmissible(AlphaFractionError):
    """R - prod(x - alpha_i) is not a perfect square of small enough degree."""


class FactorizationDegenerate(AlphaFractionError):
    """Matrix factorization hit the codimension-1 degenerate locus."""


class NotPure(AlphaFractionError):
    """Pure-periodic operation applied where C(alpha_N) != 0."""


class NonGenericPure(AlphaFractionError):
    """Pure case with B(alpha_N) = 0; uniqueness is only asserted generically."""


class PoleAtLambda(AlphaFractionError):
    """Numeric evaluation requested at a zero of A."""


class ZeroPivot(AlphaFractionError):
    """A group generator hit a zero coefficient it must divide by."""


class PointOffCurve(AlphaFractionError):
    """A divisor point does not satisfy mu^2 = R(lambda)."""


class RepeatedAbscissa(AlphaFractionError):
    """Two divisor points share a lambda-coordinate (unsupported)."""


class SpecialDivisor(AlphaFractionError):
    """The divisor contains a point together with its hyperelliptic conjugate."""


class IrrationalSupport(AlphaFractionError):
    """U does not split into distinct rational linear factors over Q."""


class IrrationalBeta(AlphaFractionError):
    """The shift quadratic has roots outside Q (R(alpha_N) is not a square)."""


class RootOfR(AlphaFractionError):
    """alpha_N is a root of R, excluded for the pure 2:1 correspondence."""


class UnknownExample(AlphaFractionError):
    """No canned dataset with the requested name."""
