"""Exception hierarchy shared by all twoloop modules."""


class TwoLoopError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TwoLoopError):
    """Argument outside the mathematical domain of an operation."""


class NotAUnit(TwoLoopError):
    """Inversion requested for a series whose constant term vanishes."""


class NonNilpotentExponent(TwoLoopError):
    """exp() of a series that is not nilpotent to the truncation order."""


class TruncationUnderflow(TwoLoopError):
    """A substitution or expansion cannot be ordered away within the
    available truncation bounds."""


class UnknownCoefficient(TwoLoopError):
    """Coefficient requested outside the validity region of a series.

    Distinct from a zero coefficient: the value is simply not determined
    by the data the series was built from.
    """


class AsymmetryError(TwoLoopError):
    """r -> u rewriting applied to a series that is not symmetric under
    r <-> 1/r."""


class FractionalExponentUnsupported(TwoLoopError):
    """Operation requires integer exponents in some variable."""


class NotPositiveDefinite(TwoLoopError):
    """Lattice enumeration needs a positive definite Gram matrix."""


class OddLattice(TwoLoopError):
    """Theta series requested for a lattice that is not even."""


class ValidationFailed(TwoLoopError):
    """A derived construction disagrees with its reference data."""


class InternalError(TwoLoopError):
    """An internal consistency assertion failed (e.g. theta phases that
    should cancel exactly did not)."""


class Unsupported(TwoLoopError):
    """Operation has no defining data for the requested theory or order."""
