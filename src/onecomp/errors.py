"""Exception hierarchy shared by all onecomp modules."""


class OnecompError(Exception):
    """Base class for library errors."""


class DomainError(OnecompError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionExhausted(OnecompError, RuntimeError):
    """A requested tolerance could not be met within the resolution caps.

    Carries the best certified bracket computed before giving up.
    """

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class TailBoundInsufficient(OnecompError, RuntimeError):
    """A declared zero tail is too large to certify a query: a modulus
    bracket at its tolerance, or the mass of a square smaller than it."""


class BlaschkeConditionError(OnecompError, ValueError):
    """A zero sequence violates its declared Blaschke-sum budget."""


class HypothesisViolated(OnecompError, RuntimeError):
    """Input data does not satisfy the hypothesis of a specialized test."""


class RadiusSearchExhausted(OnecompError, RuntimeError):
    """No grid radius meets the modulus bound; singular data under-described."""


class CurveExhausted(OnecompError, RuntimeError):
    """A zero-placement march ran off the end of a finite curve."""
