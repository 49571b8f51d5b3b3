"""Exception hierarchy for the yehsim package.

Every error raised by the library derives from YehError so callers can
catch library failures without swallowing unrelated exceptions.
"""


class YehError(Exception):
    """Base error for this package."""


class OutOfDomainError(YehError, ValueError):
    """A time argument lies outside the function's interval [a, b]."""


class OutOfRangeError(YehError, ValueError):
    """A target value lies outside the reachable range of a monotone function."""


class PartitionOutOfDomainError(YehError, ValueError):
    """A step-function partition extends beyond the measure's interval."""


class NonFiniteValueError(YehError, ArithmeticError):
    """An integrand returned NaN or infinity."""


class BadGridError(YehError, ValueError):
    """A sampling grid is not strictly increasing or does not span [a, b]."""


class NegativeVarianceError(YehError, RuntimeError):
    """Internal invariant violation: a variance increment was not positive."""


class DegenerateReferenceError(YehError, ValueError):
    """A reference distribution has zero variance."""


class ConfigError(YehError, ValueError):
    """A run configuration failed validation; the message names the field."""
