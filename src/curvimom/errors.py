"""Exception types, and the one integer check, shared across the package."""

import numpy as np


def is_integer(value) -> bool:
    """Whether ``value`` is exactly a Python int or a NumPy integer; a bool, which Python counts as one, is not."""
    return type(value) is int or isinstance(value, np.integer)


class CurvimomError(Exception):
    """Base class for all package errors."""


class DomainError(CurvimomError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SingularityError(CurvimomError, ArithmeticError):
    """A measure factor or drift was evaluated where the weight vanishes."""


class ConfigurationError(CurvimomError, ValueError):
    """Inconsistent configuration, e.g. integrand count vs. coordinate count."""


class PreconditionError(CurvimomError, ValueError):
    """A documented precondition was violated, e.g. an unnormalized state."""


class UnsupportedStateError(CurvimomError, TypeError):
    """The state lacks the structure an operation requires."""


class UnsupportedAxisError(CurvimomError, ValueError):
    """The coordinate axis is of the wrong kind for an operation."""
