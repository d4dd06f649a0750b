"""Shared exception types, and the one conversion of an outside value to
an exact rational.

Kept in one place so the CLI can map them onto exit codes without
importing half the library into every handler.  Every library entry point
that takes a capacity, a weight, a rate, a row entry or a point from its
caller turns it into a `Fraction` through `exact_rational`, so a NaN, an
infinity or a non-number is refused with one kind of ParameterError and
one text wherever it arrives.
"""

from __future__ import annotations

from fractions import Fraction


class ParameterError(ValueError):
    """An argument is outside its documented domain."""


class GroundMismatchError(ValueError):
    """Two values built over different ground sets were combined."""


class PreconditionError(ValueError):
    """A stated precondition (typically a set containment) does not hold."""


class SchemaError(ValueError):
    """A document does not conform to the expected JSON schema."""


class CutVerificationError(ValueError):
    """A supplied arc set does not separate the source from its sink."""


class InfeasibleCutError(ValueError):
    """No finite-capacity cut exists for the requested sink."""


class UnboundedRegionError(ValueError):
    """A projected region is unbounded; carries one certifying ray."""

    def __init__(self, message: str, ray: tuple | None = None):
        super().__init__(message)
        self.ray = ray


def exact_rational(value, what: str) -> Fraction:
    """`value` as a Fraction: a Fraction as it is, anything else through
    `Fraction(value)`, so ints, floats and Decimals at their exact value
    and strings in `Fraction`'s grammar.  ParameterError naming `what` for
    a value that is not a finite rational."""
    if type(value) is Fraction:
        return value
    try:
        return Fraction(value)
    except (ValueError, TypeError, ArithmeticError):
        # NaN and text that is not a rational raise ValueError, an infinity
        # OverflowError, "1/0" ZeroDivisionError, a non-number TypeError
        raise ParameterError(f"{what} must be a finite rational, got {value!r}") from None
