"""Exception hierarchy.

Errors are split by who is at fault: ``InputError`` (and subclasses) mean
the user's file or expression is bad, ``InternalError`` means an invariant
that should hold for every valid input was violated.
"""

from __future__ import annotations


class SkewtorError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SkewtorError):
    """Malformed or inconsistent user input (exit code 1)."""


class ExprSyntaxError(InputError):
    def __init__(self, message: str, text: str = "", pos: int | None = None):
        self.text = text
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos}: {text[:pos]!r} ^ {text[pos:]!r})"
        super().__init__(message)


class UnknownIdentifier(InputError):
    pass


class ArityMismatch(InputError):
    pass


class DivisionByZero(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class LimitExceeded(InputError):
    """Support-size runaway guard tripped (see SKEWTOR_MAX_DEGREE)."""


class NotADerivation(InputError):
    """Generator images are incompatible with the commutation relations."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        self.pair = pair
        super().__init__(message)


class NonEigenvector(InputError):
    """A derived generator fails to be an eigenvector of the stage map."""


class MembershipViolation(InputError):
    """An element left the selectively localized space it must live in."""


class InternalError(SkewtorError):
    """Violation of an invariant guaranteed for valid input (exit code 2)."""


class Inconsistent(InternalError):
    pass


class NotNormal(InternalError):
    """A new generator fails a normality identity; ``residual`` is the nonzero
    torus element the identity leaves."""

    def __init__(self, message: str, generator: str = "", residual=None):
        self.generator = generator
        self.residual = residual
        super().__init__(message)


class NotValidated(InternalError):
    """A skew derivation was used before passing validation."""
