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


# characters of the text quoted on each side of the caret
_QUOTE = 40


class ExprSyntaxError(InputError):
    """A syntax error at position ``pos`` of ``text``.  The message quotes at
    most ``_QUOTE`` characters on each side of the caret and marks a cut
    with ``…``, so its length does not grow with the text."""

    def __init__(self, message: str, text: str = "", pos: int | None = None):
        self.text = text
        self.pos = pos
        if pos is not None:
            before, after = text[:pos], text[pos:]
            left = f"…{before[-_QUOTE:]!r}" if len(before) > _QUOTE else repr(before)
            right = f"{after[:_QUOTE]!r}…" if len(after) > _QUOTE else repr(after)
            message = f"{message} (at position {pos}: {left} ^ {right})"
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
    """Generator images are incompatible with the commutation relations;
    ``pair`` is the first failing pair of generator indices, and ``lhs`` and
    ``rhs`` are the two torus elements its relation sets equal."""

    def __init__(
        self, message: str, pair: tuple[int, int] | None = None, lhs=None, rhs=None
    ):
        self.pair = pair
        self.lhs = lhs
        self.rhs = rhs
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
