"""Exception hierarchy shared by all bsgeo modules."""

from __future__ import annotations


class BSError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BSError):
    """Input text does not match the word grammar.

    The byte offset of the offending character is stored in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExpansionLimit(BSError):
    """Expanding a word to plain letters would exceed the allowed length."""


class PreconditionError(BSError):
    """An operation was called on input violating its stated precondition."""


class NotHorocyclic(BSError):
    """The word does not represent an element of the subgroup generated by a."""


class NotAHill(BSError):
    """The Britton reduction is not of hill shape (t-sequence t^k T^m)."""


class NotAValley(BSError):
    """The word is not a valley (height must stay <= 0 and end at 0)."""


class NotDifficult(BSError):
    """The Britton reduction does not start with T and end with t."""


class RequiresDivides(BSError):
    """The operation is only defined when p divides q."""


class UnsupportedCase(BSError):
    """Geodesics for difficult words with p not dividing q are an open problem."""


class LimitExceeded(BSError):
    """A brute-force guard (ball size, enumeration bound) was exceeded."""


class OutOfBall(BSError):
    """The element is not contained in the enumerated ball."""


class InternalError(BSError):
    """An internal invariant failed: a bug in this package, not in the input."""
