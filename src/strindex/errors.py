"""Exception taxonomy shared by all strindex modules."""

from operator import index


class StrindexError(Exception):
    """Base class for every error raised by this package."""


class MalformedInputError(StrindexError):
    """Input data violates its declared format (bad symbol, unsorted keys, ...)."""


class EmptyTextError(MalformedInputError):
    """A text of length zero was supplied."""


class SigmaExceedsLengthError(MalformedInputError):
    """Alphabet size larger than the text length; outside the supported regime."""


class OutOfRangeError(StrindexError):
    """A position or prefix argument lies outside its valid range."""


class BadSymbolError(StrindexError):
    """A query named a symbol >= sigma; distinct from 'occurrence absent'."""


class NotFoundError(StrindexError):
    """Select ordinal exceeds the number of matching bits; not a malformed call."""


class CorruptIndexError(StrindexError):
    """Index bytes are unreadable: bad magic, wrong version, or truncation."""


class PairingError(StrindexError):
    """Index and text fingerprints disagree; the pair was never built together."""


class ProbeBudgetError(StrindexError):
    """Internal guard: a query exceeded its probe or accessor-call budget."""


def require_integers(**args):
    """Raise MalformedInputError naming the first argument that is not an
    integer; a bool is one."""
    for name, value in args.items():
        try:
            index(value)
        except TypeError:
            raise MalformedInputError(f"{name} must be an integer, got {value!r}") from None
