"""Exception types shared across the package."""


class RankedRevError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RankedRevError):
    """Malformed formula text; ``position`` is the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ParseError):
    """Formula mentions an atom outside the signature."""

    def __init__(self, atom: str, position: int):
        super().__init__(f"unknown atom {atom!r}", position)
        self.atom = atom


class SignatureError(RankedRevError, ValueError):
    """Atom names that cannot form a signature: too few or too many,
    duplicated, malformed or reserved; or a signature other than the one
    the value it is used with was built over."""


class RankFileError(RankedRevError):
    """Rank-function file does not follow the level-per-line format."""


class SignatureTooLargeError(RankedRevError):
    """Signature too large for exhaustive enumeration of rank functions."""


class TableTooLargeError(RankedRevError, OverflowError):
    """A table over every formula class, 2**(2**n) entries, asked for
    beyond the atoms it fits at. Also an OverflowError, which such calls
    raised before."""


class DomainTooLargeError(RankedRevError):
    """Quantifier domain too large for exhaustive checking; use sampled mode."""


class SamplingError(RankedRevError, ValueError):
    """Sampled mode asked for without a seed or with fewer than one sample."""


class SearchExhaustedError(RankedRevError):
    """A witness guaranteed to exist was not found; an implementation bug."""


class WitnessNotFoundError(RankedRevError):
    """No under-determination witness exists for the given anchor theory."""
