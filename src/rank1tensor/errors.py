"""Exception hierarchy shared across the package."""


class Rank1Error(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(Rank1Error, ValueError):
    """Shapes, modes, or index sets do not line up."""


class InvalidInputError(Rank1Error, ValueError):
    """An argument violates a documented precondition (other than shape)."""


class DegenerateInputError(Rank1Error, ValueError):
    """Input is structurally unusable: a zero tensor or a zero matrix."""


class BreakdownError(Rank1Error, RuntimeError):
    """An iteration produced an exactly degenerate configuration
    (for example a contraction of norm zero) and cannot continue."""


class NumericsError(Rank1Error, RuntimeError):
    """A self-check on computed quantities failed beyond tolerance."""


class UnsupportedError(Rank1Error, ValueError):
    """The requested method/shape combination is not supported."""


class SingularBlockError(InvalidInputError):
    """A diagonal block required to be invertible is singular."""

    def __init__(self, block_index, message=None):
        self.block_index = block_index
        super().__init__(message or f"diagonal block {block_index} is singular")


class ParseError(Rank1Error, ValueError):
    """A text input file is malformed; carries the offending line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")
