"""Exception types shared across the package."""


class ChessError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ChessError, ValueError):
    """A point has the wrong shape or type for the requested distance."""


class DegenerateInputError(ChessError, ValueError):
    """An input is valid in shape but meaningless for the operation,
    e.g. an all-zero vector under the chord distance."""


class FormatError(ChessError, ValueError):
    """An on-disk artifact violates its format contract.

    Messages name the byte offset (binary formats) or the line and
    column (text formats) of the first violation.
    """
