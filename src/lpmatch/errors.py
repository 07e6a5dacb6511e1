"""Exception types shared across the package.

There are two kinds of data error.  ``InvalidValue`` is a value or argument
outside its domain: a negative distance, a blank or duplicate name, a unit
that does not fit, references that do not match, an empty table or
selection, a target of zero magnitude, an operand of the wrong kind.
``ParseError`` is malformed table text, with the line and column where
known.  Both are ``LpmatchError``, and the CLI maps both to exit 1.
"""


class LpmatchError(Exception):
    """Base class for every error raised by this package."""


class InvalidValue(LpmatchError):
    """A value or argument is outside its domain."""


class ParseError(LpmatchError):
    """Malformed tabular input; carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
