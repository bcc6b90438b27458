"""Exception hierarchy shared by all modules, and the cut an error message applies to an echoed value."""

from __future__ import annotations


def _clipped(value):
    """A value as an error message echoes it: a text past 20 characters is cut to its first 20 plus '...'."""
    return value[:20] + "..." if isinstance(value, str) and len(value) > 20 else value


class HalfFlatError(Exception):
    """Base class for all library errors."""


class DegreeError(HalfFlatError):
    """Operation applied to forms of an unsupported or mismatched degree."""


class RadicandMismatchError(HalfFlatError):
    """Arithmetic between quadratic-extension elements over different radicands."""


class NotStableError(HalfFlatError):
    """A stable form was required but the input is degenerate."""


class NotCompatibleError(HalfFlatError):
    """A compatible pair was required but omega ^ rho != 0."""


class JacobiError(HalfFlatError):
    """Structure constants violate the Jacobi identity (d^2 != 0)."""


class CatalogError(HalfFlatError):
    """Unknown catalog name or parameter outside its admissible range."""


class DomainError(HalfFlatError):
    """Ansatz parameter outside the domain of the chosen construction case."""


class ParseError(HalfFlatError):
    """Syntax error in the structure-file format at a line and a 1-based character column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
