"""Exception hierarchy shared across the solver."""

from __future__ import annotations


class CaextError(Exception):
    """Base class for all errors raised by this package."""


class SortMismatch(CaextError):
    """A term constructor was applied to children of the wrong sorts.

    The message names the sorts involved; the parser reports it at the
    operator's source location.
    """


class ParseError(CaextError):
    """Syntax error in an SMT-LIB input, with a 1-based source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UnknownSymbolError(ParseError):
    """An identifier was used before being declared."""


class SortError(ParseError):
    """A sort annotation or operator application is ill-sorted."""


class BoundsExceeded(CaextError):
    """A problem is too large for exhaustive enumeration."""


class ResourceLimit(CaextError):
    """The configured search budget was exhausted before a verdict."""


class UnassignedConstant(CaextError):
    """A term was evaluated under a model that does not assign one of
    its constants."""


class InternalError(CaextError):
    """An internal invariant of the solver was violated."""


class UndefinedStep(InternalError):
    """A propagation-map entry was queried but never recorded."""


class IllDefinedModel(InternalError):
    """Model construction found two applicable cases that disagree.

    This cannot happen for a saturated configuration; raising it signals
    a bug in the propagation engine rather than in the input.
    """
