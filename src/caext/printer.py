"""Writer for terms, scripts, and models in SMT-LIB form."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InternalError
from .model import ArrayValue, Model, Value
from .terms import Kind, Sort, Term, TermManager, free_constants, iter_subterms


def print_sort(sort: Sort) -> str:
    return repr(sort)


def print_term(term: Term) -> str:
    """SMT-LIB rendering of a term.

    The internal at-least-n-distinct predicate has no SMT-LIB spelling
    and is rejected; it never reaches printed output in normal use.
    """
    for t in iter_subterms([term]):
        if t.kind is Kind.DISTINCT_N:
            raise InternalError(
                "at-least-n-distinct atoms cannot be printed as SMT-LIB")
    return repr(term)


def format_value(manager: TermManager, sort: Sort, value: Value) -> str:
    """A scalar or array value as an SMT-LIB term."""
    if sort.is_array:
        return print_term(array_value_term(manager, sort, value))
    assert isinstance(value, int)
    return repr(manager.mk_value(sort, value))


def array_value_term(manager: TermManager, sort: Sort,
                     value: ArrayValue) -> Term:
    """Rebuild an array value as stores over a constant-array base.

    The base default is the value's default, its most frequent element
    (smallest value on ties), and one store per exception follows in
    index order, so the printed form is as short as possible and
    deterministic.
    """
    out = manager.mk_const_array(
        sort, manager.mk_value(sort.element, value.default))
    for idx, val in value.exceptions.items():
        out = manager.mk_store(out,
                               manager.mk_value(sort.index, idx),
                               manager.mk_value(sort.element, val))
    return out


def print_model(manager: TermManager, model: Model,
                constants: Iterable[Term]) -> str:
    """One ``define-fun`` per constant, in the given order."""
    lines = []
    for c in constants:
        assert c.kind is Kind.CONSTANT
        lines.append(f"(define-fun {c.name} () {print_sort(c.sort)} "
                     f"{format_value(manager, c.sort, model[c])})")
    return "\n".join(lines)


def print_script(assertions: Sequence[Term], *,
                 logic: Optional[str] = "QF_ABV",
                 check_sat: bool = True,
                 get_model: bool = False) -> str:
    """A complete SMT-LIB script: declarations, assertions, check-sat."""
    lines = []
    if logic:
        lines.append(f"(set-logic {logic})")
    for c in free_constants(assertions):
        lines.append(f"(declare-const {c.name} {print_sort(c.sort)})")
    for a in assertions:
        lines.append(f"(assert {print_term(a)})")
    if check_sat:
        lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"
