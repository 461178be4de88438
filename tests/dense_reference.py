"""Dense reference for model construction and printing.

This is the cell solver and array printer that caext used before array
values became sparse: one union-find cell per array term and index
value, and a frequency count over the whole table to pick the printed
default.  It is kept only so that tests can check the sparse code
against it cell by cell and byte by byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from caext import Kind, Model, Sort, Term, TermManager, domain_size
from caext.engine import Configuration, _walk
from caext.errors import IllDefinedModel
from caext.printer import print_sort
from caext.terms import postorder

from helpers import table_eval


class DenseCellSolver:
    """Joint value assignment for the cells of all array terms, one
    cell per index value."""

    def __init__(self, cfg: Configuration):
        values = cfg.values
        self._parent: dict[tuple[Term, int], tuple[Term, int]] = {}
        self._value: dict[tuple[Term, int], int] = {}
        for t in postorder(cfg.formulas):
            if t.kind is Kind.STORE:
                at = values[t.index]
                for x in range(domain_size(t.sort.index)):
                    if x != at:
                        self._union((t, x), (t.array, x))
            elif (t.kind is Kind.EQ and t.args[0].sort.is_array
                    and table_eval(values, t)):
                lhs, rhs = t.args
                for x in range(domain_size(lhs.sort.index)):
                    self._union((lhs, x), (rhs, x))
        for (dest, t) in cfg.steps:
            if t.kind is Kind.SELECT:
                self._pin((dest, values[t.index]), values[t])
            elif t.kind is Kind.CONST_ARRAY:
                blocked = {values[k] for k in _walk(cfg, dest, t)[1]}
                val = values[t.default]
                for x in range(domain_size(t.sort.index)):
                    if x not in blocked:
                        self._pin((dest, x), val)

    def _find(self, cell):
        parent = self._parent
        root = cell
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(cell, cell) != root:
            cell, parent[cell] = parent[cell], root
        return root

    def _union(self, c1, c2) -> None:
        r1, r2 = self._find(c1), self._find(c2)
        if r1 == r2:
            return
        v1, v2 = self._value.get(r1), self._value.get(r2)
        if v1 is not None and v2 is not None and v1 != v2:
            raise IllDefinedModel("linked cells carry distinct values")
        self._parent[r1] = r2
        if v2 is None and v1 is not None:
            self._value[r2] = v1
        self._value.pop(r1, None)

    def _pin(self, cell, val: int) -> None:
        root = self._find(cell)
        if self._value.setdefault(root, val) != val:
            raise IllDefinedModel("cell pinned to two values")

    def table(self, array: Term) -> tuple:
        return tuple(self._value.get(self._find((array, x)), 0)
                     for x in range(domain_size(array.sort.index)))


def dense_tables(cfg: Configuration) -> dict[Term, tuple]:
    """The dense table of every array constant of the formula set."""
    cells = DenseCellSolver(cfg)
    return {t: cells.table(t) for t in postorder(cfg.formulas)
            if t.kind is Kind.CONSTANT and t.sort.is_array}


def dense_array_term(manager: TermManager, sort: Sort,
                     table: Sequence[int]) -> Term:
    """Stores over a constant array whose default is the most frequent
    element of ``table``, smallest on ties."""
    counts = Counter(table)
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    out = manager.mk_const_array(sort, manager.mk_value(sort.element, best))
    for idx, val in enumerate(table):
        if val != best:
            out = manager.mk_store(out, manager.mk_value(sort.index, idx),
                                   manager.mk_value(sort.element, val))
    return out


def dense_print_model(manager: TermManager, model: Model,
                      tables: dict[Term, tuple],
                      constants: Iterable[Term]) -> str:
    """``print_model`` with array constants printed from ``tables``."""
    lines = []
    for c in constants:
        if c.sort.is_array:
            body = repr(dense_array_term(manager, c.sort, tables[c]))
        else:
            body = repr(manager.mk_value(c.sort, model[c]))
        lines.append(f"(define-fun {c.name} () {print_sort(c.sort)} {body})")
    return "\n".join(lines)
