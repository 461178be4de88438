"""Rewrite assertions into flat formulas plus guarded fresh constants.

A formula is flat when it is Boolean structure (and/or/not/implies/ite
over Bool) over atoms whose operands are terms of the array theory:
every scalar operand is a constant, a literal or a read, and every
array operand a constant, a store or a constant array over such
operands, nested as deep as the input nests them.  Reads and stores
keep their place in the term graph and get no name.  Only what the
ground encoder cannot take in a term position is named: a non-Boolean
ite becomes a fresh constant with two guarded equalities, and a Boolean
formula a fresh Boolean constant with an iff guard.  The conjunction
of the result is equisatisfiable with the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

from .terms import Kind, Term, TermManager, postorder

_STRUCTURE = (Kind.NOT, Kind.AND, Kind.OR, Kind.IMPLIES)
# The kinds a term position may hold, and those whose operands are in
# term positions.
_TERM_KINDS = (Kind.CONSTANT, Kind.VALUE, Kind.SELECT, Kind.STORE,
               Kind.CONST_ARRAY)
_TERM_PARENTS = (Kind.EQ, Kind.DISTINCT_N, Kind.SELECT, Kind.STORE,
                 Kind.CONST_ARRAY)


def is_flat_formula(f: Term) -> bool:
    """The ground encoder's contract: every operand of an equality, a
    distinct_N, a read, a store or a constant array is a constant, a
    literal, a read, a store or a constant array, and every ite is
    Boolean, so it sits in Boolean structure."""
    for t in postorder((f,)):
        if t.kind is Kind.ITE and not t.sort.is_bool:
            return False
        if t.kind in _TERM_PARENTS \
                and any(a.kind not in _TERM_KINDS for a in t.args):
            return False
    return True


@dataclass
class FlatResult:
    """Flattened formulas, and each fresh constant flattening made
    mapped to the ite or Boolean formula it names."""

    formulas: list[Term]
    definitions: dict[Term, Term]

    def is_flat(self) -> bool:
        return all(is_flat_formula(f) for f in self.formulas)


# What a term is rewritten into: a flat formula, or a term that stands
# for it in a term position.
_FORMULA, _NAME = 0, 1


class _Flattener:
    def __init__(self, m: TermManager):
        self.m = m
        self.definitions: dict[Term, Term] = {}
        self.guards: list[Term] = []
        self._names: dict[Term, Term] = {}

    def rewrite(self, goal: int, root: Term) -> Term:
        """The formula (``_FORMULA``) or the term (``_NAME``) that
        ``root`` is rewritten into, introducing fresh constants and
        guards as needed.

        Each term being rewritten is on the stack with its goal, an
        iterator over the goals and terms of its operands not taken yet
        and the results of those taken.  Operands are rewritten left to
        right before the term, so fresh constants and guards come in the
        order of a recursive walk.  A term is rewritten once in a term
        position; its formula is made again wherever it occurs.
        """
        names, operands, make = self._names, self._operands, self._make
        out: list[Term] = []
        stack: list[tuple] = [(goal, None, iter(((goal, root),)), out)]
        while stack:
            goal, t, rest, results = stack[-1]
            for g, x in rest:
                if g == _NAME:
                    if not x.args:
                        results.append(x)
                        continue
                    result = names.get(x)
                    if result is not None:
                        results.append(result)
                        continue
                stack.append((g, x, operands(g, x), []))
                break
            else:
                stack.pop()
                if t is not None:
                    result = make(goal, t, results)
                    if goal == _NAME:
                        names[t] = result
                    stack[-1][3].append(result)
        return out[0]

    @staticmethod
    def _operands(goal: int, t: Term) -> Iterator[tuple[int, Term]]:
        """The goals and terms of the rewrites that make ``t``'s."""
        if goal == _FORMULA:
            if t.kind in _STRUCTURE or (t.kind is Kind.ITE and t.sort.is_bool):
                return zip(repeat(_FORMULA), t.args)
            if t.kind in (Kind.EQ, Kind.DISTINCT_N):
                return zip(repeat(_NAME), t.args)
            # a Boolean-sorted constant, value, or read
            return iter(((_NAME, t),))
        if t.kind in _TERM_KINDS:
            return zip(repeat(_NAME), t.args)
        if t.sort.is_bool:
            return iter(((_FORMULA, t),))
        if t.kind is Kind.ITE:
            return zip((_FORMULA, _NAME, _NAME), t.args)
        raise AssertionError(f"cannot name {t!r}")

    def _make(self, goal: int, t: Term, operands: list[Term]) -> Term:
        m = self.m
        if goal == _FORMULA:
            if t.kind is Kind.EQ:
                return m.mk_eq(*operands)
            if t.kind is Kind.DISTINCT_N:
                return m.mk_distinct_n(t.n, operands)
            if t.kind in _STRUCTURE or (t.kind is Kind.ITE
                                        and t.sort.is_bool):
                return m.mk_term(t.kind, operands)
            return operands[0]
        if t.kind in _TERM_KINDS:
            return m.mk_term(t.kind, operands, sort=t.sort)
        fresh = m.fresh_const(t.sort)
        self.definitions[fresh] = t
        if t.sort.is_bool:
            # A Boolean formula in a term position: an iff guard.
            body, = operands
            self.guards.append(m.mk_implies(fresh, body))
            self.guards.append(m.mk_implies(body, fresh))
            return fresh
        cond, then_term, else_term = operands
        self.guards.append(m.mk_implies(cond, m.mk_eq(fresh, then_term)))
        self.guards.append(
            m.mk_implies(m.mk_not(cond), m.mk_eq(fresh, else_term)))
        return fresh


def flatten(m: TermManager, assertions: Iterable[Term]) -> FlatResult:
    """Flatten ``assertions`` into an equisatisfiable set of flat
    formulas, the guards of the fresh constants last."""
    fl = _Flattener(m)
    units = [fl.rewrite(_FORMULA, a) for a in assertions]
    return FlatResult(units + fl.guards, fl.definitions)
