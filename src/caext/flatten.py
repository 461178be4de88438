"""Rewrite assertions into flat literals plus fresh-constant definitions.

A *leaf* is an uninterpreted constant, a value literal, or a constant
array whose default is a leaf.  A literal is flat when it is a Boolean
leaf, an equality or distinct_N over leaves, an equality between a leaf
and a single application over leaves, or a negation of one of these.
Boolean structure (and/or/not/implies/ite over Bool) is preserved;
non-Boolean ites are compiled into a fresh constant with two guarded
equalities.  The conjunction of the result is equisatisfiable with the
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Iterator

from .terms import Kind, Term, TermManager

_APP_KINDS = (Kind.SELECT, Kind.STORE)
_LEAF_KINDS = (Kind.CONSTANT, Kind.VALUE)
_CONST_ARRAY = Kind.CONST_ARRAY
_STRUCTURE = (Kind.NOT, Kind.AND, Kind.OR, Kind.IMPLIES)


def is_leaf(t: Term) -> bool:
    """Constants, values, and constant arrays over such defaults."""
    kind = t.kind
    if kind in _LEAF_KINDS:
        return True
    return kind is _CONST_ARRAY and t.args[0].kind in _LEAF_KINDS


def is_flat_application(t: Term) -> bool:
    """A single select/store/const-array layer over leaves."""
    if t.kind in _APP_KINDS:
        return all(is_leaf(a) for a in t.args)
    if t.kind is Kind.CONST_ARRAY:
        return is_leaf(t.default)
    return False


def is_flat_atom(t: Term, *, allow_application: bool) -> bool:
    if t.sort.is_bool and is_leaf(t):
        return True
    if t.kind is Kind.EQ:
        lhs, rhs = t.args
        if is_leaf(lhs) and is_leaf(rhs):
            return True
        if allow_application:
            return ((is_leaf(lhs) and is_flat_application(rhs))
                    or (is_flat_application(lhs) and is_leaf(rhs)))
        return False
    if t.kind is Kind.DISTINCT_N:
        return all(is_leaf(a) for a in t.args)
    return False


def is_flat_formula(t: Term) -> bool:
    """Boolean structure over flat atoms.

    The one-application equality form is only admitted as a positive
    top-level unit; underneath any connective, atoms are leaf-only, so
    negated array equalities are always constant-vs-constant.
    """
    if is_flat_atom(t, allow_application=True):
        return True
    return _flat_sub(t)


def _flat_sub(t: Term) -> bool:
    todo = [t]
    while todo:
        x = todo.pop()
        if is_flat_atom(x, allow_application=False):
            continue
        if x.kind in _STRUCTURE or (x.kind is Kind.ITE and x.sort.is_bool):
            todo += x.args
            continue
        return False
    return True


@dataclass
class FlatResult:
    """Flattened formulas plus the definitions introduced on the way."""

    formulas: list[Term]
    definitions: dict[Term, Term]
    manager: TermManager = field(repr=False)

    @property
    def definition_units(self) -> list[Term]:
        m = self.manager
        return [m.mk_eq(x, d) for x, d in self.definitions.items()]

    @property
    def all_formulas(self) -> list[Term]:
        return self.definition_units + self.formulas

    def is_flat(self) -> bool:
        return all(is_flat_formula(f) for f in self.all_formulas)


# What a term is rewritten into: a flat formula, or a leaf that stands
# for it in a term position.
_FORMULA, _NAME = 0, 1


class _Flattener:
    def __init__(self, m: TermManager):
        self.m = m
        self.definitions: dict[Term, Term] = {}
        self.guards: list[Term] = []
        self._names: dict[Term, Term] = {}

    def rewrite(self, goal: int, root: Term) -> Term:
        """The formula (``_FORMULA``) or the leaf (``_NAME``) that
        ``root`` is rewritten into, introducing definitions and guards
        as needed.

        Each term being rewritten is on the stack with its goal, an
        iterator over the goals and terms of its operands not taken yet
        and the results of those taken.  Operands are rewritten left to
        right before the term, so fresh constants, definitions and
        guards come in the order of a recursive walk.  A term is named
        once; its formula is made again wherever it occurs.
        """
        names, operands, make = self._names, self._operands, self._make
        out: list[Term] = []
        stack: list[tuple] = [(goal, None, iter(((goal, root),)), out)]
        while stack:
            goal, t, rest, results = stack[-1]
            for g, x in rest:
                if g == _NAME:
                    if is_leaf(x):
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
        if t.sort.is_bool and t.kind not in _APP_KINDS:
            return iter(((_FORMULA, t),))
        if t.kind is Kind.CONST_ARRAY or t.kind in _APP_KINDS:
            return zip(repeat(_NAME), t.args)
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
        if t.sort.is_bool and t.kind not in _APP_KINDS:
            # A Boolean formula in a term position: bind it to a fresh
            # constant with an iff guard.
            body, = operands
            fresh = m.fresh_const(m.bool_sort)
            self.guards.append(m.mk_implies(fresh, body))
            self.guards.append(m.mk_implies(body, fresh))
            return fresh
        if t.kind is Kind.CONST_ARRAY:
            return m.mk_const_array(t.sort, operands[0])
        if t.kind in _APP_KINDS:
            app = m.mk_term(t.kind, operands, sort=t.sort)
            fresh = m.fresh_const(t.sort)
            self.definitions[fresh] = app
            return fresh
        cond, then_leaf, else_leaf = operands
        fresh = m.fresh_const(t.sort)
        self.guards.append(m.mk_implies(cond, m.mk_eq(fresh, then_leaf)))
        self.guards.append(
            m.mk_implies(m.mk_not(cond), m.mk_eq(fresh, else_leaf)))
        return fresh

    def unit(self, t: Term) -> Term:
        """A top-level assertion; already-flat atoms pass through."""
        if is_flat_atom(t, allow_application=True):
            return t
        return self.rewrite(_FORMULA, t)


def flatten(m: TermManager, assertions: Iterable[Term]) -> FlatResult:
    """Flatten ``assertions`` into an equisatisfiable set of flat
    formulas plus definitions."""
    fl = _Flattener(m)
    units = [fl.unit(a) for a in assertions]
    return FlatResult(units + fl.guards, fl.definitions, m)
