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

`flatten` is one fold over the distinct subterms, children first, so a
subterm shared anywhere in the input is rewritten once.  A non-Boolean
ite is named when the fold finishes it; a Boolean formula is named when
the fold finishes the first term that takes it in a term position.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Iterable

from .terms import Kind, Term, TermManager, postorder

# The kinds a term position may hold, and those whose operands are in
# term positions.
_TERM_KINDS = (Kind.CONSTANT, Kind.VALUE, Kind.SELECT, Kind.STORE,
               Kind.CONST_ARRAY)
_TERM_PARENTS = (Kind.EQ, Kind.DISTINCT_N, Kind.SELECT, Kind.STORE,
                 Kind.CONST_ARRAY)


@dataclass
class FlatResult:
    """Flattened formulas, and each fresh constant flattening made
    mapped to the ite or Boolean formula it names."""

    formulas: list[Term]
    definitions: dict[Term, Term]


def flatten(m: TermManager, assertions: Iterable[Term]) -> FlatResult:
    """Flatten ``assertions`` into an equisatisfiable set of flat
    formulas, the guards of the fresh constants last.  Each subterm is
    rewritten once, and kept as it is if its operands come back
    unchanged.  A non-Boolean ite is named when it is rewritten, a
    Boolean formula when a term position first takes it."""
    assertions = list(assertions)
    flat: dict[Term, Term] = {}      # each subterm's rewrite
    names: dict[Term, Term] = {}     # each named Boolean formula's constant
    definitions: dict[Term, Term] = {}
    guards: list[Term] = []
    for t in postorder(assertions):
        if not t.args:
            flat[t] = t
            continue
        args = [flat[a] for a in t.args]
        if t.kind in _TERM_PARENTS:
            for pos, a in enumerate(t.args):
                if a.sort.is_bool and a.kind not in _TERM_KINDS:
                    fresh = names.get(a)
                    if fresh is None:
                        fresh = names[a] = m.fresh_const(a.sort)
                        definitions[fresh] = a
                        guards += (m.mk_implies(fresh, args[pos]),
                                   m.mk_implies(args[pos], fresh))
                    args[pos] = fresh
        if t.kind is Kind.ITE and not t.sort.is_bool:
            cond, then_term, else_term = args
            fresh = flat[t] = m.fresh_const(t.sort)
            definitions[fresh] = t
            guards += (m.mk_implies(cond, m.mk_eq(fresh, then_term)),
                       m.mk_implies(m.mk_not(cond),
                                    m.mk_eq(fresh, else_term)))
        elif all(map(is_, args, t.args)):
            flat[t] = t
        else:
            flat[t] = m.mk_term(t.kind, args, sort=t.sort, n=t.n)
    return FlatResult([flat[a] for a in assertions] + guards, definitions)
