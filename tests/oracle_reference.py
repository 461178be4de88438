"""Two reference evaluators for cross-checking the brute-force oracle.

:func:`caext.oracle_solve` evaluates every interpretation at once with
numpy.  The references here walk the same grid one interpretation at a
time, in the same order, so each reports the same first model:

* the scalar engine evaluates with :func:`caext.model.eval_term`;
* the pointwise evaluator re-implements array equality by comparing
  the two sides index by index instead of comparing tables, giving an
  independent check of extensionality itself.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from caext import (ArrayValue, Kind, Model, OracleResult, Term, ValidityResult,
                   domain_size, eval_term)
from caext.oracle import DEFAULT_BOUNDS, OracleBounds, _bounded_constants, _Grid


# ---------------------------------------------------------------------------
# Scalar engine


def _interpretations(grid: _Grid):
    """Every interpretation of the grid's constants, in grid order."""
    order = sorted(grid.scalars + grid.arrays, key=lambda c: c.name or "")
    domains = [map(ArrayValue.from_table,
                   itertools.product(range(domain_size(c.sort.element)),
                                     repeat=domain_size(c.sort.index)))
               if c.sort.is_array else range(domain_size(c.sort))
               for c in order]
    for combo in itertools.product(*domains):
        yield Model(dict(zip(order, combo)))


def _holds(model: Model, assertions: Sequence[Term]) -> bool:
    cache: dict = {}
    return all(eval_term(model, a, cache) for a in assertions)


def oracle_solve_scalar(assertions: Sequence[Term],
                        bounds: OracleBounds = DEFAULT_BOUNDS) -> OracleResult:
    """:func:`caext.oracle_solve` by the scalar engine."""
    grid = _Grid(*_bounded_constants(assertions, bounds))
    for model in _interpretations(grid):
        if _holds(model, assertions):
            return OracleResult("sat", model, grid.total)
    return OracleResult("unsat", interpretations=grid.total)


def oracle_valid_scalar(formulas: Sequence[Term] | Term,
                        bounds: OracleBounds = DEFAULT_BOUNDS,
                        ) -> ValidityResult:
    """:func:`caext.oracle_valid` by the scalar engine."""
    if isinstance(formulas, Term):
        formulas = [formulas]
    grid = _Grid(*_bounded_constants(formulas, bounds))
    for model in _interpretations(grid):
        if not _holds(model, formulas):
            return ValidityResult(False, model)
    return ValidityResult(True)


# ---------------------------------------------------------------------------
# Pointwise evaluator (array equality is expanded index by index, tables
# are never compared wholesale)


def _select_at(model: Model, array_term: Term, idx: int,
               ev) -> int:
    t = array_term
    while True:
        if t.kind is Kind.CONSTANT:
            return model[t][idx]  # type: ignore[index]
        if t.kind is Kind.STORE:
            if ev(t.index) == idx:
                return ev(t.stored_value)
            t = t.array
            continue
        if t.kind is Kind.CONST_ARRAY:
            return ev(t.default)
        if t.kind is Kind.ITE:
            t = t.args[1] if ev(t.args[0]) else t.args[2]
            continue
        raise AssertionError(f"unexpected array term {t!r}")


def eval_pointwise(model: Model, term: Term) -> int:
    """Evaluate a scalar-sorted term; array equalities are checked one
    index at a time."""

    def ev(t: Term) -> int:
        k = t.kind
        if k is Kind.CONSTANT:
            v = model[t]
            assert isinstance(v, int)
            return v
        if k is Kind.VALUE:
            return t.value or 0
        if k is Kind.SELECT:
            return _select_at(model, t.array, ev(t.index), ev)
        if k is Kind.EQ:
            left, right = t.args
            if left.sort.is_array:
                dom = domain_size(left.sort.index)
                return int(all(_select_at(model, left, i, ev)
                               == _select_at(model, right, i, ev)
                               for i in range(dom)))
            return int(ev(left) == ev(right))
        if k is Kind.NOT:
            return 1 - ev(t.args[0])
        if k is Kind.AND:
            return int(all(ev(a) for a in t.args))
        if k is Kind.OR:
            return int(any(ev(a) for a in t.args))
        if k is Kind.IMPLIES:
            return int(bool(ev(t.args[1])) or not ev(t.args[0]))
        if k is Kind.ITE:
            return ev(t.args[1]) if ev(t.args[0]) else ev(t.args[2])
        if k is Kind.DISTINCT_N:
            return int(len({ev(a) for a in t.args}) >= (t.n or 1))
        raise AssertionError(f"unexpected scalar term {t!r}")

    return ev(term)


def oracle_solve_pointwise(assertions: Sequence[Term],
                           bounds: OracleBounds = DEFAULT_BOUNDS,
                           ) -> OracleResult:
    """:func:`caext.oracle_solve` by the pointwise evaluator."""
    grid = _Grid(*_bounded_constants(assertions, bounds))
    for model in _interpretations(grid):
        if all(eval_pointwise(model, a) for a in assertions):
            return OracleResult("sat", model, grid.total)
    return OracleResult("unsat", interpretations=grid.total)
