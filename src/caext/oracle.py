"""Brute-force semantic oracle.

The oracle decides satisfiability of desk-sized problems by exhaustive
enumeration of all interpretations: every scalar constant ranges over
its finite domain and every array constant over all
``|element| ** |index|`` tables.  It exists to cross-check the lemma
engine, so it shares no search code with it.

All interpretations are evaluated at once with numpy broadcasting, one
grid axis per scalar constant or array cell.  The reported model is
the *first* satisfying interpretation in enumeration order: constants
sorted by name, later constants varying fastest, array cells
enumerated from index 0 (most significant) up.  The grid holds dense
tables; ``_Grid.model_at`` makes each one an
:class:`caext.model.ArrayValue` as it builds the reported model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BoundsExceeded
from .model import ArrayValue, Model
from .terms import Kind, Sort, Term, domain_size, postorder

# The integer type of every axis and literal value; it holds every value
# of a bit-vector sort up to 63 bits wide.
_DTYPE = np.int64


# The most interpretations the oracle enumerates.
MAX_INTERPRETATIONS = 10_000_000


@dataclass
class OracleResult:
    verdict: str                  # "sat" or "unsat"
    model: Optional[Model] = None
    interpretations: int = 0      # size of the enumerated space


@dataclass
class ValidityResult:
    ok: bool
    counterexample: Optional[Model] = None

    def __bool__(self) -> bool:
        return self.ok


def _collect(assertions: Sequence[Term]) -> tuple[list[Term], int, int]:
    """One walk of ``assertions``: their constants, sorted by name; the
    most cells of the sort of an array subterm that no array constant
    has (1 if there is none); and the widest bit-vector sort of a scalar
    constant, a literal, an index or an element (0 if there is none),
    which bounds every value a subterm can take."""
    consts: list[Term] = []
    array_sorts: set[Sort] = set()
    width = 0
    for t in postorder(assertions):
        if t.kind is Kind.CONSTANT:
            consts.append(t)
        if t.sort.is_array:
            array_sorts.add(t.sort)
        elif t.kind is Kind.CONSTANT or t.kind is Kind.VALUE:
            width = max(width, t.sort.width)
    consts.sort(key=lambda c: c.name)
    for sort in array_sorts:
        width = max(width, sort.index.width, sort.element.width)
    owned = {c.sort for c in consts}
    cells = max((domain_size(sort.index) for sort in array_sorts
                 if sort not in owned), default=1)
    return consts, cells, width


def _axis_sizes(sort: Sort) -> Iterable[int]:
    """The size of each grid axis of a constant of ``sort``: one axis
    for a scalar sort, one per cell for an array sort."""
    if sort.is_array:
        elem = domain_size(sort.element)
        return (elem for _ in range(domain_size(sort.index)))
    return (domain_size(sort),)


def _count(constants: list[Term]) -> int:
    """The number of interpretations of ``constants``, or
    ``MAX_INTERPRETATIONS + 1`` once a partial product of axis sizes
    passes the ceiling: it never builds the ``|element| ** |index|`` of
    a wide array sort."""
    total = 1
    for c in constants:
        for size in _axis_sizes(c.sort):
            total *= size
            if total > MAX_INTERPRETATIONS:
                return MAX_INTERPRETATIONS + 1
    return total


def interpretation_count(assertions: Sequence[Term]) -> int:
    """The number of interpretations the oracle would enumerate, or
    ``MAX_INTERPRETATIONS + 1`` if it is larger."""
    return _count(_collect(assertions)[0])


def _bounded_constants(assertions: Sequence[Term]) -> list[Term]:
    """The constants of ``assertions``, sorted by name; raises
    :class:`BoundsExceeded` past the ceiling or past 64-bit values."""
    constants, cells, width = _collect(assertions)
    # An array term holds one grid-sized value per cell.  The grid's axes
    # count the cells of an array constant's sort, not those of a sort
    # that no array constant has.
    if _count(constants) * cells > MAX_INTERPRETATIONS:
        raise BoundsExceeded(
            "the interpretations, times the cells of an array sort that "
            "no array constant has, exceed the ceiling of "
            f"{MAX_INTERPRETATIONS}")
    if width > 63:
        raise BoundsExceeded(
            f"{width}-bit values exceed the oracle's 64-bit integers")
    return constants


# ---------------------------------------------------------------------------
# Grid layout


class _Grid:
    """Maps constants to enumeration axes.

    Scalar constants own one axis; an array constant owns one axis per
    table cell.  Axis order follows the order of ``constants``, sorted
    by name, so a flat C-order index enumerates interpretations in the
    documented order.
    """

    def __init__(self, constants: list[Term]):
        self.axes: list[int] = []          # domain size per axis
        self.scalar_axis: dict[Term, int] = {}
        self.array_axes: dict[Term, list[int]] = {}
        for c in constants:
            first = len(self.axes)
            self.axes.extend(_axis_sizes(c.sort))
            if c.sort.is_array:
                self.array_axes[c] = list(range(first, len(self.axes)))
            else:
                self.scalar_axis[c] = first

    @property
    def total(self) -> int:
        return math.prod(self.axes)

    def model_at(self, flat_index: int) -> Model:
        """Decode the interpretation at a flat C-order grid position."""
        coords: list[int] = []
        rem = flat_index
        for size in reversed(self.axes):
            coords.append(rem % size)
            rem //= size
        coords.reverse()
        model = Model()
        for c, axis in self.scalar_axis.items():
            model.set(c, coords[axis])
        for c, axes in self.array_axes.items():
            model.set(c, ArrayValue.from_table([coords[a] for a in axes]))
        return model


# ---------------------------------------------------------------------------
# Vectorized engine


class _VectorEval:
    """Evaluates terms over the whole interpretation grid at once.

    Scalar-sorted terms evaluate to broadcastable arrays: ``_DTYPE``
    for bit-vectors, and numpy bool or 0/1 ``_DTYPE`` for Booleans;
    array-sorted terms evaluate to a list of per-cell arrays.
    """

    def __init__(self, grid: _Grid):
        self.grid = grid
        self.rank = len(grid.axes)
        self.cache: dict[Term, object] = {}

    def _axis_values(self, axis: int) -> np.ndarray:
        size = self.grid.axes[axis]
        shape = [1] * self.rank
        shape[axis] = size
        return np.arange(size, dtype=_DTYPE).reshape(shape)

    def eval(self, t: Term):
        """The value of ``t``, after caching that of each subterm."""
        cache = self.cache
        for x in postorder((t,), cache):
            cache[x] = self._value(x, [cache[a] for a in x.args])
        return cache[t]

    def _value(self, t: Term, ops: list):
        """The value of ``t`` from the values ``ops`` of its operands."""
        k = t.kind
        if k is Kind.CONSTANT:
            if t.sort.is_array:
                return [self._axis_values(a) for a in self.grid.array_axes[t]]
            return self._axis_values(self.grid.scalar_axis[t])
        if k is Kind.VALUE:
            return _DTYPE(t.value)
        if k is Kind.SELECT:
            table, idx = ops
            acc = table[0]
            for cell in range(1, len(table)):
                acc = np.where(idx == cell, table[cell], acc)
            return acc
        if k is Kind.STORE:
            table, idx, val = ops
            return [np.where(idx == cell, val, old)
                    for cell, old in enumerate(table)]
        if k is Kind.CONST_ARRAY:
            return ops * domain_size(t.sort.index)
        if k is Kind.EQ:
            left, right = ops
            if not t.args[0].sort.is_array:
                return left == right
            return reduce(np.logical_and,
                          (lc == rc for lc, rc in zip(left, right)))
        if k is Kind.NOT:
            return np.logical_not(ops[0])
        if k is Kind.AND:
            return reduce(np.logical_and, ops)
        if k is Kind.OR:
            return reduce(np.logical_or, ops)
        if k is Kind.IMPLIES:
            return np.logical_or(np.logical_not(ops[0]), ops[1])
        if k is Kind.ITE:
            cond, then, els = ops
            if not t.sort.is_array:
                return np.where(cond, then, els)
            return [np.where(cond, a, b) for a, b in zip(then, els)]
        if k is Kind.DISTINCT_N:
            # the number of operands that differ from every earlier one
            count = 0
            for p, vp in enumerate(ops):
                count = count + reduce(np.logical_and,
                                       (vp != vq for vq in ops[:p]), True)
            return count >= t.n
        raise AssertionError(f"unhandled kind {k}")  # pragma: no cover


def _vector_truth(assertions: Sequence[Term], grid: _Grid) -> np.ndarray:
    """The conjunction of ``assertions`` at every grid position, flat in
    C order."""
    ev = _VectorEval(grid)
    acc = reduce(np.logical_and, map(ev.eval, assertions), True)
    return np.broadcast_to(acc, tuple(grid.axes)).reshape(-1)


# ---------------------------------------------------------------------------
# Public entry points


def oracle_solve(assertions: Sequence[Term]) -> OracleResult:
    """Decide ``assertions`` by exhaustive enumeration.

    Returns the first satisfying interpretation in enumeration order,
    or an unsat verdict after exhausting the space; raises
    :class:`BoundsExceeded` past ``MAX_INTERPRETATIONS`` interpretations
    or past 64-bit values.
    """
    grid = _Grid(_bounded_constants(assertions))
    hits = np.flatnonzero(_vector_truth(assertions, grid))
    if hits.size == 0:
        return OracleResult("unsat", interpretations=grid.total)
    return OracleResult("sat", grid.model_at(int(hits[0])), grid.total)


def oracle_valid(formulas: Sequence[Term] | Term) -> ValidityResult:
    """Check that a formula (or conjunction) holds in *every*
    interpretation; otherwise return the first counterexample."""
    if isinstance(formulas, Term):
        formulas = [formulas]
    grid = _Grid(_bounded_constants(formulas))
    misses = np.flatnonzero(_vector_truth(formulas, grid) == 0)
    if misses.size == 0:
        return ValidityResult(True)
    return ValidityResult(False, grid.model_at(int(misses[0])))
