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
from typing import Optional, Sequence

import numpy as np

from .errors import BoundsExceeded
from .model import ArrayValue, Model
from .terms import Kind, Sort, Term, domain_size, postorder

# The integer type of every axis and literal value; it holds every value
# of a bit-vector sort up to 63 bits wide.
_DTYPE = np.int64


@dataclass(frozen=True)
class OracleBounds:
    """Size limits for exhaustive enumeration."""

    max_index_domain: int = 4
    max_element_domain: int = 4
    max_free_constants: int = 6
    max_array_constants: int = 3
    max_interpretations: int = 10_000_000


DEFAULT_BOUNDS = OracleBounds()


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


def _collect(assertions: Sequence[Term],
             ) -> tuple[list[Term], list[Term], list[Sort], int]:
    """One walk of ``assertions``: their scalar and their array constants,
    each sorted by name, the array sorts of their subterms in first-seen
    order, and the widest bit-vector sort of a scalar constant, a
    literal, an index or an element (0 if there is none), which bounds
    every value a subterm can take."""
    consts: list[Term] = []
    array_sorts: dict[Sort, None] = {}
    width = 0
    for t in postorder(assertions):
        if t.kind is Kind.CONSTANT:
            consts.append(t)
        elif t.kind is Kind.VALUE:
            width = max(width, t.sort.width)
        if t.sort.is_array:
            array_sorts[t.sort] = None
    consts.sort(key=lambda c: c.name)
    scalars = [c for c in consts if not c.sort.is_array]
    arrays = [c for c in consts if c.sort.is_array]
    for c in scalars:
        width = max(width, c.sort.width)
    for sort in array_sorts:
        width = max(width, sort.index.width, sort.element.width)
    return scalars, arrays, list(array_sorts), width


def _count(constants: list[Term]) -> int:
    return math.prod(domain_size(c.sort) for c in constants)


def interpretation_count(assertions: Sequence[Term]) -> int:
    """Total number of interpretations the oracle would enumerate."""
    scalars, arrays, _, _ = _collect(assertions)
    return _count(scalars + arrays)


def _bounded_constants(assertions: Sequence[Term], bounds: OracleBounds
                       ) -> tuple[list[Term], list[Term]]:
    """The scalar and the array constants of ``assertions``, each sorted
    by name; raises :class:`BoundsExceeded` as `check_bounds` does."""
    scalars, arrays, array_sorts, width = _collect(assertions)
    if len(scalars) > bounds.max_free_constants:
        raise BoundsExceeded(
            f"{len(scalars)} scalar constants exceed the limit of "
            f"{bounds.max_free_constants}")
    if len(arrays) > bounds.max_array_constants:
        raise BoundsExceeded(
            f"{len(arrays)} array constants exceed the limit of "
            f"{bounds.max_array_constants}")
    for sort in array_sorts:
        if domain_size(sort.index) > bounds.max_index_domain:
            raise BoundsExceeded(
                f"index sort {sort.index!r} exceeds the domain limit of "
                f"{bounds.max_index_domain}")
        if domain_size(sort.element) > bounds.max_element_domain:
            raise BoundsExceeded(
                f"element sort {sort.element!r} exceeds the domain limit "
                f"of {bounds.max_element_domain}")
    total = _count(scalars + arrays)
    if total > bounds.max_interpretations:
        raise BoundsExceeded(
            f"{total} interpretations exceed the ceiling of "
            f"{bounds.max_interpretations}")
    if width > 63:
        raise BoundsExceeded(
            f"{width}-bit values exceed the oracle's 64-bit integers")
    return scalars, arrays


def check_bounds(assertions: Sequence[Term],
                 bounds: OracleBounds = DEFAULT_BOUNDS) -> None:
    """Raise :class:`BoundsExceeded` if the problem is too large to
    enumerate under ``bounds``."""
    _bounded_constants(assertions, bounds)


# ---------------------------------------------------------------------------
# Grid layout


class _Grid:
    """Maps constants to enumeration axes.

    Scalar constants own one axis; an array constant owns one axis per
    table cell.  Axis order follows the name-sorted constant order, so a
    flat C-order index enumerates interpretations in the documented
    order.
    """

    def __init__(self, scalars: list[Term], arrays: list[Term]):
        self.scalars, self.arrays = scalars, arrays
        self.axes: list[int] = []          # domain size per axis
        self.scalar_axis: dict[Term, int] = {}
        self.array_axes: dict[Term, list[int]] = {}
        order = sorted(self.scalars + self.arrays, key=lambda c: c.name)
        for c in order:
            if c.sort.is_array:
                cells = domain_size(c.sort.index)
                elem = domain_size(c.sort.element)
                self.array_axes[c] = [self._add_axis(elem) for _ in range(cells)]
            else:
                self.scalar_axis[c] = self._add_axis(domain_size(c.sort))

    def _add_axis(self, size: int) -> int:
        self.axes.append(size)
        return len(self.axes) - 1

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


def oracle_solve(assertions: Sequence[Term],
                 bounds: OracleBounds = DEFAULT_BOUNDS) -> OracleResult:
    """Decide ``assertions`` by exhaustive enumeration.

    Returns the first satisfying interpretation in enumeration order,
    or an unsat verdict after exhausting the space.
    """
    grid = _Grid(*_bounded_constants(assertions, bounds))
    hits = np.flatnonzero(_vector_truth(assertions, grid))
    if hits.size == 0:
        return OracleResult("unsat", interpretations=grid.total)
    return OracleResult("sat", grid.model_at(int(hits[0])), grid.total)


def oracle_valid(formulas: Sequence[Term] | Term,
                 bounds: OracleBounds = DEFAULT_BOUNDS) -> ValidityResult:
    """Check that a formula (or conjunction) holds in *every*
    interpretation; otherwise return the first counterexample."""
    if isinstance(formulas, Term):
        formulas = [formulas]
    grid = _Grid(*_bounded_constants(formulas, bounds))
    misses = np.flatnonzero(_vector_truth(formulas, grid) == 0)
    if misses.size == 0:
        return ValidityResult(True)
    return ValidityResult(False, grid.model_at(int(misses[0])))
