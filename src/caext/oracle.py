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
tables; a reported model converts them to
:class:`caext.model.ArrayValue` as it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BoundsExceeded
from .model import Model
from .terms import Kind, Term, domain_size, free_constants, iter_subterms


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


def _split_constants(assertions: Sequence[Term]) -> tuple[list[Term], list[Term]]:
    consts = sorted(free_constants(assertions), key=lambda c: c.name or "")
    scalars = [c for c in consts if not c.sort.is_array]
    arrays = [c for c in consts if c.sort.is_array]
    return scalars, arrays


def interpretation_count(assertions: Sequence[Term]) -> int:
    """Total number of interpretations the oracle would enumerate."""
    scalars, arrays = _split_constants(assertions)
    count = 1
    for c in scalars:
        count *= domain_size(c.sort)
    for c in arrays:
        count *= domain_size(c.sort)
    return count


def check_bounds(assertions: Sequence[Term],
                 bounds: OracleBounds = DEFAULT_BOUNDS) -> None:
    """Raise :class:`BoundsExceeded` if the problem is too large to
    enumerate under ``bounds``."""
    scalars, arrays = _split_constants(assertions)
    if len(scalars) > bounds.max_free_constants:
        raise BoundsExceeded(
            f"{len(scalars)} scalar constants exceed the limit of "
            f"{bounds.max_free_constants}")
    if len(arrays) > bounds.max_array_constants:
        raise BoundsExceeded(
            f"{len(arrays)} array constants exceed the limit of "
            f"{bounds.max_array_constants}")
    for t in iter_subterms(assertions):
        sort = t.sort
        if sort.is_array:
            if domain_size(sort.index) > bounds.max_index_domain:
                raise BoundsExceeded(
                    f"index sort {sort.index!r} exceeds the domain limit of "
                    f"{bounds.max_index_domain}")
            if domain_size(sort.element) > bounds.max_element_domain:
                raise BoundsExceeded(
                    f"element sort {sort.element!r} exceeds the domain limit "
                    f"of {bounds.max_element_domain}")
    total = interpretation_count(assertions)
    if total > bounds.max_interpretations:
        raise BoundsExceeded(
            f"{total} interpretations exceed the ceiling of "
            f"{bounds.max_interpretations}")


# ---------------------------------------------------------------------------
# Grid layout


class _Grid:
    """Maps constants to enumeration axes.

    Scalar constants own one axis; an array constant owns one axis per
    table cell.  Axis order follows the name-sorted constant order, so a
    flat C-order index enumerates interpretations in the documented
    order.
    """

    def __init__(self, assertions: Sequence[Term]):
        self.scalars, self.arrays = _split_constants(assertions)
        self.axes: list[int] = []          # domain size per axis
        self.scalar_axis: dict[Term, int] = {}
        self.array_axes: dict[Term, list[int]] = {}
        order = sorted(self.scalars + self.arrays, key=lambda c: c.name or "")
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
        return math.prod(self.axes) if self.axes else 1

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
            model.set(c, tuple(coords[a] for a in axes))
        return model


# ---------------------------------------------------------------------------
# Vectorized engine


class _VectorEval:
    """Evaluates terms over the whole interpretation grid at once.

    Scalar-sorted terms evaluate to broadcastable int16 arrays (Bool as
    0/1); array-sorted terms evaluate to a list of per-cell arrays.
    """

    def __init__(self, grid: _Grid):
        self.grid = grid
        self.rank = len(grid.axes)
        self.cache: dict[Term, object] = {}

    def _axis_values(self, axis: int) -> np.ndarray:
        size = self.grid.axes[axis]
        shape = [1] * self.rank
        shape[axis] = size
        return np.arange(size, dtype=np.int16).reshape(shape)

    def scalar(self, t: Term) -> np.ndarray:
        v = self.eval(t)
        assert not isinstance(v, list)
        return v  # type: ignore[return-value]

    def cells(self, t: Term) -> list:
        v = self.eval(t)
        assert isinstance(v, list)
        return v

    def eval(self, t: Term):
        hit = self.cache.get(t)
        if hit is not None:
            return hit
        k = t.kind
        if k is Kind.CONSTANT:
            if t.sort.is_array:
                v = [self._axis_values(a) for a in self.grid.array_axes[t]]
            else:
                v = self._axis_values(self.grid.scalar_axis[t])
        elif k is Kind.VALUE:
            v = np.int16(t.value)
        elif k is Kind.SELECT:
            table, idx = self.cells(t.array), self.scalar(t.index)
            acc = np.broadcast_arrays(table[0], idx)[0].copy()
            for cell, cell_vals in enumerate(table):
                acc = np.where(idx == cell, cell_vals, acc)
            v = acc.astype(np.int16)
        elif k is Kind.STORE:
            table, idx = self.cells(t.array), self.scalar(t.index)
            val = self.scalar(t.stored_value)
            v = [np.where(idx == cell, val, old).astype(np.int16)
                 for cell, old in enumerate(table)]
        elif k is Kind.CONST_ARRAY:
            d = self.scalar(t.default)
            v = [d] * domain_size(t.sort.index)
        elif k is Kind.EQ:
            left, right = t.args
            if left.sort.is_array:
                acc = np.int16(1)
                for lc, rc in zip(self.cells(left), self.cells(right)):
                    acc = acc & (lc == rc)
                v = acc.astype(np.int16) if isinstance(acc, np.ndarray) else acc
            else:
                v = (self.scalar(left) == self.scalar(right)).astype(np.int16)
        elif k is Kind.NOT:
            v = np.int16(1) - self.scalar(t.args[0])
        elif k is Kind.AND:
            acc = self.scalar(t.args[0])
            for a in t.args[1:]:
                acc = acc & self.scalar(a)
            v = acc
        elif k is Kind.OR:
            acc = self.scalar(t.args[0])
            for a in t.args[1:]:
                acc = acc | self.scalar(a)
            v = acc
        elif k is Kind.IMPLIES:
            v = (np.int16(1) - self.scalar(t.args[0])) | self.scalar(t.args[1])
        elif k is Kind.ITE:
            cond = self.scalar(t.args[0])
            v = np.where(cond != 0, self.eval(t.args[1]), self.eval(t.args[2])) \
                if not t.sort.is_array else [
                    np.where(cond != 0, a, b).astype(np.int16)
                    for a, b in zip(self.cells(t.args[1]), self.cells(t.args[2]))]
            if not t.sort.is_array:
                v = v.astype(np.int16)
        elif k is Kind.DISTINCT_N:
            vals = [self.scalar(a) for a in t.args]
            count = np.int16(0)
            for p, vp in enumerate(vals):
                first = np.int16(1)
                for q in range(p):
                    first = first & (vp != vals[q])
                count = count + (first.astype(np.int16)
                                 if isinstance(first, np.ndarray) else first)
            v = (count >= (t.n or 1)).astype(np.int16) \
                if isinstance(count, np.ndarray) else np.int16(count >= (t.n or 1))
        else:  # pragma: no cover
            raise AssertionError(f"unhandled kind {k}")
        self.cache[t] = v
        return v


def _vector_truth(assertions: Sequence[Term], grid: _Grid) -> np.ndarray:
    """The conjunction of ``assertions`` at every grid position, flat in
    C order."""
    ev = _VectorEval(grid)
    acc = np.int16(1)
    for a in assertions:
        acc = acc & ev.scalar(a)
    shape = tuple(grid.axes) if grid.axes else ()
    return np.broadcast_to(acc, shape).reshape(-1)


# ---------------------------------------------------------------------------
# Public entry points


def oracle_solve(assertions: Sequence[Term],
                 bounds: OracleBounds = DEFAULT_BOUNDS) -> OracleResult:
    """Decide ``assertions`` by exhaustive enumeration.

    Returns the first satisfying interpretation in enumeration order,
    or an unsat verdict after exhausting the space.
    """
    check_bounds(assertions, bounds)
    grid = _Grid(assertions)
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
    check_bounds(formulas, bounds)
    grid = _Grid(formulas)
    misses = np.flatnonzero(_vector_truth(formulas, grid) == 0)
    if misses.size == 0:
        return ValidityResult(True)
    return ValidityResult(False, grid.model_at(int(misses[0])))
