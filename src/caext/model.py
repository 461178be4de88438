"""Models, term evaluation, and model validation.

A model assigns every uninterpreted constant a concrete value:

* scalar constants map to an ``int`` (Bool uses 0/1, bit-vectors use
  their unsigned bit pattern);
* array constants map to an :class:`ArrayValue`: a default element,
  the indices whose element differs from it, and the size of the index
  domain.  Its cost follows the number of exceptions, not the domain
  size, so a 32-bit index sort is no harder than a 2-bit one.
  ``v[i]`` reads one index of ``range(v.size)``, ``tuple(v)`` gives
  the dense table, and ``==`` and ``hash`` use the canonical sparse
  form.  A dense table becomes an array value by
  :meth:`ArrayValue.from_table`, before it is given to a model.

:func:`eval_term` implements the standard semantics, including
extensional array equality (two arrays are equal iff their tables
agree on every index), which on array values is a comparison of
canonical forms.  It reads every constant of the term, even one that
an and, or, implies or ite does not need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import UnassignedConstant
from .terms import Kind, Sort, Term, domain_size, free_constants, postorder


class ArrayValue:
    """An array table as ``(default, exceptions, size)``.

    ``exceptions`` maps each index whose element differs from
    ``default`` to that element, in increasing index order; every other
    index of ``range(size)`` holds ``default``.  The form is canonical:
    ``default`` is the most frequent element, the smallest on ties, so
    two values are equal iff their three fields are.  Treat the fields
    as read-only; :meth:`store` returns a new value.
    """

    __slots__ = ("default", "exceptions", "size")

    def __init__(self, default: int, exceptions: Mapping[int, int],
                 size: int):
        exc = {i: v for i, v in sorted(exceptions.items()) if v != default}
        if exc and not (0 <= next(iter(exc)) and next(reversed(exc)) < size):
            raise IndexError(f"array index out of range 0..{size - 1}")
        if 2 * len(exc) >= size:
            # Only then can another element outnumber the default.
            counts: dict[int, int] = {}
            for v in exc.values():
                counts[v] = counts.get(v, 0) + 1
            best, most = default, size - len(exc)
            for v, n in counts.items():
                if n > most or (n == most and v < best):
                    best, most = v, n
            if best != default:
                exc = {i: v for i in range(size)
                       if (v := exc.get(i, default)) != best}
                default = best
        self.default = default
        self.exceptions = exc
        self.size = size

    @classmethod
    def from_table(cls, table: Sequence[int]) -> "ArrayValue":
        """The array value of a dense table (index ``k`` holds
        ``table[k]``)."""
        return cls(0, dict(enumerate(table)), len(table))

    @classmethod
    def _canonical(cls, default: int, exceptions: dict[int, int],
                   size: int) -> "ArrayValue":
        """A value from fields already in canonical form."""
        value = object.__new__(cls)
        value.default, value.exceptions, value.size = \
            default, exceptions, size
        return value

    def store(self, index: int, element: int) -> "ArrayValue":
        """This table with ``index`` updated to ``element``."""
        if self[index] == element:
            return self
        exc = dict(self.exceptions)
        if element == self.default:
            # One exception fewer keeps the default the most frequent.
            del exc[index]
            return ArrayValue._canonical(self.default, exc, self.size)
        exc[index] = element
        return ArrayValue(self.default, exc, self.size)

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise IndexError(f"array index {index} out of range "
                             f"0..{self.size - 1}")
        return self.exceptions.get(index, self.default)

    def __iter__(self) -> Iterator[int]:
        exc, default = self.exceptions, self.default
        return (exc.get(k, default) for k in range(self.size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArrayValue):
            return NotImplemented
        return (self.size == other.size and self.default == other.default
                and self.exceptions == other.exceptions)

    def __hash__(self) -> int:
        return hash((self.default, tuple(self.exceptions.items()), self.size))

    def __repr__(self) -> str:
        return (f"ArrayValue(default={self.default}, "
                f"exceptions={self.exceptions}, size={self.size})")


Value = Union[int, ArrayValue]


def zero_value(sort: Sort) -> Value:
    """The all-zero value of a sort: 0, or the constant-zero table."""
    if sort.is_array:
        return ArrayValue._canonical(0, {}, domain_size(sort.index))
    return 0


@dataclass
class Model:
    """A finite assignment of constants to values: an ``int`` for a
    scalar constant, an :class:`ArrayValue` for an array constant."""

    values: dict[Term, Value] = field(default_factory=dict)

    def __getitem__(self, const: Term) -> Value:
        try:
            return self.values[const]
        except KeyError:
            raise UnassignedConstant(
                f"model does not assign constant {const!r}") from None

    def __contains__(self, const: Term) -> bool:
        return const in self.values

    def set(self, const: Term, value: Value) -> None:
        self.values[const] = value

    def items(self):
        return self.values.items()


def _combine(t: Term, cache: dict) -> Value:
    """The value of an application ``t`` from the cached values of its
    operands."""
    k = t.kind
    args = t.args
    if k is Kind.SELECT:
        return cache[args[0]][cache[args[1]]]
    if k is Kind.STORE:
        return cache[args[0]].store(cache[args[1]], cache[args[2]])
    if k is Kind.CONST_ARRAY:
        return ArrayValue._canonical(cache[args[0]], {},
                                     domain_size(t.sort.index))
    if k is Kind.EQ:
        return int(cache[args[0]] == cache[args[1]])
    if k is Kind.NOT:
        return 1 - cache[args[0]]
    if k is Kind.AND:
        return int(all(cache[a] for a in args))
    if k is Kind.OR:
        return int(any(cache[a] for a in args))
    if k is Kind.IMPLIES:
        return int(bool(cache[args[1]]) or not cache[args[0]])
    if k is Kind.ITE:
        return cache[args[1]] if cache[args[0]] else cache[args[2]]
    if k is Kind.DISTINCT_N:
        return int(len({cache[a] for a in args}) >= t.n)
    raise AssertionError(f"unhandled kind {k}")  # pragma: no cover


def eval_term(model: Model, term: Term,
              _cache: Optional[dict] = None) -> Value:
    """Evaluate ``term`` under ``model``.

    Returns an ``int`` for scalar-sorted terms and an
    :class:`ArrayValue` for array-sorted terms.  Every operand is read,
    so :class:`UnassignedConstant` is raised when the model is silent
    about any constant of ``term``.  The walk keeps an explicit stack,
    so nesting depth is bounded by memory, not by Python's recursion
    limit; ``_cache`` maps every term evaluated so far to its value and
    may be shared between calls under one model.  The walk does not
    enter a term already in ``_cache``: its cached value stands.
    """
    cache: dict[Term, Value] = {} if _cache is None else _cache
    for t in postorder((term,), cache):
        if t.kind is Kind.CONSTANT:
            cache[t] = model[t]
        elif t.kind is Kind.VALUE:
            cache[t] = t.value
        else:
            cache[t] = _combine(t, cache)
    return cache[term]


@dataclass
class ValidationResult:
    """Outcome of checking a model against a list of assertions."""

    ok: bool
    failing_assertion: Optional[Term] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_model(model: Model, assertions: Iterable[Term]) -> ValidationResult:
    """Check that every assertion evaluates to true under ``model``.

    Returns the first failing assertion, if any.
    """
    cache: dict = {}
    for a in assertions:
        if not eval_term(model, a, cache):
            return ValidationResult(False, a)
    return ValidationResult(True)


def complete_model(model: Model, assertions: Iterable[Term]) -> Model:
    """Extend ``model`` with all-zero values for any constant of
    ``assertions`` it does not assign."""
    for c in free_constants(assertions):
        if c not in model:
            model.set(c, zero_value(c.sort))
    return model
