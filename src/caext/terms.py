"""Sorts and hash-consed terms.

Terms are immutable DAG nodes interned by a :class:`TermManager`:
building the same term twice yields the same Python object, so
structural equality is identity and terms can be used freely as
dictionary keys.  Every term carries its sort; constructors check
sorts eagerly and raise :class:`~caext.errors.SortMismatch` naming the
sorts that do not fit.

Bool is a sort of its own and is *not* identified with a 1-bit
bit-vector.
"""

from __future__ import annotations

from enum import Enum, auto
from operator import is_
from typing import Container, Iterable, Optional, Sequence

from .errors import CaextError, SortMismatch

# The widest bit-vector sort.  The ground layer gives every bit of every
# scalar term its own SAT variable and clauses, so the limit bounds the
# encoding that one declaration or literal can ask for.
MAX_BV_WIDTH = 4096


def parse_width(digits: str) -> int:
    """The width that the decimal ``digits`` spell, except that every
    width past ``MAX_BV_WIDTH`` reads as ``MAX_BV_WIDTH + 1``: int()
    refuses strings of thousands of digits."""
    digits = digits.lstrip("0")
    if len(digits) > len(str(MAX_BV_WIDTH)):
        return MAX_BV_WIDTH + 1
    return int(digits or "0")


class SortKind(Enum):
    BOOL = auto()
    BITVEC = auto()
    ARRAY = auto()

    # Members are singletons, so identity is equality; object's hash
    # skips the Python-level ``Enum.__hash__`` on every interning key.
    __hash__ = object.__hash__


class Sort:
    """An interned sort: Bool, BitVec(w), or Array(index, element)."""

    __slots__ = ("kind", "width", "index", "element",
                 "is_bool", "is_array", "is_scalar")

    def __init__(self, kind: SortKind, width: int = 0,
                 index: Optional["Sort"] = None,
                 element: Optional["Sort"] = None):
        self.kind = kind
        self.width = width
        self.index = index
        self.element = element
        self.is_bool = kind is SortKind.BOOL
        self.is_array = kind is SortKind.ARRAY
        self.is_scalar = not self.is_array

    def __repr__(self) -> str:
        if self.kind is SortKind.BOOL:
            return "Bool"
        if self.kind is SortKind.BITVEC:
            return f"(_ BitVec {self.width})"
        return f"(Array {self.index!r} {self.element!r})"


def domain_size(sort: Sort) -> int:
    """Number of distinct values of ``sort``.

    Bool has 2, BitVec(w) has 2**w, and an array sort has
    ``|element| ** |index|`` total functions.
    """
    if sort.kind is SortKind.BOOL:
        return 2
    if sort.kind is SortKind.BITVEC:
        return 2 ** sort.width
    assert sort.index is not None and sort.element is not None
    return domain_size(sort.element) ** domain_size(sort.index)


class Kind(Enum):
    CONSTANT = auto()      # uninterpreted constant (free variable)
    VALUE = auto()         # scalar literal: Bool or bit-vector pattern
    SELECT = auto()        # read array at index
    STORE = auto()         # update array at index
    CONST_ARRAY = auto()   # array mapping every index to one default
    EQ = auto()
    NOT = auto()
    AND = auto()
    OR = auto()
    IMPLIES = auto()
    ITE = auto()
    DISTINCT_N = auto()    # true iff at least n argument values are pairwise different

    __hash__ = object.__hash__  # as for SortKind


class Term:
    """A hash-consed term node.

    Instances are created only through a :class:`TermManager`.  ``id``
    is the manager-local creation index and gives a deterministic total
    order over terms of one manager.
    """

    __slots__ = ("id", "kind", "sort", "args", "name", "value", "n")

    def __init__(self, tid: int, kind: Kind, sort: Sort,
                 args: tuple["Term", ...] = (),
                 name: Optional[str] = None,
                 value: Optional[int] = None,
                 n: Optional[int] = None):
        self.id = tid
        self.kind = kind
        self.sort = sort
        self.args = args
        self.name = name
        self.value = value
        self.n = n

    # Array accessors, valid for SELECT/STORE nodes.
    @property
    def array(self) -> "Term":
        return self.args[0]

    @property
    def index(self) -> "Term":
        return self.args[1]

    @property
    def stored_value(self) -> "Term":
        return self.args[2]

    @property
    def default(self) -> "Term":
        """Default value of a CONST_ARRAY node."""
        return self.args[0]

    def __repr__(self) -> str:
        return _render(self)


_HEADS = {
    Kind.SELECT: "select", Kind.STORE: "store", Kind.EQ: "=",
    Kind.NOT: "not", Kind.AND: "and", Kind.OR: "or",
    Kind.IMPLIES: "=>", Kind.ITE: "ite",
}


def _render(t: Term) -> str:
    """The SMT-LIB text of ``t``.  The walk keeps an explicit stack of
    terms still to print and the closing text between them, so nesting
    depth is bounded by memory, not by Python's recursion limit."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
            continue
        k = x.kind
        if k is Kind.CONSTANT:
            out.append(x.name)
        elif k is Kind.VALUE:
            if x.sort.is_bool:
                out.append("true" if x.value else "false")
            else:
                out.append("#b" + format(x.value, f"0{x.sort.width}b"))
        elif k is Kind.CONST_ARRAY:
            out.append(f"((as const {x.sort!r}) ")
            stack += (")", x.args[0])
        else:
            head = f"distinct-at-least {x.n}" if k is Kind.DISTINCT_N \
                else _HEADS[k]
            out.append(f"({head} ")
            stack.append(")")
            for pos in range(len(x.args) - 1, -1, -1):
                stack.append(x.args[pos])
                if pos:
                    stack.append(" ")
    return "".join(out)


class TermManager:
    """Creates and interns sorts and terms.

    A manager is cheap to construct; using one manager per problem keeps
    fresh-name counters and term ids deterministic for that problem.
    """

    def __init__(self) -> None:
        self._sorts: dict[tuple, Sort] = {}
        self._terms: dict[tuple, Term] = {}
        self._consts: dict[str, Term] = {}
        self._next_id = 0
        self._fresh_counter = 0
        self.bool_sort = self._intern_sort((SortKind.BOOL,))
        self.true_term = self.mk_value(self.bool_sort, 1)
        self.false_term = self.mk_value(self.bool_sort, 0)

    # ------------------------------------------------------------------
    # Sorts

    def _intern_sort(self, key: tuple) -> Sort:
        sort = self._sorts.get(key)
        if sort is None:
            if key[0] is SortKind.BOOL:
                sort = Sort(SortKind.BOOL)
            elif key[0] is SortKind.BITVEC:
                sort = Sort(SortKind.BITVEC, width=key[1])
            else:
                sort = Sort(SortKind.ARRAY, index=key[1], element=key[2])
            self._sorts[key] = sort
        return sort

    def bv_sort(self, width: int) -> Sort:
        if width < 1:
            raise CaextError(f"bit-vector width must be positive, got {width}")
        if width > MAX_BV_WIDTH:
            raise CaextError(
                f"bit-vector width exceeds the limit of {MAX_BV_WIDTH}")
        return self._intern_sort((SortKind.BITVEC, width))

    def array_sort(self, index: Sort, element: Sort) -> Sort:
        if index.is_array or element.is_array:
            raise SortMismatch("array index and element sorts must be scalar")
        return self._intern_sort((SortKind.ARRAY, index, element))

    # ------------------------------------------------------------------
    # Term interning

    def _intern(self, key: tuple, build) -> Term:
        term = self._terms.get(key)
        if term is None:
            term = build(self._next_id)
            self._next_id += 1
            self._terms[key] = term
        return term

    # ------------------------------------------------------------------
    # Constants and literals

    def mk_const(self, name: str, sort: Sort) -> Term:
        """Return the uninterpreted constant ``name``; idempotent.

        Reusing a name with a different sort is an error.
        """
        existing = self._consts.get(name)
        if existing is not None:
            if existing.sort is not sort:
                raise CaextError(
                    f"constant {name!r} already exists with sort {existing.sort!r}")
            return existing
        term = Term(self._next_id, Kind.CONSTANT, sort, name=name)
        self._next_id += 1
        self._consts[name] = term
        return term

    def lookup_const(self, name: str) -> Optional[Term]:
        return self._consts.get(name)

    def fresh_const(self, sort: Sort) -> Term:
        """Create a constant with an unused ``__flat_<k>`` name."""
        while True:
            name = f"__flat_{self._fresh_counter}"
            self._fresh_counter += 1
            if name not in self._consts:
                return self.mk_const(name, sort)

    def mk_value(self, sort: Sort, value: int) -> Term:
        if sort.is_array:
            raise SortMismatch("literal values exist only for scalar sorts")
        size = domain_size(sort)
        if not 0 <= value < size:
            raise CaextError(
                f"value {value} out of range for {sort!r} (0..{size - 1})")
        return self._intern((Kind.VALUE, sort, value),
                            lambda i: Term(i, Kind.VALUE, sort, value=value))

    # ------------------------------------------------------------------
    # Array operations

    def mk_select(self, array: Term, index: Term) -> Term:
        if not array.sort.is_array:
            raise SortMismatch("select expects an array")
        if index.sort is not array.sort.index:
            raise SortMismatch(
                f"select index has sort {index.sort!r}, "
                f"expected {array.sort.index!r}")
        return self._intern(
            (Kind.SELECT, array, index),
            lambda i: Term(i, Kind.SELECT, array.sort.element, (array, index)))

    def mk_store(self, array: Term, index: Term, value: Term) -> Term:
        if not array.sort.is_array:
            raise SortMismatch("store expects an array")
        if index.sort is not array.sort.index \
                or value.sort is not array.sort.element:
            raise SortMismatch(
                "store index/value sorts do not match the array")
        return self._intern(
            (Kind.STORE, array, index, value),
            lambda i: Term(i, Kind.STORE, array.sort, (array, index, value)))

    def mk_const_array(self, sort: Sort, default: Term) -> Term:
        if not sort.is_array:
            raise SortMismatch("const-array needs an array sort")
        if default.sort is not sort.element:
            raise SortMismatch(
                f"const-array default has sort {default.sort!r}, "
                f"expected {sort.element!r}")
        return self._intern(
            (Kind.CONST_ARRAY, sort, default),
            lambda i: Term(i, Kind.CONST_ARRAY, sort, (default,)))

    # ------------------------------------------------------------------
    # Boolean structure

    def mk_eq(self, left: Term, right: Term) -> Term:
        if left.sort is not right.sort:
            raise SortMismatch(
                f"cannot equate {left.sort!r} with {right.sort!r}")
        return self._intern((Kind.EQ, left, right),
                            lambda i: Term(i, Kind.EQ, self.bool_sort,
                                           (left, right)))

    def mk_not(self, arg: Term) -> Term:
        if not arg.sort.is_bool:
            raise SortMismatch("not expects Bool")
        return self._intern((Kind.NOT, arg),
                            lambda i: Term(i, Kind.NOT, self.bool_sort, (arg,)))

    def _mk_nary(self, kind: Kind, args: Sequence[Term]) -> Term:
        args = tuple(args)
        if not args:
            raise CaextError(f"{kind.name} needs at least one argument")
        if not all(a.sort.is_bool for a in args):
            raise SortMismatch(f"{kind.name} expects Bool arguments")
        if len(args) == 1:
            return args[0]
        return self._intern((kind,) + args,
                            lambda i: Term(i, kind, self.bool_sort, args))

    def mk_and(self, args: Sequence[Term]) -> Term:
        """The conjunction of the Bool ``args``; of one, that one."""
        return self._mk_nary(Kind.AND, args)

    def mk_or(self, args: Sequence[Term]) -> Term:
        """The disjunction of the Bool ``args``; of one, that one."""
        return self._mk_nary(Kind.OR, args)

    def mk_implies(self, left: Term, right: Term) -> Term:
        return self._mk_nary(Kind.IMPLIES, (left, right))

    def mk_ite(self, cond: Term, then: Term, els: Term) -> Term:
        if not cond.sort.is_bool or then.sort is not els.sort:
            raise SortMismatch("ite expects (Bool, T, T)")
        return self._intern((Kind.ITE, cond, then, els),
                            lambda i: Term(i, Kind.ITE, then.sort,
                                           (cond, then, els)))

    def mk_distinct_n(self, n: int, args: Sequence[Term]) -> Term:
        """Atom that holds iff at least ``n`` of ``args`` take pairwise
        different values."""
        args = tuple(args)
        if n < 1:
            raise CaextError(f"distinct-at-least needs n >= 1, got {n}")
        if not args:
            raise CaextError("distinct-at-least needs at least one argument")
        sort = args[0].sort
        if sort.is_array:
            raise SortMismatch("distinct-at-least expects scalar arguments")
        if any(a.sort is not sort for a in args):
            raise SortMismatch(
                "distinct-at-least arguments must share one sort")
        return self._intern((Kind.DISTINCT_N, n) + args,
                            lambda i: Term(i, Kind.DISTINCT_N, self.bool_sort,
                                           args, n=n))

    # ------------------------------------------------------------------
    # Generic constructor

    def mk_term(self, kind: Kind, children: Sequence[Term], *,
                sort: Optional[Sort] = None, n: Optional[int] = None) -> Term:
        """Single-entry constructor for an application of ``kind``, as
        `flatten` and `substitute` rebuild one; ``sort`` is a constant
        array's and ``n`` a distinct-at-least's."""
        children = tuple(children)
        if kind is Kind.SELECT:
            return self.mk_select(*children)
        if kind is Kind.STORE:
            return self.mk_store(*children)
        if kind is Kind.CONST_ARRAY:
            assert sort is not None
            return self.mk_const_array(sort, *children)
        if kind is Kind.EQ:
            return self.mk_eq(*children)
        if kind is Kind.NOT:
            return self.mk_not(*children)
        if kind is Kind.AND:
            return self.mk_and(children)
        if kind is Kind.OR:
            return self.mk_or(children)
        if kind is Kind.IMPLIES:
            return self.mk_implies(*children)
        if kind is Kind.ITE:
            return self.mk_ite(*children)
        if kind is Kind.DISTINCT_N:
            assert n is not None
            return self.mk_distinct_n(n, children)
        raise CaextError(f"unknown term kind {kind}")


def postorder(roots: Iterable[Term],
              done: Container[Term] = ()) -> list[Term]:
    """The distinct subterms of ``roots`` not in ``done``, each once,
    children first and operands left to right, as a recursive walk
    finishes them.  The walk does not enter a term in ``done``, so a
    cache of finished terms keeps their subterms out too.  The list is
    complete when returned, so a caller may add to ``done`` as it reads
    it.  The stack is explicit: depth is bounded by memory, not by
    Python's recursion limit."""
    out: list[Term] = []
    seen: set[Term] = set()
    # Terms whose operands are being walked, each with an iterator over
    # the operands not taken yet; the roots sit at the bottom.
    stack: list = [(None, iter(roots))]
    while stack:
        t, rest = stack[-1]
        for c in rest:
            if c not in seen and c not in done:
                seen.add(c)
                if c.args:
                    stack.append((c, iter(c.args)))
                    break
                out.append(c)
        else:
            stack.pop()
            if t is not None:
                out.append(t)
    return out


def free_constants(roots: Iterable[Term]) -> list[Term]:
    """All uninterpreted constants occurring in ``roots``, in first-seen
    order."""
    return [t for t in postorder(roots) if t.kind is Kind.CONSTANT]


def substitute(manager: "TermManager", term: Term,
               mapping: "dict[Term, Term]") -> Term:
    """Rebuild ``term`` with every mapped subterm replaced by its image.

    Images are taken as they are, not rewritten in turn, and a term
    whose operands all come back unchanged is kept."""
    image = dict(mapping)
    for t in postorder((term,), mapping):
        args = [image[c] for c in t.args]
        image[t] = t if all(map(is_, args, t.args)) else \
            manager.mk_term(t.kind, args, sort=t.sort, n=t.n)
    return image[term]
