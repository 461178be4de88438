"""Reader for the SMT-LIB v2 subset this solver speaks.

Supported commands: ``set-logic`` (content ignored), ``declare-const``
(and the zero-arity ``declare-fun`` spelling), zero-arity
``define-fun`` (used by model files), ``assert``, ``check-sat`` (at
most one), ``get-model`` (only after ``check-sat``), ``exit``.

Terms: ``select``, ``store``, ``((as const (Array s t)) v)``,
chainable ``=``, ``distinct`` (expanded to pairwise disequalities),
``not``, ``and``, ``or``, ``=>``, ``ite``, ``true``/``false`` and
``#b``/``#x`` literals.  All diagnostics carry a line:column location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import CaextError, ParseError, SortError, UnknownSymbolError
from .terms import Sort, Term, TermManager


# ---------------------------------------------------------------------------
# S-expressions


@dataclass
class SExpr:
    """An atom (``items is None``) or a parenthesized list."""

    line: int
    col: int
    atom: Optional[str] = None
    items: Optional[list["SExpr"]] = None

    @property
    def is_atom(self) -> bool:
        return self.items is None

    def head(self) -> str:
        if self.items and self.items[0].is_atom:
            return self.items[0].atom or ""
        return ""


_DELIMS = set("() \t\r\n;")


def tokenize(text: str):
    """Yield (token, line, col); comments run from ``;`` to end of line."""
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col = line + 1, 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line, col
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < n and text[i] not in _DELIMS:
                i += 1
                col += 1
            yield text[start:i], line, start_col


def read_sexprs(text: str) -> list[SExpr]:
    """Parse ``text`` into a list of top-level s-expressions."""
    stack: list[SExpr] = []
    top: list[SExpr] = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            stack.append(SExpr(line, col, items=[]))
        elif tok == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, col)
            node = stack.pop()
            (stack[-1].items if stack else top).append(node)
        else:
            node = SExpr(line, col, atom=tok)
            (stack[-1].items if stack else top).append(node)
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    return top


# ---------------------------------------------------------------------------
# Commands


@dataclass
class SetLogic:
    name: str


@dataclass
class DeclareConst:
    constant: Term


@dataclass
class DefineFun:
    constant: Term
    body: Term


@dataclass
class Assert:
    term: Term


@dataclass
class CheckSat:
    pass


@dataclass
class GetModel:
    pass


@dataclass
class Exit:
    pass


Command = Union[SetLogic, DeclareConst, DefineFun, Assert, CheckSat,
                GetModel, Exit]


@dataclass
class Script:
    """An ordered command sequence sharing one term manager."""

    commands: list[Command]
    manager: TermManager

    @property
    def assertions(self) -> list[Term]:
        return [c.term for c in self.commands if isinstance(c, Assert)]

    @property
    def declared(self) -> list[Term]:
        return [c.constant for c in self.commands
                if isinstance(c, DeclareConst)]

    @property
    def defined(self) -> dict[Term, Term]:
        return {c.constant: c.body for c in self.commands
                if isinstance(c, DefineFun)}

    @property
    def has_check_sat(self) -> bool:
        return any(isinstance(c, CheckSat) for c in self.commands)

    @property
    def wants_model(self) -> bool:
        return any(isinstance(c, GetModel) for c in self.commands)


class _Parser:
    def __init__(self, manager: TermManager):
        self.m = manager

    # -- diagnostics ----------------------------------------------------

    @staticmethod
    def _err(node: SExpr, message: str, cls=ParseError):
        raise cls(message, node.line, node.col)

    def _expect_atom(self, node: SExpr, what: str) -> str:
        if not node.is_atom:
            self._err(node, f"expected {what}")
        return node.atom or ""

    # -- sorts ----------------------------------------------------------

    def sort(self, node: SExpr) -> Sort:
        if node.is_atom:
            if node.atom == "Bool":
                return self.m.bool_sort
            self._err(node, f"unknown sort {node.atom!r}", SortError)
        items = node.items or []
        if len(items) == 3 and items[0].atom == "_" and items[1].atom == "BitVec":
            width_txt = self._expect_atom(items[2], "bit-vector width")
            if not width_txt.isdigit() or int(width_txt) < 1:
                self._err(items[2], f"bad bit-vector width {width_txt!r}",
                          SortError)
            return self.m.bv_sort(int(width_txt))
        if items and items[0].atom == "Array":
            if len(items) != 3:
                self._err(node, "Array sort takes two arguments", SortError)
            index, element = self.sort(items[1]), self.sort(items[2])
            try:
                return self.m.array_sort(index, element)
            except CaextError as e:
                self._err(node, str(e), SortError)
        self._err(node, "unknown sort", SortError)
        raise AssertionError  # unreachable

    # -- terms ----------------------------------------------------------

    def term(self, node: SExpr) -> Term:
        if node.is_atom:
            return self._atom_term(node)
        items = node.items or []
        if not items:
            self._err(node, "empty application")
        if not items[0].is_atom:
            return self._as_const(node)
        head = items[0].atom or ""
        args = items[1:]
        try:
            return self._apply(node, head, args)
        except CaextError as e:
            if isinstance(e, ParseError):
                raise
            self._err(node, str(e), SortError)
            raise AssertionError  # unreachable

    def _atom_term(self, node: SExpr) -> Term:
        text = node.atom or ""
        if text == "true":
            return self.m.true_term
        if text == "false":
            return self.m.false_term
        if text.startswith("#b"):
            bits = text[2:]
            if not bits or set(bits) - set("01"):
                self._err(node, f"bad binary literal {text!r}")
            return self.m.mk_value(self.m.bv_sort(len(bits)), int(bits, 2))
        if text.startswith("#x"):
            hexits = text[2:]
            try:
                value = int(hexits, 16)
            except ValueError:
                self._err(node, f"bad hexadecimal literal {text!r}")
            return self.m.mk_value(self.m.bv_sort(4 * len(hexits)), value)
        const = self.m.lookup_const(text)
        if const is None:
            self._err(node, f"unknown symbol {text!r}", UnknownSymbolError)
        return const

    def _as_const(self, node: SExpr) -> Term:
        items = node.items or []
        head = items[0]
        head_items = head.items or []
        if (len(head_items) == 3 and head_items[0].atom == "as"
                and head_items[1].atom == "const"):
            sort = self.sort(head_items[2])
            if not sort.is_array:
                self._err(head_items[2], "const needs an array sort",
                          SortError)
            if len(items) != 2:
                self._err(node, "const array takes one default value")
            default = self.term(items[1])
            try:
                return self.m.mk_const_array(sort, default)
            except CaextError as e:
                self._err(node, str(e), SortError)
        self._err(node, "expected ((as const (Array s t)) v)")
        raise AssertionError  # unreachable

    def _apply(self, node: SExpr, head: str, args: list[SExpr]) -> Term:
        m = self.m

        def need(k: int):
            if len(args) != k:
                self._err(node, f"{head!r} takes {k} arguments, "
                                f"got {len(args)}")

        if head == "select":
            need(2)
            return m.mk_select(self.term(args[0]), self.term(args[1]))
        if head == "store":
            need(3)
            return m.mk_store(*(self.term(a) for a in args))
        if head == "=":
            if len(args) < 2:
                self._err(node, "'=' takes at least two arguments")
            terms = [self.term(a) for a in args]
            eqs = [m.mk_eq(x, y) for x, y in zip(terms, terms[1:])]
            return eqs[0] if len(eqs) == 1 else m.mk_and(eqs)
        if head == "distinct":
            if len(args) < 2:
                self._err(node, "'distinct' takes at least two arguments")
            terms = [self.term(a) for a in args]
            pairs = [m.mk_not(m.mk_eq(terms[i], terms[j]))
                     for i in range(len(terms))
                     for j in range(i + 1, len(terms))]
            return pairs[0] if len(pairs) == 1 else m.mk_and(pairs)
        if head == "not":
            need(1)
            return m.mk_not(self.term(args[0]))
        if head in ("and", "or"):
            if not args:
                self._err(node, f"{head!r} needs arguments")
            terms = [self.term(a) for a in args]
            if len(terms) == 1:
                return terms[0]
            return m.mk_and(terms) if head == "and" else m.mk_or(terms)
        if head == "=>":
            if len(args) < 2:
                self._err(node, "'=>' takes at least two arguments")
            terms = [self.term(a) for a in args]
            out = terms[-1]
            for t in reversed(terms[:-1]):
                out = m.mk_implies(t, out)
            return out
        if head == "ite":
            need(3)
            return m.mk_ite(*(self.term(a) for a in args))
        self._err(node, f"unknown operator {head!r}", UnknownSymbolError)
        raise AssertionError  # unreachable

    # -- commands -------------------------------------------------------

    def command(self, node: SExpr) -> Command:
        if node.is_atom:
            self._err(node, "expected a command")
        items = node.items or []
        if not items or not items[0].is_atom:
            self._err(node, "expected a command")
        head = items[0].atom or ""
        args = items[1:]

        if head == "set-logic":
            if len(args) != 1 or not args[0].is_atom:
                self._err(node, "set-logic takes one symbol")
            return SetLogic(args[0].atom or "")
        if head in ("declare-const", "declare-fun", "define-fun"):
            return self._declaration(node, head, args)
        if head == "assert":
            if len(args) != 1:
                self._err(node, "assert takes one term")
            term = self.term(args[0])
            if not term.sort.is_bool:
                self._err(args[0], "assertion must be Boolean", SortError)
            return Assert(term)
        if head == "check-sat":
            if args:
                self._err(node, "check-sat takes no arguments")
            return CheckSat()
        if head == "get-model":
            if args:
                self._err(node, "get-model takes no arguments")
            return GetModel()
        if head == "exit":
            if args:
                self._err(node, "exit takes no arguments")
            return Exit()
        self._err(node, f"unknown command {head!r}")
        raise AssertionError  # unreachable

    def _declaration(self, node: SExpr, head: str,
                     args: list[SExpr]) -> Command:
        takes_params = head in ("declare-fun", "define-fun")
        want = 3 if head == "declare-fun" else (4 if head == "define-fun" else 2)
        if len(args) != want:
            self._err(node, f"{head} takes {want} arguments")
        name = self._expect_atom(args[0], "a symbol")
        pos = 1
        if takes_params:
            params = args[1]
            if params.is_atom or params.items:
                self._err(params, f"{head} is supported with zero "
                                  "parameters only")
            pos = 2
        sort = self.sort(args[pos])
        existing = self.m.lookup_const(name)
        if existing is not None and existing.sort is not sort:
            self._err(args[0], f"{name!r} already declared with sort "
                               f"{existing.sort!r}", SortError)
        const = self.m.mk_const(name, sort)
        if head == "define-fun":
            body = self.term(args[pos + 1])
            if body.sort is not sort:
                self._err(args[pos + 1],
                          f"body sort {body.sort!r} does not match "
                          f"declared {sort!r}", SortError)
            return DefineFun(const, body)
        return DeclareConst(const)


def parse(text: str, manager: Optional[TermManager] = None) -> Script:
    """Parse an SMT-LIB script; raises :class:`ParseError` (or a
    subclass) with a source location on any problem."""
    m = manager if manager is not None else TermManager()
    p = _Parser(m)
    commands: list[Command] = []
    seen_check = False
    defined: set[Term] = set()
    for node in read_sexprs(text):
        try:
            cmd = p.command(node)
        except RecursionError:
            raise ParseError("input is nested too deeply to process",
                             node.line, node.col) from None
        if isinstance(cmd, CheckSat):
            if seen_check:
                raise ParseError("only one check-sat is supported",
                                 node.line, node.col)
            seen_check = True
        if isinstance(cmd, DefineFun):
            if cmd.constant in defined:
                raise ParseError(f"{cmd.constant.name!r} is defined twice",
                                 node.line, node.col)
            defined.add(cmd.constant)
        if isinstance(cmd, GetModel) and not seen_check:
            raise ParseError("get-model before check-sat",
                             node.line, node.col)
        commands.append(cmd)
    return Script(commands, m)
