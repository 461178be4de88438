"""Reader for the SMT-LIB v2 subset this solver speaks.

Supported commands: ``set-logic`` (content ignored), ``declare-const``
(and the zero-arity ``declare-fun`` spelling), zero-arity
``define-fun``, ``assert``, ``check-sat`` (at most one), ``get-model``
(only after ``check-sat``), ``exit``.  After ``check-sat`` only
``get-model`` and ``exit`` may come, and ``exit`` ends the script:
nothing after it is read.  One script names each constant
once, by a declaration or a definition, and a command sees only the
constants that earlier commands of its script named: a definition's
own name is not in scope in its body.  In a formula file a
definition constrains its constant like an assertion; a model file
consists of definitions.

Terms: ``select``, ``store``, ``((as const (Array s t)) v)``,
chainable ``=``, ``distinct`` (expanded to pairwise disequalities),
``not``, ``and``, ``or``, ``=>``, ``ite``, ``true``/``false`` and
``#b``/``#x`` literals; these names and every other ``#`` name cannot
be declared.  All diagnostics carry a line:column location.

One regular expression takes the tokens; the delimiters are ``(``,
``)``, space, tab, carriage return and newline, and a comment runs
from ``;`` to the end of the line.  Each top-level form is built in
one loop over the tokens and read into the script at once.  Terms are
built from the forms on an explicit stack, so nesting depth is bounded
by memory, not by Python's recursion limit; a sort is read directly,
as array sorts do not nest.  A node keeps the index of its first
token; its line:column is computed from the text only when a
diagnostic names it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Iterator, Optional, Union

from .errors import CaextError, ParseError, SortError, UnknownSymbolError
from .terms import Sort, Term, TermManager, parse_width


# ---------------------------------------------------------------------------
# S-expressions

# A parenthesis, an atom (a run of anything but the delimiters) or a
# comment; what no alternative matches is white space.
_TOKEN = re.compile(r"[()]|[^() \t\r\n;]+|;[^\n]*")

# A tree is an atom, held as the index of its token, or a list: the
# index of its "(" token followed by its items.
Tree = Union[int, list]


class Source:
    """The tokens of a text, and the trees they spell."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens: list[str] = _TOKEN.findall(text)

    def atom(self, node: Tree) -> Optional[str]:
        """The text of an atom; None for a list."""
        return self.tokens[node] if node.__class__ is int else None

    def location(self, node: Tree) -> tuple[int, int]:
        """The 1-based line and column of the first token of ``node``."""
        k = node if node.__class__ is int else node[0]
        start = next(islice(_TOKEN.finditer(self.text), k, None)).start()
        return (self.text.count("\n", 0, start) + 1,
                start - self.text.rfind("\n", 0, start))

    def read_sexprs(self) -> Iterator[Tree]:
        """Yield the top-level s-expressions as trees, each as soon as
        it is complete, so a reader that stops early builds and
        diagnoses no further."""
        stack: list[list] = []
        top = None  # the innermost open list
        for k, tok in enumerate(self.tokens):
            if tok == "(":
                node = [k]
                if top is not None:
                    top.append(node)
                stack.append(node)
                top = node
            elif tok == ")":
                if top is None:
                    raise ParseError("unmatched ')'", *self.location(k))
                node = stack.pop()
                if stack:
                    top = stack[-1]
                else:
                    top = None
                    yield node
            elif tok[0] != ";":
                if top is None:
                    yield k
                else:
                    top.append(k)
        if top is not None:
            raise ParseError("unclosed '('", *self.location(top))


# ---------------------------------------------------------------------------
# Scripts


@dataclass
class Script:
    """What a script declares, defines and asserts, in one term manager.

    ``assertions`` holds the asserted terms in command order, each
    definition read as the equality of its constant and its body;
    ``declared`` and ``defined`` hold the declared constants and each
    defined constant's body, in command order."""

    manager: TermManager
    assertions: list[Term] = field(default_factory=list)
    declared: list[Term] = field(default_factory=list)
    defined: dict[Term, Term] = field(default_factory=dict)
    has_check_sat: bool = False
    wants_model: bool = False


# ---------------------------------------------------------------------------
# Operators: the least and the most operands (None: no most) and how the
# term is made from the operand terms


def _chain(m: TermManager, terms: list[Term]) -> Term:
    return m.mk_and([m.mk_eq(x, y) for x, y in zip(terms, terms[1:])])


def _distinct(m: TermManager, terms: list[Term]) -> Term:
    return m.mk_and([m.mk_not(m.mk_eq(terms[i], terms[j]))
                     for i in range(len(terms))
                     for j in range(i + 1, len(terms))])


def _implies(m: TermManager, terms: list[Term]) -> Term:
    out = terms[-1]
    for t in reversed(terms[:-1]):
        out = m.mk_implies(t, out)
    return out


def _const_array(sort: Sort, m: TermManager, terms: list[Term]) -> Term:
    return m.mk_const_array(sort, terms[0])


_OPERATORS = {
    "select": (2, 2, lambda m, ts: m.mk_select(*ts)),
    "store": (3, 3, lambda m, ts: m.mk_store(*ts)),
    "=": (2, None, _chain),
    "distinct": (2, None, _distinct),
    "not": (1, 1, lambda m, ts: m.mk_not(*ts)),
    "and": (1, None, TermManager.mk_and),
    "or": (1, None, TermManager.mk_or),
    "=>": (2, None, _implies),
    "ite": (3, 3, lambda m, ts: m.mk_ite(*ts)),
}


class _Parser:
    def __init__(self, manager: TermManager, source: Source):
        self.m = manager
        self.source = source
        self.tokens = source.tokens
        # the constants earlier commands of this script named
        self.scope: dict[str, Term] = {}

    # -- diagnostics ----------------------------------------------------

    def _err(self, node: Tree, message: str, cls=ParseError):
        raise cls(message, *self.source.location(node))

    def _expect_atom(self, node: Tree, what: str) -> str:
        if node.__class__ is not int:
            self._err(node, f"expected {what}")
        return self.tokens[node]

    # -- sorts ----------------------------------------------------------

    def sort(self, node: Tree) -> Sort:
        """The sort ``node`` names: ``Bool``, ``(_ BitVec w)``, or
        ``(Array S T)`` over two of those.  Array sorts do not nest, so
        an ``Array`` operand is not read: once the other operand is
        read, it is reported at the outer ``Array`` node."""
        if self._head(node) != "Array":
            return self._scalar_sort(node)
        if len(node) != 4:
            self._err(node, "Array sort takes two arguments", SortError)
        index, element = (None if self._head(x) == "Array"
                          else self._scalar_sort(x) for x in node[2:])
        if index is None or element is None:
            self._err(node, "array index and element sorts must be scalar",
                      SortError)
        return self.m.array_sort(index, element)

    def _head(self, node: Tree) -> Optional[str]:
        """The atom that heads the list ``node``; None for anything else."""
        if node.__class__ is list and len(node) > 1:
            return self.source.atom(node[1])
        return None

    def _scalar_sort(self, node: Tree) -> Sort:
        atom = self.source.atom(node)
        if atom == "Bool":
            return self.m.bool_sort
        if self._head(node) == "_" and len(node) == 4 \
                and self.source.atom(node[2]) == "BitVec":
            return self._bv_width(node[3])
        self._err(node, "unknown sort" if atom is None
                  else f"unknown sort {atom!r}", SortError)

    def _bv_width(self, node: Tree) -> Sort:
        """The bit-vector sort of the width ``node`` spells."""
        text = self._expect_atom(node, "bit-vector width")
        width = parse_width(text) if text.isascii() and text.isdigit() else 0
        if width < 1:
            self._err(node, f"bad bit-vector width {text!r}", SortError)
        return self._bv_sort(node, width)

    def _bv_sort(self, node: Tree, width: int) -> Sort:
        try:
            return self.m.bv_sort(width)
        except CaextError as e:
            self._err(node, str(e), SortError)
            raise AssertionError  # unreachable

    # -- terms ----------------------------------------------------------

    def term(self, node: Tree) -> Term:
        """The term ``node`` spells.  One stack holds the nodes still to
        read and, under their operands, the operators waiting for them.
        Operands are made left to right before the operator that takes
        them, as a recursive descent would make them, so term ids and
        every diagnostic come in the same order."""
        m, tokens, scope = self.m, self.tokens, self.scope
        done: list[Term] = []
        todo: list = [node]
        while todo:
            x = todo.pop()
            if x.__class__ is int:
                t = scope.get(tokens[x])
                done.append(t if t is not None else self._literal(x))
            elif x.__class__ is list:
                todo.append(self._operator(x))
                todo += x[:1:-1]
            else:
                build, x, k = x
                operands = done[-k:]
                del done[-k:]
                try:
                    done.append(build(m, operands))
                except CaextError as e:
                    self._err(x, str(e), SortError)
        return done[0]

    def _literal(self, node: int) -> Term:
        """An atom that names no constant in scope."""
        text = self.tokens[node]
        if text == "true":
            return self.m.true_term
        if text == "false":
            return self.m.false_term
        if text.startswith("#b"):
            bits = text[2:]
            if not bits or bits.strip("01"):
                self._err(node, f"bad binary literal {text!r}")
            return self.m.mk_value(self._bv_sort(node, len(bits)),
                                   int(bits, 2))
        if text.startswith("#x"):
            hexits = text[2:]
            if not hexits or hexits.strip(string.hexdigits):
                self._err(node, f"bad hexadecimal literal {text!r}")
            return self.m.mk_value(self._bv_sort(node, 4 * len(hexits)),
                                   int(hexits, 16))
        self._err(node, f"unknown symbol {text!r}", UnknownSymbolError)
        raise AssertionError  # unreachable

    def _operator(self, node: list) -> tuple:
        """Check an application's head and operand count, and return it
        as an operator waiting for its operands: ``(build, node, k)``."""
        if len(node) == 1:
            self._err(node, "empty application")
        k = len(node) - 2
        if node[1].__class__ is not int:
            return partial(_const_array, self._const_sort(node)), node, 1
        head = self.tokens[node[1]]
        op = _OPERATORS.get(head)
        if op is None:
            self._err(node, f"unknown operator {head!r}", UnknownSymbolError)
        least, most, build = op
        if most is not None and k != most:
            self._err(node, f"{head!r} takes {most} arguments, got {k}")
        if k < least:
            self._err(node, f"{head!r} needs arguments" if least == 1
                      else f"{head!r} takes at least two arguments")
        return build, node, k

    def _const_sort(self, node: list) -> Sort:
        """The sort of ``((as const (Array s t)) v)``."""
        head, atom = node[1], self.source.atom
        if (len(head) == 4 and atom(head[1]) == "as"
                and atom(head[2]) == "const"):
            sort = self.sort(head[3])
            if not sort.is_array:
                self._err(head[3], "const needs an array sort", SortError)
            if len(node) != 3:
                self._err(node, "const array takes one default value")
            return sort
        self._err(node, "expected ((as const (Array s t)) v)")
        raise AssertionError  # unreachable

    # -- commands -------------------------------------------------------

    def command(self, node: Tree, script: Script) -> bool:
        """Read one command into ``script``; False at ``exit``, which
        ends the script.  The command is read before the rules on what
        may follow ``check-sat`` are applied."""
        head = self._head(node)
        if head is None:
            self._err(node, "expected a command")
        args = node[2:]
        if head in ("declare-const", "declare-fun", "define-fun"):
            const, body = self._declaration(node, head, args)
        elif head == "assert":
            if len(args) != 1:
                self._err(node, "assert takes one term")
            body = self.term(args[0])
            if not body.sort.is_bool:
                self._err(args[0], "assertion must be Boolean", SortError)
        elif head == "set-logic":
            if len(args) != 1 or args[0].__class__ is not int:
                self._err(node, "set-logic takes one symbol")
        elif head in ("check-sat", "get-model", "exit"):
            if args:
                self._err(node, f"{head} takes no arguments")
        else:
            self._err(node, f"unknown command {head!r}")

        if head == "exit":
            return False
        if head == "get-model":
            if not script.has_check_sat:
                self._err(node, "get-model before check-sat")
            script.wants_model = True
        elif script.has_check_sat:
            self._err(node, "only one check-sat is supported"
                      if head == "check-sat"
                      else f"{head} after check-sat: only get-model and "
                           "exit may follow it")
        elif head == "check-sat":
            script.has_check_sat = True
        elif head == "assert":
            script.assertions.append(body)
        elif head == "define-fun":
            script.defined[const] = body
            script.assertions.append(self.m.mk_eq(const, body))
        elif head != "set-logic":
            script.declared.append(const)
        return True

    def _declaration(self, node: list, head: str,
                     args: list) -> tuple[Term, Optional[Term]]:
        """The constant a declaration or definition names, and the
        definition's body (None for a declaration)."""
        takes_params = head in ("declare-fun", "define-fun")
        want = 3 if head == "declare-fun" else (4 if head == "define-fun" else 2)
        if len(args) != want:
            self._err(node, f"{head} takes {want} arguments")
        name = self._expect_atom(args[0], "a symbol")
        if name in ("true", "false") or name.startswith("#"):
            self._err(args[0], f"reserved name {name!r}")
        pos = 1
        if takes_params:
            params = args[1]
            if params.__class__ is int or len(params) > 1:
                self._err(params, f"{head} is supported with zero "
                                  "parameters only")
            pos = 2
        sort = self.sort(args[pos])
        existing = self.m.lookup_const(name)
        if existing is not None and existing.sort is not sort:
            self._err(args[0], f"{name!r} already declared with sort "
                               f"{existing.sort!r}", SortError)
        if name in self.scope:
            verb = "defined" if head == "define-fun" else "declared"
            self._err(node, f"{name!r} is {verb} twice")
        body = None
        if head == "define-fun":
            # The defined name is not in scope in its own body.
            body = self.term(args[pos + 1])
            if body.sort is not sort:
                self._err(args[pos + 1],
                          f"body sort {body.sort!r} does not match "
                          f"declared {sort!r}", SortError)
        const = self.scope[name] = self.m.mk_const(name, sort)
        return const, body


def parse(text: str, manager: Optional[TermManager] = None) -> Script:
    """Parse an SMT-LIB script; raises :class:`ParseError` (or a
    subclass) with a source location on any problem.  ``exit`` ends
    the script: nothing after it is read."""
    source = Source(text)
    script = Script(manager if manager is not None else TermManager())
    p = _Parser(script.manager, source)
    for node in source.read_sexprs():
        if not p.command(node, script):
            break
    return script
