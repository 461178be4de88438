"""Ground model finder over finite scalar domains.

Bit-blasts the scalar skeleton of a formula set to CNF and searches it
with the CDCL core.  Reads (``select`` nodes) are bit-vectors
constrained by three array axioms that hold in every candidate: the
virtual-read equality ``select(store(a,i,u), i) = u`` of each store term
present, ``select(const(d), i) = d`` for each read made directly on
a constant array, and the read-over-write hit
``j = i => select(store(a,i,u), j) = u`` for each read made directly on
a store at another index term (de Moura & Bjørner, "Generalized,
efficient array decision procedures", FMCAD 2009), which costs one
index comparator and makes no term.  Array axioms beyond those, such as
the miss ``j != i => select(store(a,i,u), j) = select(a, j)``, are
deliberately *not* encoded; the array engine repairs violations with
lemmas.  Array-sorted
terms carry only an equivalence partition: every pair related by an
array-equality atom gets an equality variable, and transitivity is
enforced over a chordal completion of that atom graph (Bryant & Velev,
"Boolean satisfiability with transitivity constraints", ACM TOCL 2002),
never over all pairs.
At-least-n-distinct atoms are encoded eagerly with first-occurrence
flags feeding a sequential counter.

One path leads in: a :class:`GroundSession` is made over the run's
:class:`FormulaIndex`, and each :func:`solve_ground` call encodes what
the index gained since the previous call, from the Boolean terms the
index filed (no formula is walked twice), and searches, so the SAT core
keeps what it learned.  A candidate is one table: the value of every
scalar leaf and the truth of every array equality atom of the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InternalError
from .sat import SatSolver
from .terms import Kind, Sort, Term, TermManager, postorder

_SCALAR_LEAVES = (Kind.CONSTANT, Kind.VALUE, Kind.SELECT)


def _width(sort: Sort) -> int:
    return 1 if sort.is_bool else sort.width


def _eliminate(adj: dict[Term, set[Term]]
               ) -> Iterator[tuple[Term, list[Term]]]:
    """Eliminate the vertices of the graph ``adj`` (emptied on the way)
    one by one, each of least degree, ties broken by term id.  Yield
    each vertex with its remaining neighbours in id order, joined
    pairwise by fill edges when the caller asks for the next vertex.

    A heap keyed by (degree, id) picks the vertex.  A vertex is pushed
    again whenever its degree changes; an entry whose vertex is gone or
    whose degree is no longer current is skipped."""
    heap = [(len(nbrs), v.id, v) for v, nbrs in adj.items()]
    heapify(heap)
    while heap:
        degree, _, v = heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) != degree:
            continue
        del adj[v]
        nbrs = sorted(nbrs, key=lambda t: t.id)
        for x in nbrs:
            adj[x].discard(v)
        yield v, nbrs
        for k, x in enumerate(nbrs):
            for y in nbrs[k + 1:]:
                adj[x].add(y)
                adj[y].add(x)
        for x in nbrs:
            heappush(heap, (len(adj[x]), x.id, x))


def _pair_key(s: Term, t: Term) -> tuple[Term, Term]:
    return (s, t) if s.id < t.id else (t, s)


class FormulaIndex:
    """The subterms of a growing formula list, each walked once.

    :meth:`add_formula` gives every subterm not indexed yet the next
    ordinal, children before parents, as one walk over the whole list
    would; ``terms`` lists them in that order, and ``bools`` the Boolean
    ones, whose gates the ground encoder builds.  Each is also filed by
    kind, and a store ``s`` gets its virtual read ``select(s, s.index)``
    in ``read_axioms``, whose bits the encoder makes equal to those of
    ``s.stored_value``.  It starts with ``formulas``, in order.
    """

    def __init__(self, manager: TermManager,
                 formulas: Iterable[Term] = ()) -> None:
        self.manager = manager
        self.formulas: list[Term] = []
        self.terms: list[Term] = []
        self.ordinal: dict[Term, int] = {}
        self.reads: list[Term] = []
        self.stores: list[Term] = []
        self.read_axioms: dict[Term, Term] = {}
        self.const_arrays: list[Term] = []
        self.array_eq_atoms: list[Term] = []
        self.constants: list[Term] = []
        # Boolean terms in order; formula k's share ends at bool_ends[k]
        self.bools: list[Term] = []
        self.bool_ends: list[int] = []
        # array -> (neighbour, store crossed): first the hop down to the
        # base when the array is a store, then the stores over it in
        # `stores` order
        self.hops: dict[Term, list[tuple[Term, Term]]] = {}
        # array -> (atom, other side), in `array_eq_atoms` order; an
        # atom `a = a` has no entry
        self.eqs_at: dict[Term, list[tuple[Term, Term]]] = {}
        for f in formulas:
            self.add_formula(f)

    def add_formula(self, f: Term) -> None:
        """Append ``f`` and index its new subterms.  The walk does not
        enter an indexed term: its subterms are indexed too."""
        self.formulas.append(f)
        for t in postorder((f,), self.ordinal):
            self._file(t)
        self.bool_ends.append(len(self.bools))

    def _file(self, t: Term) -> None:
        self.ordinal[t] = len(self.terms)
        self.terms.append(t)
        if t.sort.is_bool:
            self.bools.append(t)
        if t.kind is Kind.SELECT:
            self.reads.append(t)
        elif t.kind is Kind.STORE:
            self.stores.append(t)
            self.read_axioms[t] = self.manager.mk_select(t, t.index)
            self.hops[t] = [(t.array, t)]
            self.hops.setdefault(t.array, []).append((t, t))
        elif t.kind is Kind.CONST_ARRAY:
            self.const_arrays.append(t)
        elif t.kind is Kind.CONSTANT:
            self.constants.append(t)
        elif t.kind is Kind.EQ and t.args[0].sort.is_array:
            self.array_eq_atoms.append(t)
            lhs, rhs = t.args
            if lhs is not rhs:
                self.eqs_at.setdefault(lhs, []).append((t, rhs))
                self.eqs_at.setdefault(rhs, []).append((t, lhs))


@dataclass
class GroundResult:
    """A sat result's ``values`` is the candidate: every scalar leaf of
    the index (constant, read or literal) to its value, every array
    equality atom of the index to its truth, 0 or 1.  The encoding's
    transitivity makes the true atoms a partition of the related
    arrays.  Other array equalities have no entry."""

    verdict: Optional[str]          # "sat", "unsat", or None on budget
    values: Optional[dict[Term, int]] = None
    conflicts: int = 0


class GroundSession:
    """The CNF encoding of a growing :class:`FormulaIndex`, shared by the
    `solve_ground` calls of a refinement run, so the SAT core keeps what
    it learned.  ``seed`` fixes the SAT solver's choices and ``budget``
    caps the conflicts of each call (``None``: no cap).

    Making the session makes the SAT solver and gives every array pair
    related by an equality atom of ``index`` its variable
    (:meth:`_register_pairs`); an array equality that the index gains
    later must relate a pair registered then.  Each `solve_ground` call
    encodes the index terms and formulas added since the previous one,
    reading the Boolean terms the index filed: the encoder walks nothing.
    """

    def __init__(self, index: FormulaIndex, seed: int = 0,
                 budget: Optional[int] = None) -> None:
        self.index = index
        self.sat = SatSolver(seed=seed, conflict_budget=budget)
        self.true_lit = self.sat.new_var()
        self.sat.add_clause([self.true_lit])
        self.bits: dict[Term, list[int]] = {}
        self.pair: dict[tuple[Term, Term], int] = {}
        self.lits: dict[Term, int] = {}
        self.eq_cache: dict[tuple[Term, Term], int] = {}
        # how many of the index's terms and formulas are encoded
        self._terms = 0
        self._formulas = 0
        self._register_pairs(index.eqs_at)

    def encode_new(self) -> None:
        """Encode the index terms and formulas past the cursors: bits
        for new scalar leaves (±``true_lit`` for a literal); formula by
        formula, a literal for each Boolean term of its share of the
        index's walk, children first, then its unit clause; the read
        axioms of new stores; for each new read made directly on a
        constant array, the array's default as its bits; and for each
        new read made directly on a store at another index term, the
        stored value as its bits wherever the two indices are equal."""
        index = self.index
        fresh = index.terms[self._terms:]
        first = self._formulas
        self._terms, self._formulas = len(index.terms), len(index.formulas)
        for t in fresh:
            if t.kind in _SCALAR_LEAVES and t.sort.is_scalar:
                self.node_bits(t)
        start = index.bool_ends[first - 1] if first else 0
        for f, end in zip(index.formulas[first:], index.bool_ends[first:]):
            for t in index.bools[start:end]:
                self.lits[t] = self.bool_lit(t)
            start = end
            self.sat.add_clause([self.lits[f]])
        for t in fresh:
            if t.kind is Kind.STORE:
                self.assert_bits_equal(index.read_axioms[t], t.stored_value)
            elif t.kind is Kind.SELECT:
                a = t.array
                if a.kind is Kind.CONST_ARRAY:
                    self.assert_bits_equal(t, a.default)
                elif a.kind is Kind.STORE and t.index is not a.index:
                    hit = self.scalar_eq_lit(t.index, a.index)
                    self.assert_bits_equal(t, a.stored_value, guard=-hit)

    # -- gates ----------------------------------------------------------

    def _iff(self, a: int, b: int) -> int:
        q = self.sat.new_var()
        add = self.sat.add_clause
        add([-q, -a, b])
        add([-q, a, -b])
        add([q, a, b])
        add([q, -a, -b])
        return q

    def _and(self, lits: Sequence[int]) -> int:
        if not lits:
            return self.true_lit
        if len(lits) == 1:
            return lits[0]
        q = self.sat.new_var()
        for lit in lits:
            self.sat.add_clause([-q, lit])
        self.sat.add_clause([q] + [-lit for lit in lits])
        return q

    def _or(self, lits: Sequence[int]) -> int:
        return -self._and([-lit for lit in lits])

    # -- term bits --------------------------------------------------------

    def node_bits(self, t: Term) -> list[int]:
        got = self.bits.get(t)
        if got is not None:
            return got
        w = _width(t.sort)
        if t.kind is Kind.VALUE:
            out = [self.true_lit if (t.value >> k) & 1 else -self.true_lit
                   for k in range(w)]
        elif t.kind in (Kind.CONSTANT, Kind.SELECT):
            out = [self.sat.new_var() for _ in range(w)]
        else:
            raise InternalError(f"scalar term {t!r} is not flat")
        self.bits[t] = out
        return out

    # -- arrays ----------------------------------------------------------

    def _register_pairs(self,
                        eqs_at: dict[Term, list[tuple[Term, Term]]]) -> None:
        """Give each pair of arrays related by an equality atom (the
        index's ``eqs_at``) a variable.  Transitivity is added over a
        chordal completion of the atom graph: vertices are eliminated by
        least degree (ties by term id), and each eliminated vertex gets a
        triangle with every pair of its remaining neighbours, adding the
        pair as a fill edge when it is new.  Transitivity on every
        triangle of a chordal graph makes the true pairs a partition."""
        adj = {a: {other for _, other in es} for a, es in eqs_at.items()}
        for key in sorted({_pair_key(s, t) for s in adj for t in adj[s]},
                          key=lambda p: (p[0].id, p[1].id)):
            self.pair[key] = self.sat.new_var()
        add = self.sat.add_clause
        for v, nbrs in _eliminate(adj):
            for k, x in enumerate(nbrs):
                for y in nbrs[k + 1:]:
                    if (x, y) not in self.pair:
                        self.pair[(x, y)] = self.sat.new_var()
                    vx, vy = self.pair_lit(v, x), self.pair_lit(v, y)
                    xy = self.pair[(x, y)]
                    add([-vx, -vy, xy])
                    add([-vx, -xy, vy])
                    add([-vy, -xy, vx])

    def pair_lit(self, s: Term, t: Term) -> int:
        if s is t:
            return self.true_lit
        lit = self.pair.get(_pair_key(s, t))
        if lit is None:
            raise InternalError(f"unregistered array pair {s!r} / {t!r}")
        return lit

    # -- Boolean terms ------------------------------------------------

    def scalar_eq_lit(self, lhs: Term, rhs: Term) -> int:
        if lhs is rhs:
            return self.true_lit
        key = (lhs, rhs) if lhs.id < rhs.id else (rhs, lhs)
        lit = self.eq_cache.get(key)
        if lit is None:
            xs, ys = self.node_bits(lhs), self.node_bits(rhs)
            lit = self._and([self._iff(x, y) for x, y in zip(xs, ys)])
            self.eq_cache[key] = lit
        return lit

    def distinct_lit(self, t: Term) -> int:
        ts, n = list(t.args), t.n
        if n > len(ts):
            return -self.true_lit
        # first[i]: ts[i] differs from every earlier argument.
        first = [self._and([-self.scalar_eq_lit(ts[i], ts[j])
                            for j in range(i)])
                 for i in range(len(ts))]
        # Sequential counter: count[j] = at least j+1 of `first` so far.
        count: list[int] = []
        for f in first:
            nxt: list[int] = []
            for j in range(min(len(count) + 1, n)):
                at_least = count[j] if j < len(count) else -self.true_lit
                carry = count[j - 1] if j > 0 else self.true_lit
                nxt.append(self._or([at_least, self._and([carry, f])]))
            count = nxt
        return count[n - 1] if n <= len(count) else -self.true_lit

    def bool_lit(self, t: Term) -> int:
        """The literal of a Boolean term whose operands have theirs."""
        k = t.kind
        lits = self.lits
        if k is Kind.NOT:
            return -lits[t.args[0]]
        if k is Kind.AND:
            return self._and([lits[a] for a in t.args])
        if k is Kind.OR:
            return self._or([lits[a] for a in t.args])
        if k is Kind.IMPLIES:
            return self._or([-lits[t.args[0]], lits[t.args[1]]])
        if k is Kind.ITE:
            c, x, y = (lits[a] for a in t.args)
            return self._or([self._and([c, x]), self._and([-c, y])])
        if k is Kind.EQ and t.args[0].sort.is_array:
            return self.pair_lit(*t.args)
        if k is Kind.EQ:
            return self.scalar_eq_lit(*t.args)
        if k is Kind.DISTINCT_N:
            return self.distinct_lit(t)
        if k in _SCALAR_LEAVES:
            return self.node_bits(t)[0]
        raise InternalError(f"unsupported atom {t!r}")

    def assert_bits_equal(self, s: Term, t: Term,
                          guard: Optional[int] = None) -> None:
        """Make the bits of ``s`` equal those of ``t``; with a ``guard``
        literal, only where the guard is false (it joins each clause)."""
        extra = [] if guard is None else [guard]
        for x, y in zip(self.node_bits(s), self.node_bits(t)):
            self.sat.add_clause([-x, y] + extra)
            self.sat.add_clause([x, -y] + extra)


def solve_ground(session: GroundSession) -> GroundResult:
    """Encode what the session's index gained since the previous call,
    then find a total scalar interpretation satisfying the index's
    formulas plus the three read axioms, or report ground
    unsatisfiability (verdict ``None`` when the session's conflict
    budget runs out).  The result's ``conflicts`` counts only this
    call's.  Deterministic for fixed input and seed.
    """
    session.encode_new()
    sat = session.sat
    before = sat.conflicts
    outcome = sat.solve()
    conflicts = sat.conflicts - before
    if outcome is None:
        return GroundResult(None, conflicts=conflicts)
    if not outcome:
        return GroundResult("unsat", conflicts=conflicts)
    values = {t: sum((1 << k) if _lit_true(sat, lit) else 0
                     for k, lit in enumerate(bits))
              for t, bits in session.bits.items()}
    for e in session.index.array_eq_atoms:
        values[e] = int(_lit_true(sat, session.lits[e]))
    return GroundResult("sat", values, conflicts)


def _lit_true(sat: SatSolver, lit: int) -> bool:
    v = sat.value(abs(lit))
    return v if lit > 0 else not v
