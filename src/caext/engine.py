"""Candidate-guided decision procedure for extensional arrays with
constant-array defaults over finite scalar sorts.

The solver alternates two phases.  A ground solver proposes a candidate
interpretation that satisfies the current formula set while treating
reads as unconstrained scalars and array equalities as an arbitrary
partition (:mod:`caext.ground`).  A propagation phase then spreads each
read and each constant-array default through the store and equality
structure as far as the candidate interpretation allows, recording for
every propagated fact the array it reached, the neighbouring array it
came from and, for a copy, the array equality it crossed.  A fact that
reaches an array whose candidate values contradict it yields a lemma
over the literals of its recorded path, built only then (as Brummayer
& Biere, JSAT 2009, build lemmas from the propagation path); the lemma
joins the formula set, the state is discarded, and the loop repeats.
Every read that reached a constant array with a disagreeing default
yields its lemma in the same scan, as Brummayer & Biere add every
lemma one consistency check finds, so one candidate pays for all of
them; each other conflict kind yields its first hit's lemma only.
Reads and stores stay nested as the input writes them
(:mod:`caext.flatten` names neither), so a path runs along the store
edges of the term graph and a lemma carries no naming equality.
Axiom instances that every candidate would need go in before the
first one, as array procedures instantiate them (de Moura & Bjørner,
"Generalized, efficient array decision procedures", FMCAD 2009): here
the extensionality witness of each asserted ``not (= a b)`` over
arrays, and in the ground encoding the default of each read made
directly on a constant array and the stored value of each read made
directly on a store whose index it equals.

One formula index serves a run: the configuration is the index
(:class:`caext.ground.FormulaIndex`), each lemma extends it, and the
ground session encodes what was added, so every subterm is walked
once.  Each candidate is one table of scalar values and array equality
truths (``values``), which propagation, the conflict scan and the
model read; only lemmas are evaluated.

Propagation records facts in a fixed priority order, each priority
walking the facts recorded so far with one forward cursor, so the same
candidate always yields the same facts in the same order and the store
graph is walked once, never rescanned.  Each step carries what later
phases need from it, as Christ & Hoenicke ("Weakly equivalent arrays",
FroCoS 2015) carry the crossed indices along each hop of a store
graph: a store crossing names the store it crossed, a read step carries
its index value, and a default step the set of index values its crossed
stores block, derived from the step's source when the step is recorded.
Propagation, the conflict scan and the model read these records, and a
recorded path is walked back only to write a lemma.

The refinement terminates on finite domains: every lemma except the
extensionality-witness kind is false under the interpretation that
produced it, so that interpretation is never proposed again, and at
most one witness lemma is ever produced per array equality atom.  When
a candidate survives propagation without contradiction, the recorded
steps determine a concrete value for every array constant — propagated
reads pin single cells, propagated defaults fill the cells off their
updated indices, untouched cells get the all-zero element — and the
result is a full model of the input.  Cells are kept per index value
that some index term takes plus one class for all other values, so the
model costs the same for any index width.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (IllDefinedModel, InternalError, ResourceLimit,
                     UndefinedStep)
from .flatten import flatten
from .ground import FormulaIndex, GroundSession, solve_ground
from .model import ArrayValue, Model, eval_term, validate_model, zero_value
from .model import complete_model  # noqa: F401  (perfbench wraps it)
from .terms import Kind, Sort, Term, TermManager, domain_size

__all__ = [
    "Configuration",
    "ConflictInfo",
    "SolveResult",
    "SolveStats",
    "build_model",
    "check_conflicts",
    "check_sat",
    "init_steps",
    "propagate_fixpoint",
]

# Lemma-rule labels, as counted in solver statistics.
LEMMA_READ_OVER_CONST = "read_over_const"
LEMMA_READ_CONGRUENCE = "read_congruence"
LEMMA_EXTENSIONALITY = "extensionality"
LEMMA_CONST_CONGRUENCE = "const_congruence"

LEMMA_RULES = (
    LEMMA_READ_OVER_CONST,
    LEMMA_READ_CONGRUENCE,
    LEMMA_EXTENSIONALITY,
    LEMMA_CONST_CONGRUENCE,
)


class Configuration(FormulaIndex):
    """Mutable solver state: the run's formula index, the current
    candidate's table, the propagation map, and the equality atoms that
    already received an extensionality witness.

    The propagation map records, for every pair of a destination array
    and a propagated term (a read or a constant array), the array the
    term arrived from and the reason for that hop: ``None`` at a
    starting point, whose source is its destination, the atom of a copy
    or the store of a crossing.  Entries are write-once between resets;
    sources point at an entry recorded earlier, so chains are acyclic;
    a copy's atom holds and relates the hop's two arrays, a crossed
    store joins them, and a read crosses one only at another index
    value.  :meth:`set_step` enforces all of these.

    :meth:`set_step` also records what later phases read off a step, in
    recording order: ``step_keys`` lists every key, ``read_steps``
    holds ``(destination, read, index value)``, ``default_keys`` lists
    the keys of the default steps, and ``default_steps`` maps
    ``(destination, constant array)`` to ``(blocked index values, index
    domain size)``.  The lists give propagation's cursors a position to
    resume at.  A default's blocked set is empty at its starting point,
    the source's set across an equality, and the source's set plus the
    crossed store's index value across a store, so it equals the values
    of the store indices on the recorded path.  Values and atom truths
    are read off the candidate's table ``values``.
    """

    def __init__(self, manager: TermManager, formulas: Iterable[Term]):
        super().__init__(manager, formulas)
        self.values: Optional[dict[Term, int]] = None
        # (destination array, propagated term) -> (reason, source)
        self.steps: dict[tuple[Term, Term], tuple[Optional[Term], Term]] = {}
        # array equality atoms whose extensionality lemma was emitted;
        # kept across resets, so each atom gets at most one
        self.witnessed: set[Term] = set()
        # filled per candidate by `set_step`
        self.step_keys: list[tuple[Term, Term]] = []
        self.read_steps: list[tuple[Term, Term, int]] = []
        self.default_keys: list[tuple[Term, Term]] = []
        self.default_steps: dict[tuple[Term, Term],
                                 tuple[frozenset[int], int]] = {}

    def ordinal_key(self, t: Term) -> int:
        return self.ordinal[t]

    # -- propagation map ---------------------------------------------------

    def has_step(self, dest: Term, t: Term) -> bool:
        return (dest, t) in self.steps

    def step(self, dest: Term, t: Term) -> tuple[Optional[Term], Term]:
        try:
            return self.steps[(dest, t)]
        except KeyError:
            raise UndefinedStep(
                f"no propagation of {t!r} to {dest!r} recorded") from None

    def set_step(self, dest: Term, t: Term, reason: Optional[Term],
                 source: Term) -> None:
        key = (dest, t)
        if key in self.steps:
            raise InternalError(f"propagation step {key} recorded twice")
        if source is not dest and (source, t) not in self.steps:
            raise InternalError(
                "step source does not point at an earlier entry")
        values = self.values  # its only EQ keys: array equalities
        ends, crossed = ((dest, source), (source, dest)), None
        if reason is None:
            if source is not dest:
                raise InternalError(f"hop to {dest!r} has no reason")
        elif reason.kind is Kind.STORE:
            if (reason, reason.array) not in ends:
                raise InternalError(f"store {reason!r} does not join the hop")
            crossed = values[reason.index]
        elif reason.kind is not Kind.EQ or not values.get(reason):
            raise InternalError(
                "step reason is not an array equality atom that holds")
        elif reason.args not in ends:
            raise InternalError(f"atom {reason!r} does not relate the hop")
        if t.kind is Kind.SELECT:
            v = values[t.index]
            if crossed == v:
                raise InternalError(
                    f"read {t!r} crosses a store at its own index")
            self.read_steps.append((dest, t, v))
        elif t.kind is Kind.CONST_ARRAY:
            if source is dest:
                blocked, size = frozenset(), domain_size(t.sort.index)
            else:
                blocked, size = self.default_steps[(source, t)]
                if crossed is not None:
                    blocked = blocked | {crossed}
            self.default_keys.append(key)
            self.default_steps[key] = (blocked, size)
        self.step_keys.append(key)
        self.steps[key] = (reason, source)

    def reset(self) -> None:
        """Discard the candidate's table, all recorded steps and what
        was read off them; the formula set and ``witnessed`` stay."""
        self.values = None
        self.steps.clear()
        self.step_keys.clear()
        self.read_steps.clear()
        self.default_keys.clear()
        self.default_steps.clear()


def init_steps(cfg: Configuration) -> Configuration:
    """Record the self-evident starting points of propagation under the
    candidate: every read at the array it reads from, every store's
    virtual read (its entry in ``read_axioms``) at the store, and
    every constant array at itself."""
    if cfg.values is None:
        raise InternalError("init_steps needs a candidate's table")
    for r in cfg.reads:
        if not cfg.has_step(r.array, r):
            cfg.set_step(r.array, r, None, r.array)
    for s, read in cfg.read_axioms.items():
        if not cfg.has_step(s, read):
            cfg.set_step(s, read, None, s)
    for c in cfg.const_arrays:
        if not cfg.has_step(c, c):
            cfg.set_step(c, c, None, c)
    return cfg


def _walk(cfg: Configuration, dest: Term,
          t: Term) -> tuple[list[Term], list[Term]]:
    """Follow the recorded source links of ``t`` from ``dest`` back to
    its origin.  Returns the literals that explain the hops, ordered
    origin-first (a copy's atom, or ``not (= i k)``, built here, for a
    read with index ``i`` crossing the reason's store at ``k``), and the
    index terms of the stores a constant array crossed, destination-first."""
    m = cfg.manager
    lits: list[Term] = []
    indices: list[Term] = []
    cur = dest
    while True:
        reason, src = cfg.step(cur, t)
        if src is cur:
            break
        if reason.kind is Kind.EQ:
            lits.append(reason)
        elif t.kind is Kind.SELECT:
            lits.append(m.mk_not(m.mk_eq(t.index, reason.index)))
        else:
            indices.append(reason.index)
        cur = src
    lits.reverse()
    return lits, indices


def _canonical_indices(cfg: Configuration,
                       indices: Iterable[Term]) -> tuple[Term, ...]:
    unique = dict.fromkeys(indices)
    return tuple(sorted(unique, key=cfg.ordinal_key))


# ---------------------------------------------------------------------------
# Propagation to fixpoint
# ---------------------------------------------------------------------------


def propagate_fixpoint(cfg: Configuration) -> Configuration:
    """Apply the propagation rules until no rule can record a new step.

    Rules are tried in a fixed priority: reads crossing stores first,
    then copies across equalities that hold under the interpretation,
    then defaults crossing stores.  Each priority walks its entries in
    recording order (``cfg.read_steps``, ``cfg.step_keys``,
    ``cfg.default_keys``) with one forward cursor, and each entry tries
    its neighbours in formula order through the adjacency maps (`hops`,
    `eqs_at`).  A read or a default tests a store hop with the index
    value or blocked set its entry carries, and records the store as the
    reason; a copy needs its atom's truth in ``cfg.values`` to be 1.
    Priority 1 records every hop of its entry in one pass; priorities 2
    and 3 record one step, then return to priority 1.  A cursor leaves
    its entry only after a pass over it records nothing.

    Within one saturation the values are fixed, the adjacency maps do
    not grow and ``cfg.steps`` only grows, so a rule that cannot fire
    at an entry never fires there later.  The steps thus come out in
    the order of a scan that restarts at the first entry after every
    new step, which makes saturation deterministic, at a cost linear in
    the steps recorded.
    """
    steps, hops, eqs_at = cfg.steps, cfg.hops, cfg.eqs_at
    values = cfg.values
    reads, keys, defaults = cfg.read_steps, cfg.step_keys, cfg.default_keys
    # Indices, not iterators: an exhausted iterator misses later entries.
    r = k = d = 0
    while True:
        if r < len(reads):
            # Priority 1: reads cross stores whose updated index differs.
            dest, t, v = reads[r]
            r += 1
            for other, s in hops.get(dest, ()):
                if (other, t) not in steps and v != values[s.index]:
                    cfg.set_step(other, t, s, dest)
        elif k < len(keys):
            # Priority 2: anything propagated copies across a true equality.
            dest, t = keys[k]
            for e, other in eqs_at.get(dest, ()):
                if values[e] and (other, t) not in steps:
                    cfg.set_step(other, t, e, dest)
                    break
            else:
                k += 1
        elif d < len(defaults):
            # Priority 3: defaults cross stores while a cell off the
            # updated indices still exists.
            dest, t = defaults[d]
            blocked, size = cfg.default_steps[(dest, t)]
            for other, s in hops.get(dest, ()):
                if (other, t) not in steps and \
                        len(blocked) + (values[s.index] not in blocked) < size:
                    cfg.set_step(other, t, s, dest)
                    break
            else:
                d += 1
        else:
            return cfg


# ---------------------------------------------------------------------------
# Conflict detection and lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictInfo:
    """A contradiction between propagated facts and the candidate: the
    ``rule`` that found it and the ``lemmas`` that rule it out, every
    hit's in scan order for a read-over-const batch, else the first's."""

    rule: str
    lemmas: tuple[Term, ...]


def check_conflicts(cfg: Configuration) -> Optional[ConflictInfo]:
    """Scan for a contradiction under the current interpretation.

    The four conflict kinds are scanned in a fixed order (read against
    a default, two reads at one array, a falsified array equality
    without a witness read, two defaults at one array).  The first kind
    that hits produces the lemmas: every hit of a read against a
    default, in ``cfg.read_steps`` order, or the first hit of any other
    kind.  Every lemma is appended to the formula set and then the
    propagation state is reset.  A witness lemma
    (:func:`_witness_lemma`) marks its atom in ``cfg.witnessed``, which
    the reset keeps, so each array equality atom gets at most one.
    Every lemma but a witness lemma is checked to be false under the
    interpretation that produced it (:class:`InternalError` otherwise).
    """
    info = _find_conflict(cfg, cfg.witnessed)
    if info is not None:
        for lemma in info.lemmas:
            cfg.add_formula(lemma)
        cfg.reset()
    return info


def _find_conflict(cfg: Configuration,
                   witnessed: set[Term]) -> Optional[ConflictInfo]:
    """The scan of :func:`check_conflicts`: the first kind that hits
    gives every hit of a read against a default, or the first hit of
    any other kind.  A witness lemma's atom is added to ``witnessed``;
    pass a copy of ``cfg.witnessed`` to scan without marking it."""
    m = cfg.manager
    values = cfg.values

    # 1. A read reached a constant array whose default disagrees: every
    #    hit gives a lemma.
    hits = []
    for dest, t, _ in cfg.read_steps:
        if dest.kind is Kind.CONST_ARRAY \
                and values[t] != values[dest.default]:
            lits, _ = _walk(cfg, dest, t)
            lemma = _implication(m, lits, m.mk_eq(t, dest.default))
            hits.append(_checked(cfg, LEMMA_READ_OVER_CONST, lemma))
    if hits:
        return ConflictInfo(LEMMA_READ_OVER_CONST, tuple(hits))

    # 2. Two reads reached one array, their indices agree, their values
    #    do not.  The hit is the first pair by when its later entry was
    #    recorded, then its earlier one.  Until the hit, the reads of one
    #    (array, index value) bucket all agree, so the bucket's first
    #    read is the hit's earlier entry.
    first: dict[tuple[Term, int], Term] = {}
    for dest, t2, v in cfg.read_steps:
        t1 = first.setdefault((dest, v), t2)
        if t1 is t2 or values[t1] == values[t2]:
            continue
        lits1, _ = _walk(cfg, dest, t1)
        lits2, _ = _walk(cfg, dest, t2)
        ante = lits1 + lits2
        if t1.index is not t2.index:
            ante.append(m.mk_eq(t1.index, t2.index))
        lemma = _implication(m, ante, m.mk_eq(t1, t2))
        return ConflictInfo(LEMMA_READ_CONGRUENCE,
                            (_checked(cfg, LEMMA_READ_CONGRUENCE, lemma),))

    # 3. A falsified array equality that has no witness read yet.
    for e in cfg.array_eq_atoms:
        if e in witnessed or values[e]:
            continue
        witnessed.add(e)
        return ConflictInfo(LEMMA_EXTENSIONALITY, (_witness_lemma(cfg, e),))

    # 4. Two constant arrays with different defaults reached one array
    #    and some cell escapes both updated-index sets.
    for dest, c1, c2 in _const_pairs(cfg):
        if cfg.ordinal_key(c2) < cfg.ordinal_key(c1):
            c1, c2 = c2, c1
        if values[c1.default] == values[c2.default]:
            continue
        b1, size = cfg.default_steps[(dest, c1)]
        b2 = cfg.default_steps[(dest, c2)][0]
        if len(b1 | b2) >= size:
            continue
        lits1, idx1 = _walk(cfg, dest, c1)
        lits2, idx2 = _walk(cfg, dest, c2)
        ante = lits1 + lits2
        multiset = (_canonical_indices(cfg, idx1)
                    + _canonical_indices(cfg, idx2))
        if multiset:
            ante.append(m.mk_not(m.mk_distinct_n(size, multiset)))
        lemma = _implication(m, ante, m.mk_eq(c1.default, c2.default))
        return ConflictInfo(LEMMA_CONST_CONGRUENCE,
                            (_checked(cfg, LEMMA_CONST_CONGRUENCE, lemma),))

    return None


def _witness_lemma(cfg: FormulaIndex, e: Term) -> Term:
    """The extensionality lemma of the array equality atom ``e``:
    ``not e => not (= (select lhs k) (select rhs k))`` over a witness
    index ``k``.  ``k`` is named ``__ext_k_<id of e>``, or, if that name
    is taken, ``__ext_k_<id of e>_<j>`` for the least ``j >= 1`` that is
    not: a name is taken when it names a constant the index holds or
    one of another sort.  A constant of the right sort that the index
    does not hold is a witness of an earlier run on the same manager,
    and is reused, so every call gives the same lemma."""
    m = cfg.manager
    lhs, rhs = e.args
    isort, base = lhs.sort.index, f"__ext_k_{e.id}"
    name, j = base, 0
    while True:
        k = m.lookup_const(name)
        if k is None:
            k = m.mk_const(name, isort)
            break
        if k.sort is isort and k not in cfg.ordinal:
            break
        j += 1
        name = f"{base}_{j}"
    diff = m.mk_not(m.mk_eq(m.mk_select(lhs, k), m.mk_select(rhs, k)))
    return m.mk_implies(m.mk_not(e), diff)


def _const_pairs(cfg: Configuration):
    """Pairs of constant arrays propagated to one destination, ordered
    by when the later entry of the pair was recorded, then the earlier
    one."""
    earlier: dict[Term, list[Term]] = {}
    for dest, t in cfg.default_steps:
        seen = earlier.setdefault(dest, [])
        for t1 in seen:
            yield dest, t1, t
        seen.append(t)


def _implication(m: TermManager, antecedent: Sequence[Term],
                 consequent: Term) -> Term:
    lits = list(dict.fromkeys(antecedent))
    if not lits:
        return consequent
    if len(lits) == 1:
        return m.mk_implies(lits[0], consequent)
    return m.mk_implies(m.mk_and(lits), consequent)


def _checked(cfg: Configuration, rule: str, lemma: Term) -> Term:
    """``lemma``, once ``eval_term`` over a copy of the candidate's table
    finds it false, so that it rules out the candidate (witness lemmas
    are exempt: their fresh reads have no value yet)."""
    if eval_term(Model(), lemma, dict(cfg.values)):
        raise InternalError(
            f"{rule} lemma does not exclude the interpretation")
    return lemma


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def build_model(cfg: Configuration) -> Model:
    """Read a full model off a saturated, conflict-free configuration:
    off its steps and the candidate's table ``cfg.values``.

    The constants are the index's: scalar ones take their table values.
    Array values are built over index classes: the values the table
    gives to the index terms of the formula set, plus one class for all
    other indices.  Every read propagated to an array pins its index
    class, and every constant array propagated to it pins each class
    that differs from all crossed store indices to the default.  Pins
    are then shared across the store terms of the formula set — a store
    result and its base agree on every class except the stored index —
    and across the array equality atoms that hold, because a class left
    free in one array may be forced through such a link by a pin on the
    other side.  Any class still free afterwards holds the all-zero
    element.  Disagreeing pins are impossible after saturation, so they
    raise :class:`IllDefinedModel` to flag an engine bug.
    """
    if cfg.values is None:
        raise InternalError("build_model needs a candidate's table")
    cells = _CellSolver(cfg)
    model = Model()
    for t in cfg.constants:
        if t.sort.is_array:
            model.set(t, cells.table(t))
        else:
            model.set(t, cfg.values[t])
    return model


# The index class of every index value no index term takes.
_REST = -1


class _CellSolver:
    """Joint value assignment for the cells of all array terms.

    A cell is one index class of one array term.  The classes of an
    index sort are the values the interpretation gives to the select
    and store indices of that sort in the formula set, plus the rest
    class `_REST` when those values leave part of the domain uncovered.
    No store, read or crossed index can tell two uncovered values
    apart, so one rest cell per array term stands for all of them.
    Cells are united across every store term (result and base share
    every class but the stored index) and across every array equality
    atom the interpretation satisfies (both sides share all classes);
    reads and constant-array defaults recorded in the propagation map
    pin united groups to element values.
    """

    def __init__(self, cfg: Configuration):
        values = cfg.values
        self._parent: dict[tuple[Term, int], tuple[Term, int]] = {}
        self._value: dict[tuple[Term, int], int] = {}
        covered: dict[Sort, set[int]] = {}
        for t in cfg.reads + cfg.stores:
            covered.setdefault(t.index.sort, set()).add(values[t.index])
        self._classes: dict[Sort, list[int]] = {
            sort: sorted(vals) + ([] if len(vals) == domain_size(sort)
                                  else [_REST])
            for sort, vals in covered.items()}
        for t in cfg.stores:
            at = values[t.index]
            for x in self._classes_of(t.sort):
                if x != at:
                    self._union((t, x), (t.array, x))
        for e in cfg.array_eq_atoms:
            if values[e]:
                lhs, rhs = e.args
                for x in self._classes_of(lhs.sort):
                    self._union((lhs, x), (rhs, x))
        for dest, t, v in cfg.read_steps:
            self._pin((dest, v), values[t])
        for (dest, t), (blocked, _) in cfg.default_steps.items():
            val = values[t.default]
            for x in self._classes_of(t.sort):
                if x not in blocked:
                    self._pin((dest, x), val)

    def _classes_of(self, array_sort: Sort) -> list[int]:
        return self._classes.get(array_sort.index, [_REST])

    def _find(self, cell: tuple[Term, int]) -> tuple[Term, int]:
        parent = self._parent
        root = cell
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(cell, cell) != root:
            cell, parent[cell] = parent[cell], root
        return root

    def _union(self, c1: tuple[Term, int], c2: tuple[Term, int]) -> None:
        r1, r2 = self._find(c1), self._find(c2)
        if r1 == r2:
            return
        v1, v2 = self._value.get(r1), self._value.get(r2)
        if v1 is not None and v2 is not None and v1 != v2:
            raise IllDefinedModel(
                f"linked cells at {_class_name(c1[1])} of {c1[0]!r} and "
                f"{c2[0]!r} carry the distinct values {v1} and {v2}")
        self._parent[r1] = r2
        if v2 is None and v1 is not None:
            self._value[r2] = v1
        self._value.pop(r1, None)

    def _pin(self, cell: tuple[Term, int], val: int) -> None:
        root = self._find(cell)
        old = self._value.setdefault(root, val)
        if old != val:
            raise IllDefinedModel(
                f"cell at {_class_name(cell[1])} of {cell[0]!r} is pinned "
                f"to both {old} and {val}")

    def table(self, array: Term) -> ArrayValue:
        zero = zero_value(array.sort.element)
        cells = {x: self._value.get(self._find((array, x)), zero)
                 for x in self._classes_of(array.sort)}
        default = cells.pop(_REST, zero)
        return ArrayValue(default, cells, domain_size(array.sort.index))


def _class_name(x: int) -> str:
    return "every other index" if x == _REST else f"index {x}"


# ---------------------------------------------------------------------------
# The refinement loop
# ---------------------------------------------------------------------------


@dataclass
class SolveStats:
    """Counters describing one :func:`check_sat` run.  Each lemma is
    recorded once, in ``lemmas`` as ``(rule, lemma)`` over the input's
    terms and the constants flattening names; the refinement count and
    the per-rule counts are read off it."""

    iterations: int = 0
    pi_size: int = 0
    ground_conflicts: int = 0
    lemmas: list[tuple[str, Term]] = field(default_factory=list)

    @property
    def lemma_history(self) -> list[tuple[str, Term]]:
        """The same list as ``lemmas``; only the benchmark harness
        (``perfbench``) still reads it."""
        return self.lemmas

    @property
    def refinements(self) -> int:
        return len(self.lemmas)

    @property
    def lemma_counts(self) -> dict[str, int]:
        """Lemmas per rule, in order of each rule's first lemma."""
        return dict(Counter(rule for rule, _ in self.lemmas))

    def lines(self) -> list[str]:
        out = [f"refinements: {self.refinements}",
               f"iterations: {self.iterations}"]
        for rule in LEMMA_RULES:
            out.append(f"lemmas.{rule}: {self.lemma_counts.get(rule, 0)}")
        out.append(f"propagation-steps: {self.pi_size}")
        out.append(f"ground-conflicts: {self.ground_conflicts}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass
class SolveResult:
    """Verdict of :func:`check_sat`: ``sat`` with a model, ``unsat``,
    or ``unknown`` when the ground budget ran out."""

    verdict: str
    model: Optional[Model]
    stats: SolveStats


def check_sat(manager: TermManager, assertions: Iterable[Term], *,
              seed: int = 0,
              budget: Optional[int] = None,
              max_refinements: Optional[int] = None) -> SolveResult:
    """Decide the assertions and, when satisfiable, build a model.

    The assertions are flattened, which names only ites and Boolean
    terms in term positions.  One configuration is the run's formula
    index, and one :class:`GroundSession` over it, made with ``seed``
    and ``budget``, is the run's ground encoding: each lemma extends
    the index, the next :func:`solve_ground` call adds it as clauses,
    and the SAT core keeps what it learned.  A candidate ends in one
    lemma, or in a batch of read-over-const lemmas, each recorded in
    ``stats.lemmas`` in scan order.  Before the first
    candidate, each top-level ``not e`` of the flattened formulas, ``e``
    an array equality, gets its witness lemma, recorded first in
    ``stats.lemmas``: every candidate falsifies ``e``, so the conflict
    scan would ask for it anyway.  ``seed`` fixes the ground solver's
    choices, ``budget`` caps the SAT conflicts of each candidate's
    search, counted afresh for every candidate (exhaustion yields
    verdict ``unknown``), and ``max_refinements`` caps the candidates
    that end in a lemma (exceeding it raises :class:`ResourceLimit`).

    The proof invariants are checked on every run: each propagation
    step is recorded once, points at an earlier entry and is a hop the
    candidate allows; each lemma excludes the candidate that produced
    it; and a model is returned only after it validates against both the
    assertions and the flattened formula set with every lemma.  A
    failed check raises :class:`InternalError`.
    """
    assertions = list(assertions)
    formulas = flatten(manager, assertions).formulas
    cfg = Configuration(manager, formulas)
    stats = SolveStats()
    # An asserted `not e` falsifies e in every candidate: its witness
    # lemma goes in before the first one.
    for f in formulas:
        if f.kind is not Kind.NOT:
            continue
        e = f.args[0]
        if e.kind is Kind.EQ and e.args[0].sort.is_array \
                and e not in cfg.witnessed:
            cfg.witnessed.add(e)
            lemma = _witness_lemma(cfg, e)
            cfg.add_formula(lemma)
            stats.lemmas.append((LEMMA_EXTENSIONALITY, lemma))
    session = GroundSession(cfg, seed, budget)
    while True:
        stats.iterations += 1
        ground = solve_ground(session)
        stats.ground_conflicts += ground.conflicts
        if ground.verdict is None:
            return SolveResult("unknown", None, stats)
        if ground.verdict == "unsat":
            return SolveResult("unsat", None, stats)
        cfg.values = ground.values
        init_steps(cfg)
        propagate_fixpoint(cfg)
        stats.pi_size = len(cfg.steps)
        info = check_conflicts(cfg)
        if info is None:
            model = build_model(cfg)
            for scope in (assertions, cfg.formulas):
                outcome = validate_model(model, scope)
                if not outcome:
                    raise InternalError(
                        "constructed model fails "
                        f"{outcome.failing_assertion!r}")
            return SolveResult("sat", model, stats)
        stats.lemmas.extend((info.rule, lemma) for lemma in info.lemmas)
        if max_refinements is not None \
                and stats.iterations > max_refinements:
            raise ResourceLimit(
                f"refinement limit of {max_refinements} exceeded")
