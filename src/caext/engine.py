"""Candidate-guided decision procedure for extensional arrays with
constant-array defaults over finite scalar sorts.

The solver alternates two phases.  A ground solver proposes a candidate
interpretation that satisfies the current formula set while treating
reads as unconstrained scalars and array equalities as an arbitrary
partition (:mod:`caext.ground`).  A propagation phase then spreads each
read and each constant-array default through the store and equality
structure as far as the candidate interpretation allows, recording for
every propagated fact the array it reached, the neighbouring array it
came from, and the literal that justified the hop.  A fact that reaches
an array whose candidate values contradict it yields a lemma over the
recorded justification literals; the lemma joins the formula set, the
propagation state is discarded, and the loop repeats.

Propagation scans the recorded facts in a fixed order and restarts
after every new one, so the same candidate always yields the same
facts in the same order.  A scan reaches the stores over an array and
the equality atoms at it through adjacency maps kept with the formula
index, and each default's crossed store indices are walked once per
candidate (Christ & Hoenicke, "Weakly equivalent arrays", FroCoS 2015,
propagate along such a store graph).

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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    CaextError,
    IllDefinedModel,
    InternalError,
    ResourceLimit,
    UndefinedStep,
)
from .flatten import flatten
from .ground import GroundSession, Interpretation, solve_ground
from .model import (ArrayValue, Model, complete_model, validate_model,
                    zero_value)
from .terms import (Kind, Sort, Term, TermManager, domain_size,
                    iter_subterms, substitute)

__all__ = [
    "Configuration",
    "ConflictInfo",
    "SolveResult",
    "SolveStats",
    "build_model",
    "check_conflicts",
    "check_sat",
    "exists_fresh_index",
    "init_steps",
    "propagate_fixpoint",
]

# Propagation-rule labels, as recorded per step for tracing.
INIT_READ = "init_read"
INIT_WRITE = "init_write"
INIT_CONST = "init_const"
READ_DOWN = "read_down"              # read crosses a store toward its base
READ_UP = "read_up"                  # read crosses a store away from its base
READ_EQ_RIGHT = "read_eq_right"      # read copied across an equality, lhs→rhs
READ_EQ_LEFT = "read_eq_left"        # read copied across an equality, rhs→lhs
CONST_DOWN = "const_down"            # default crosses a store toward its base
CONST_UP = "const_up"                # default crosses a store away from its base
CONST_EQ_RIGHT = "const_eq_right"    # default copied across an equality, lhs→rhs
CONST_EQ_LEFT = "const_eq_left"      # default copied across an equality, rhs→lhs

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


class Configuration:
    """Mutable solver state: the formula set, the current candidate
    interpretation, and the propagation map.

    The propagation map records, for every pair of a destination array
    and a propagated term (a read or a constant array), the literal that
    justified the most recent hop and the array the term arrived from.
    Entries are write-once between resets; sources always point at an
    entry recorded earlier, so justification chains are acyclic.
    """

    def __init__(self, manager: TermManager, formulas: Iterable[Term], *,
                 debug: bool = True):
        self.manager = manager
        self.formulas: list[Term] = list(formulas)
        self.interp: Optional[Interpretation] = None
        # (destination array, propagated term) -> (reason literal | None, source)
        self.steps: dict[tuple[Term, Term], tuple[Optional[Term], Term]] = {}
        self.step_rule: dict[tuple[Term, Term], str] = {}
        self.debug = debug
        self.ordinal: dict[Term, int] = {}
        self.reads: list[Term] = []
        self.stores: list[Term] = []
        self.const_arrays: list[Term] = []
        self.array_eq_atoms: list[Term] = []
        # array -> the stores over it, in `stores` order
        self.stores_over: dict[Term, list[Term]] = {}
        # array -> (atom, other side, array is the lhs), in
        # `array_eq_atoms` order; an atom `a = a` has no entry
        self.eqs_at: dict[Term, list[tuple[Term, Term, bool]]] = {}
        # (destination array, constant array) -> the crossed store
        # indices of its recorded path; see `_crossed`
        self.crossed: dict[tuple[Term, Term], list[Term]] = {}
        self._index(self.formulas)

    # -- formula-set term index ------------------------------------------

    def _index(self, formulas: Sequence[Term]) -> None:
        """Index the subterms of ``formulas`` not indexed yet.  Since
        `iter_subterms` is prefix-stable, the ordinals equal those of
        one walk over the whole formula set."""
        for t in iter_subterms(formulas):
            if t in self.ordinal:
                continue
            self.ordinal[t] = len(self.ordinal)
            if t.kind is Kind.SELECT:
                self.reads.append(t)
            elif t.kind is Kind.STORE:
                self.stores.append(t)
                self.stores_over.setdefault(t.array, []).append(t)
            elif t.kind is Kind.CONST_ARRAY:
                self.const_arrays.append(t)
            elif t.kind is Kind.EQ and t.args[0].sort.is_array:
                self.array_eq_atoms.append(t)
                lhs, rhs = t.args
                if lhs is not rhs:
                    self.eqs_at.setdefault(lhs, []).append((t, rhs, True))
                    self.eqs_at.setdefault(rhs, []).append((t, lhs, False))

    def add_formula(self, f: Term) -> None:
        self.formulas.append(f)
        self._index([f])

    def ordinal_key(self, t: Term) -> int:
        return self.ordinal.get(t, len(self.ordinal) + t.id)

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
                 source: Term, rule: str) -> None:
        key = (dest, t)
        if key in self.steps:
            raise InternalError(f"propagation step {key} recorded twice")
        if self.debug:
            if source is not dest and (source, t) not in self.steps:
                raise InternalError(
                    "step source does not point at an earlier entry")
            if reason is not None and not self.interp.eval(reason):
                raise InternalError(
                    "step reason is false under the current interpretation")
        self.steps[key] = (reason, source)
        self.step_rule[key] = rule

    def reset(self) -> None:
        """Discard the candidate interpretation and all recorded steps."""
        self.interp = None
        self.steps.clear()
        self.step_rule.clear()
        self.crossed.clear()


def init_steps(cfg: Configuration) -> Configuration:
    """Record the self-evident starting points of propagation: every
    read at the array it reads from, a virtual read of every store at
    its updated index, and every constant array at itself."""
    if cfg.interp is None:
        raise InternalError("init_steps needs a candidate interpretation")
    m = cfg.manager
    for r in cfg.reads:
        if not cfg.has_step(r.array, r):
            cfg.set_step(r.array, r, None, r.array, INIT_READ)
    for s in cfg.stores:
        read = m.mk_select(s, s.index)
        if not cfg.has_step(s, read):
            cfg.set_step(s, read, None, s, INIT_WRITE)
    for c in cfg.const_arrays:
        if not cfg.has_step(c, c):
            cfg.set_step(c, c, None, c, INIT_CONST)
    return cfg


def exists_fresh_index(interp: Interpretation,
                       index_terms: Iterable[Term],
                       sort: Sort) -> bool:
    """True iff some value of ``sort`` differs from the value of every
    given index term under ``interp``."""
    used = {interp.value(k) for k in index_terms}
    return len(used) < domain_size(sort)


def _walk(cfg: Configuration, dest: Term,
          t: Term) -> tuple[list[Term], list[Term]]:
    """Follow the recorded source links of ``t`` from ``dest`` back to
    its origin.  Returns the reason literals, ordered origin-first, and
    the index terms of the stores crossed by unjustified hops, in walk
    order (destination-first)."""
    lits: list[Term] = []
    indices: list[Term] = []
    cur = dest
    while True:
        reason, src = cfg.step(cur, t)
        if src is cur:
            break
        if reason is not None:
            lits.append(reason)
        elif src.kind is Kind.STORE and src.array is cur:
            indices.append(src.index)
        elif cur.kind is Kind.STORE and cur.array is src:
            indices.append(cur.index)
        else:
            raise InternalError(
                f"unjustified hop {cur!r} <- {src!r} crosses no store")
        cur = src
    lits.reverse()
    return lits, indices


def _crossed(cfg: Configuration, dest: Term, t: Term) -> list[Term]:
    """The crossed store indices of ``_walk(cfg, dest, t)``, walked once
    per entry and saturation: entries are write-once until
    :meth:`Configuration.reset`, which clears the memo.  Callers must
    not mutate the returned list."""
    key = (dest, t)
    indices = cfg.crossed.get(key)
    if indices is None:
        indices = cfg.crossed[key] = _walk(cfg, dest, t)[1]
    return indices


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
    then defaults crossing stores; within one priority, entries are
    visited in the order they were recorded, and each entry tries its
    neighbours in formula order.  After every new step the scan
    restarts, which makes saturation deterministic.

    A scan reaches an entry's neighbours through the configuration's
    adjacency maps (`stores_over`, `eqs_at`) instead of every store and
    equality atom; each array equality atom is evaluated once per call,
    and each default entry's crossed store indices are walked once
    (`_crossed`).
    """
    interp = cfg.interp
    holds = {e for e in cfg.array_eq_atoms if interp.eval(e)}
    while _apply_one(cfg, holds):
        pass
    return cfg


def _apply_one(cfg: Configuration, holds: set[Term]) -> bool:
    """Record the first applicable step of the scan, if any.  The
    loops stop at the step they record, so they may iterate over the
    live map."""
    interp = cfg.interp
    m = cfg.manager
    steps = cfg.steps
    stores_over = cfg.stores_over

    # Priority 1: reads cross stores whose updated index differs.
    for dest, t in steps:
        if t.kind is not Kind.SELECT:
            continue
        if dest.kind is Kind.STORE and (dest.array, t) not in steps \
                and interp.value(t.index) != interp.value(dest.index):
            cfg.set_step(dest.array, t, m.mk_not(m.mk_eq(t.index, dest.index)),
                         dest, READ_DOWN)
            return True
        for s in stores_over.get(dest, ()):
            if (s, t) not in steps \
                    and interp.value(t.index) != interp.value(s.index):
                cfg.set_step(s, t, m.mk_not(m.mk_eq(t.index, s.index)),
                             dest, READ_UP)
                return True

    # Priority 2: anything propagated copies across a true equality.
    eqs_at = cfg.eqs_at
    for dest, t in steps:
        for e, other, to_right in eqs_at.get(dest, ()):
            if e not in holds or (other, t) in steps:
                continue
            if t.kind is Kind.SELECT:
                rule = READ_EQ_RIGHT if to_right else READ_EQ_LEFT
            else:
                rule = CONST_EQ_RIGHT if to_right else CONST_EQ_LEFT
            cfg.set_step(other, t, e, dest, rule)
            return True

    # Priority 3: defaults cross stores while a cell off the updated
    # indices still exists.
    for dest, t in steps:
        if t.kind is not Kind.CONST_ARRAY:
            continue
        sort = t.sort.index
        crossed = _crossed(cfg, dest, t)
        if dest.kind is Kind.STORE and (dest.array, t) not in steps \
                and exists_fresh_index(interp, crossed + [dest.index], sort):
            cfg.set_step(dest.array, t, None, dest, CONST_DOWN)
            return True
        for s in stores_over.get(dest, ()):
            if (s, t) not in steps \
                    and exists_fresh_index(interp, crossed + [s.index], sort):
                cfg.set_step(s, t, None, dest, CONST_UP)
                return True

    return False


# ---------------------------------------------------------------------------
# Conflict detection and lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConflictInfo:
    """A detected contradiction between propagated facts and the
    candidate interpretation, with the lemma that rules it out."""

    rule: str
    lemma: Term


def check_conflicts(cfg: Configuration, *,
                    witnessed: Optional[set[Term]] = None
                    ) -> Optional[ConflictInfo]:
    """Scan for a contradiction under the current interpretation.

    The four conflict kinds are scanned in a fixed order (read against
    a default, two reads at one array, a falsified array equality
    without a witness read, two defaults at one array) and the first
    hit produces one lemma.  The lemma is appended to the formula set
    and the propagation state is reset; ``witnessed`` carries the
    equality atoms that already received an extensionality witness and
    must outlive every reset.
    """
    info = _find_conflict(cfg, set() if witnessed is None else witnessed)
    if info is not None:
        cfg.add_formula(info.lemma)
        cfg.reset()
    return info


def _find_conflict(cfg: Configuration,
                   witnessed: set[Term]) -> Optional[ConflictInfo]:
    interp = cfg.interp
    m = cfg.manager

    # 1. A read reached a constant array whose default disagrees.
    for dest, t in cfg.steps:
        if dest.kind is Kind.CONST_ARRAY and t.kind is Kind.SELECT \
                and interp.value(t) != interp.value(dest.default):
            lits, _ = _walk(cfg, dest, t)
            lemma = _implication(m, lits, m.mk_eq(t, dest.default))
            return _checked(cfg, ConflictInfo(LEMMA_READ_OVER_CONST, lemma))

    # 2. Two reads reached one array, their indices agree, their values
    #    do not.  The hit is the first pair by when its later entry was
    #    recorded, then its earlier one.  Until the hit, the reads of one
    #    (array, index value) bucket all agree, so the bucket's first
    #    read is the hit's earlier entry.
    first: dict[tuple[Term, int], Term] = {}
    for dest, t2 in cfg.steps:
        if t2.kind is not Kind.SELECT:
            continue
        t1 = first.setdefault((dest, interp.value(t2.index)), t2)
        if t1 is t2 or interp.value(t1) == interp.value(t2):
            continue
        lits1, _ = _walk(cfg, dest, t1)
        lits2, _ = _walk(cfg, dest, t2)
        ante = lits1 + lits2
        if t1.index is not t2.index:
            ante.append(m.mk_eq(t1.index, t2.index))
        lemma = _implication(m, ante, m.mk_eq(t1, t2))
        return _checked(cfg, ConflictInfo(LEMMA_READ_CONGRUENCE, lemma))

    # 3. A falsified array equality that has no witness read yet.
    for e in cfg.array_eq_atoms:
        if e in witnessed or interp.eval(e):
            continue
        witnessed.add(e)
        lhs, rhs = e.args
        k = m.mk_const(f"__ext_k_{e.id}", lhs.sort.index)
        diff = m.mk_not(m.mk_eq(m.mk_select(lhs, k), m.mk_select(rhs, k)))
        lemma = m.mk_implies(m.mk_not(e), diff)
        return ConflictInfo(LEMMA_EXTENSIONALITY, lemma)

    # 4. Two constant arrays with different defaults reached one array
    #    and some cell escapes both updated-index sets.
    for dest, c1, c2 in _const_pairs(cfg):
        if cfg.ordinal_key(c2) < cfg.ordinal_key(c1):
            c1, c2 = c2, c1
        if interp.value(c1.default) == interp.value(c2.default):
            continue
        sort = c1.sort.index
        idx1, idx2 = _crossed(cfg, dest, c1), _crossed(cfg, dest, c2)
        if not exists_fresh_index(interp, idx1 + idx2, sort):
            continue
        ante = _walk(cfg, dest, c1)[0] + _walk(cfg, dest, c2)[0]
        multiset = (_canonical_indices(cfg, idx1)
                    + _canonical_indices(cfg, idx2))
        if multiset:
            ante.append(m.mk_not(
                m.mk_distinct_n(domain_size(sort), multiset)))
        lemma = _implication(m, ante, m.mk_eq(c1.default, c2.default))
        return _checked(cfg, ConflictInfo(LEMMA_CONST_CONGRUENCE, lemma))

    return None


def _const_pairs(cfg: Configuration):
    """Pairs of constant arrays propagated to one destination, ordered
    by when the later entry of the pair was recorded, then the earlier
    one."""
    earlier: dict[Term, list[Term]] = {}
    for dest, t in cfg.steps:
        if t.kind is Kind.CONST_ARRAY:
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


def _checked(cfg: Configuration, info: ConflictInfo) -> ConflictInfo:
    """In debug mode, insist that a lemma actually rules out the
    interpretation that produced it (witness lemmas are exempt: their
    fresh reads have no value yet)."""
    if cfg.debug and cfg.interp.eval(info.lemma):
        raise InternalError(
            f"{info.rule} lemma does not exclude the interpretation")
    return info


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------


def build_model(cfg: Configuration) -> Model:
    """Read a full model off a saturated, conflict-free configuration.

    Scalar constants take their interpretation values.  Array values
    are built over index classes: the values the interpretation gives
    to the index terms of the formula set, plus one class for all other
    indices.  Every read propagated to an array pins its index class,
    and every constant array propagated to it pins each class that
    differs from all crossed store indices to the default.  Pins are
    then shared across the store terms of the formula set — a store
    result and its base agree on every class except the stored index —
    and across the array equality atoms the interpretation satisfies,
    because a class left free in one array may be forced through such a
    link by a pin on the other side.  Any class still free afterwards
    holds the all-zero element.  Disagreeing pins are impossible after
    saturation, so they raise :class:`IllDefinedModel` to flag an
    engine bug.
    """
    interp = cfg.interp
    if interp is None:
        raise InternalError("build_model needs a candidate interpretation")
    cells = _CellSolver(cfg)
    model = Model()
    for t in iter_subterms(cfg.formulas):
        if t.kind is not Kind.CONSTANT:
            continue
        if t.sort.is_array:
            model.set(t, cells.table(t))
        else:
            model.set(t, interp.value(t))
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
        interp = cfg.interp
        self._parent: dict[tuple[Term, int], tuple[Term, int]] = {}
        self._value: dict[tuple[Term, int], int] = {}
        covered: dict[Sort, set[int]] = {}
        for t in cfg.reads + cfg.stores:
            covered.setdefault(t.index.sort, set()).add(interp.value(t.index))
        self._classes: dict[Sort, list[int]] = {
            sort: sorted(vals) + ([] if len(vals) == domain_size(sort)
                                  else [_REST])
            for sort, vals in covered.items()}
        for t in cfg.stores:
            at = interp.value(t.index)
            for x in self._classes_of(t.sort):
                if x != at:
                    self._union((t, x), (t.array, x))
        for e in cfg.array_eq_atoms:
            if interp.eval(e):
                lhs, rhs = e.args
                for x in self._classes_of(lhs.sort):
                    self._union((lhs, x), (rhs, x))
        for (dest, t) in cfg.steps:
            if t.kind is Kind.SELECT:
                self._pin((dest, interp.value(t.index)), interp.value(t))
            elif t.kind is Kind.CONST_ARRAY:
                blocked = {interp.value(k) for k in _crossed(cfg, dest, t)}
                val = interp.value(t.default)
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
    recorded once, in ``lemma_history`` as ``(rule, lemma)``; the
    refinement count and the per-rule counts are read off it."""

    iterations: int = 0
    lemma_history: list[tuple[str, Term]] = field(default_factory=list)
    pi_size: int = 0
    ground_conflicts: int = 0

    @property
    def refinements(self) -> int:
        return len(self.lemma_history)

    @property
    def lemma_counts(self) -> dict[str, int]:
        """Lemmas per rule, in order of each rule's first lemma."""
        counts: dict[str, int] = {}
        for rule, _ in self.lemma_history:
            counts[rule] = counts.get(rule, 0) + 1
        return counts

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
              debug_checks: bool = True,
              max_refinements: Optional[int] = None,
              on_saturation: Optional[Callable[[Configuration], None]] = None,
              ) -> SolveResult:
    """Decide the assertions and, when satisfiable, build a model.

    One ground encoding serves the whole run: each lemma is added to it
    as clauses, and the SAT core keeps what it learned.  ``seed`` fixes
    the ground solver's choices, ``budget`` caps the SAT conflicts of
    each candidate's search, counted afresh for every candidate
    (exhaustion yields verdict ``unknown``),
    ``max_refinements`` caps lemma iterations (exceeding it raises
    :class:`ResourceLimit`), and ``on_saturation`` is called with the
    configuration after every saturation, before conflicts are checked.
    Input nested too deeply for Python's recursion limit raises
    :class:`CaextError`.
    """
    try:
        assertions = list(assertions)
        flat = flatten(manager, assertions)
        cfg = Configuration(manager, flat.all_formulas, debug=debug_checks)
        stats = SolveStats()
        witnessed: set[Term] = set()
        session = GroundSession()
        while True:
            stats.iterations += 1
            ground = solve_ground(manager, cfg.formulas, seed=seed,
                                  budget=budget, session=session)
            stats.ground_conflicts += ground.conflicts
            if ground.verdict is None:
                return SolveResult("unknown", None, stats)
            if ground.verdict == "unsat":
                return SolveResult("unsat", None, stats)
            cfg.interp = ground.interpretation
            init_steps(cfg)
            propagate_fixpoint(cfg)
            stats.pi_size = len(cfg.steps)
            if on_saturation is not None:
                on_saturation(cfg)
            info = check_conflicts(cfg, witnessed=witnessed)
            if info is None:
                model = complete_model(build_model(cfg), assertions)
                if debug_checks:
                    for scope in (assertions, cfg.formulas):
                        outcome = validate_model(model, scope)
                        if not outcome:
                            raise InternalError(
                                "constructed model fails "
                                f"{outcome.failing_assertion!r}")
                return SolveResult("sat", model, stats)
            stats.lemma_history.append(
                (info.rule, substitute(manager, info.lemma, flat.definitions)))
            if max_refinements is not None \
                    and stats.refinements > max_refinements:
                raise ResourceLimit(
                    f"refinement limit of {max_refinements} exceeded")
    except RecursionError:
        raise CaextError("input is nested too deeply to process") from None
