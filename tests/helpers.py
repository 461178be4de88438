"""Shared builders for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import caext
import caext.engine
from caext import (Configuration, Kind, Model, Sort, TermManager, Term,
                   domain_size, eval_term, interpretation_count)
from caext.engine import _canonical_indices, _walk
from caext.ground import FormulaIndex, GroundSession


def src_env() -> dict[str, str]:
    """The environment for a child process that imports the same caext
    package as this test session."""
    env = dict(os.environ)
    src = str(Path(caext.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_module(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python -m caext.cli`` in a child process that imports the
    same caext package as this test session."""
    return subprocess.run([sys.executable, "-m", "caext.cli", *args],
                          capture_output=True, text=True, env=src_env(),
                          cwd=cwd, timeout=300)


def ground_session(m: TermManager, formulas, **settings) -> GroundSession:
    """A ground session over a fresh formula index of ``formulas``;
    ``settings`` are the session's ``seed`` and ``budget``."""
    return GroundSession(FormulaIndex(m, formulas), **settings)


def table_eval(values: dict[Term, int], f: Term) -> bool:
    """Truth of ``f`` over a candidate's table, as the engine checks a
    lemma: ``eval_term`` with no constant assigned, over a copy of the
    table as its cache, so a term with an entry is not entered."""
    return bool(eval_term(Model(), f, dict(values)))


@contextmanager
def watch_saturations(callback: Callable[[Configuration], None]
                      ) -> Iterator[None]:
    """Within the block, `check_sat` calls ``callback(cfg)`` after every
    saturation, before its conflict scan.  It wraps the module global
    ``caext.engine.propagate_fixpoint``, the name `check_sat` looks up
    at call time."""
    saturate = caext.engine.propagate_fixpoint

    def watched(cfg: Configuration) -> Configuration:
        saturate(cfg)
        callback(cfg)
        return cfg

    caext.engine.propagate_fixpoint = watched
    try:
        yield
    finally:
        caext.engine.propagate_fixpoint = saturate


@contextmanager
def counted_scans(scans: list) -> Iterator[None]:
    """Within the block, every conflict scan `check_sat` runs appends
    its result (a `ConflictInfo` or ``None``) to ``scans``.  It wraps
    the module global ``caext.engine.check_conflicts``."""
    scan = caext.engine.check_conflicts

    def counted(cfg: Configuration):
        info = scan(cfg)
        scans.append(info)
        return info

    caext.engine.check_conflicts = counted
    try:
        yield
    finally:
        caext.engine.check_conflicts = scan


@dataclass(frozen=True)
class ReasonTrace:
    """The justification for one propagated fact: the conjunction of
    the non-trivial literals along its propagation path, ordered from
    the origin of the path toward its destination.

    For a default-value fact the trace also carries the store indices
    crossed along *that same path*; the soundness claim — destination
    agrees with the default everywhere off the crossed indices — only
    holds for the literals and indices of one path taken together.
    """

    literals: tuple[Term, ...]
    updated_indices: tuple[Term, ...] = ()

    def formula(self, manager: TermManager) -> Term:
        if not self.literals:
            return manager.mk_value(manager.bool_sort, 1)
        if len(self.literals) == 1:
            return self.literals[0]
        return manager.mk_and(self.literals)


def compute_reason(cfg: Configuration, dest: Term, t: Term) -> ReasonTrace:
    """The justification for propagating ``t`` to ``dest``: the
    recorded path's literals and crossed store indices, a view over the
    engine's path walker."""
    lits, idx = _walk(cfg, dest, t)
    return ReasonTrace(tuple(lits), _canonical_indices(cfg, idx))


def read_crossings(cfg: Configuration) -> dict[tuple[Term, Term], Term]:
    """The literal the engine's path walker builds for every read step
    that crosses a store, keyed by the step: the last literal of the
    walk from that step."""
    return {(dest, t): _walk(cfg, dest, t)[0][-1]
            for (dest, t), (reason, _) in cfg.steps.items()
            if t.kind is Kind.SELECT and reason is not None
            and reason.kind is Kind.STORE}


def compute_updated_indices(cfg: Configuration, dest: Term,
                            const: Term) -> tuple[Term, ...]:
    """The index terms of all stores crossed while propagating the
    constant array ``const`` to ``dest``, in first-seen term order.

    A cell of ``dest`` is only known to hold the default of ``const``
    if its index differs from every index returned here.
    """
    return _canonical_indices(cfg, _walk(cfg, dest, const)[1])


@dataclass
class Example2:
    """The two-chain regression formula over BV2 indices and Bool
    elements, with all its constants exposed for per-test tweaks."""

    m: TermManager
    phi: list[Term] = field(default_factory=list)

    def __post_init__(self):
        m = self.m
        bv2 = m.bv_sort(2)
        b = m.bool_sort
        self.asort = m.array_sort(bv2, b)
        self.a = m.mk_const("a", self.asort)
        self.i1, self.j1 = m.mk_const("i1", bv2), m.mk_const("j1", bv2)
        self.i2, self.j2 = m.mk_const("i2", bv2), m.mk_const("j2", bv2)
        self.u1, self.u2 = m.mk_const("u1", b), m.mk_const("u2", b)
        self.u3, self.u4 = m.mk_const("u3", b), m.mk_const("u4", b)
        self.v, self.w = m.mk_const("v", b), m.mk_const("w", b)
        self.cv = m.mk_const_array(self.asort, self.v)
        self.cw = m.mk_const_array(self.asort, self.w)
        self.phi = [
            m.mk_eq(m.mk_store(self.cv, self.i1, self.u1),
                    m.mk_store(self.a, self.j1, self.u2)),
            m.mk_eq(m.mk_store(self.a, self.i2, self.u3),
                    m.mk_store(self.cw, self.j2, self.u4)),
        ]

    @property
    def v_ne_w(self) -> Term:
        return self.m.mk_not(self.m.mk_eq(self.v, self.w))


def store_chain(m: TermManager, base: Term, pairs) -> Term:
    """Nest stores over ``base``; ``pairs`` is a list of (index, value)."""
    t = base
    for i, u in pairs:
        t = m.mk_store(t, i, u)
    return t


def fresh_chain(m: TermManager, base: Term, n: int, tag: str) -> Term:
    """Nest ``n`` stores of fresh constants over ``base``."""
    idx_sort = base.sort.index
    elem_sort = base.sort.element
    pairs = [(m.mk_const(f"{tag}_i{k}", idx_sort),
              m.mk_const(f"{tag}_e{k}", elem_sort)) for k in range(n)]
    return store_chain(m, base, pairs)


def random_instance(seed: int, *, max_scalars: int = 4, max_arrays: int = 2,
                    n_assertions: int = 3):
    """A small deterministic random instance for engine cross-checks.

    Kept deliberately tiny so even the pointwise scalar oracle engine
    finishes instantly.
    """
    rng = random.Random(seed)
    m = TermManager()
    b = m.bool_sort
    idx_sort = rng.choice([b, m.bv_sort(1), m.bv_sort(2)])
    elem_sort = rng.choice([b, m.bv_sort(1)])
    asort = m.array_sort(idx_sort, elem_sort)

    arrays = [m.mk_const(f"a{k}", asort)
              for k in range(rng.randint(1, max_arrays))]
    idxs = [m.mk_const(f"i{k}", idx_sort)
            for k in range(rng.randint(1, max_scalars // 2))]
    elems = [m.mk_const(f"e{k}", elem_sort)
             for k in range(rng.randint(1, max_scalars // 2))]

    def some_index():
        if rng.random() < 0.3:
            from caext import domain_size
            return m.mk_value(idx_sort, rng.randrange(domain_size(idx_sort)))
        return rng.choice(idxs)

    def some_elem():
        if rng.random() < 0.3:
            from caext import domain_size
            return m.mk_value(elem_sort, rng.randrange(domain_size(elem_sort)))
        return rng.choice(elems)

    def array_term(depth: int) -> Term:
        r = rng.random()
        if depth <= 0 or r < 0.4:
            if r < 0.15:
                return m.mk_const_array(asort, some_elem())
            return rng.choice(arrays)
        return m.mk_store(array_term(depth - 1), some_index(), some_elem())

    def bool_term(depth: int) -> Term:
        r = rng.random()
        if depth <= 0 or r < 0.35:
            choice = rng.randrange(3)
            if choice == 0:
                return m.mk_eq(array_term(1), array_term(1))
            if choice == 1:
                return m.mk_eq(some_elem(),
                               m.mk_select(array_term(1), some_index()))
            return m.mk_eq(some_index(), some_index())
        if r < 0.55:
            return m.mk_not(bool_term(depth - 1))
        if r < 0.75:
            return m.mk_and([bool_term(depth - 1), bool_term(depth - 1)])
        return m.mk_or([bool_term(depth - 1), bool_term(depth - 1)])

    assertions = [bool_term(2) for _ in range(n_assertions)]
    return m, assertions


def structured_instance(seed: int, *, depth: int = 3,
                        n_assertions: int = 3):
    """A small deterministic instance in the shapes that reach the
    engine unflattened: ``or``, ``=>`` and ``ite`` in Boolean structure;
    scalar, array and Boolean ``ite`` in term positions; Boolean
    formulas as stored values and indices; ``distinct-at-least``; reads
    as indices, through an index-to-index array; and constant arrays
    over read defaults.  Formulas and their terms nest up to ``depth``
    deep.  Index sorts have at most four values and element sorts two,
    so ``oracle_solve`` enumerates every instance.
    """
    rng = random.Random(seed)
    m = TermManager()
    b = m.bool_sort
    isort = rng.choice([b, m.bv_sort(1), m.bv_sort(2)])
    esort = rng.choice([b, m.bv_sort(1)])
    asort, psort = m.array_sort(isort, esort), m.array_sort(isort, isort)
    consts: dict = {}
    # a second array only over the smaller index sorts keeps the oracle's
    # enumeration at most 2^18 interpretations
    arrays = rng.randint(1, 2) if domain_size(isort) == 2 else 1
    for name, sort, count in (("a", asort, arrays),
                              ("p", psort, 1), ("i", isort, 2),
                              ("e", esort, 1), ("q", b, 1)):
        consts.setdefault(sort, []).extend(
            m.mk_const(f"{name}{k}", sort) for k in range(count))
    arrays_to = {}
    for sort in (asort, psort):
        arrays_to.setdefault(sort.element, []).append(sort)

    def leaf(sort: Sort) -> Term:
        if rng.random() < 0.25:
            return m.mk_value(sort, rng.randrange(domain_size(sort)))
        return rng.choice(consts[sort])

    def scalar(sort: Sort, d: int) -> Term:
        r = rng.random()
        if d <= 0 or r < 0.3:
            return leaf(sort)
        if r < 0.7 and sort in arrays_to:
            a = array(rng.choice(arrays_to[sort]), d - 1)
            return m.mk_select(a, scalar(a.sort.index, d - 1))
        if r < 0.85 or not sort.is_bool:
            return m.mk_ite(formula(d - 1), scalar(sort, d - 1),
                            scalar(sort, d - 1))
        return formula(d - 1)

    def array(sort: Sort, d: int) -> Term:
        r = rng.random()
        if d <= 0 or r < 0.3:
            return rng.choice(consts[sort])
        if r < 0.45:
            return m.mk_const_array(sort, scalar(sort.element, d - 1))
        if r < 0.85:
            return m.mk_store(array(sort, d - 1), scalar(isort, d - 1),
                              scalar(sort.element, d - 1))
        return m.mk_ite(formula(d - 1), array(sort, d - 1),
                        array(sort, d - 1))

    def atom(d: int) -> Term:
        r = rng.random()
        if r < 0.3:
            sort = rng.choice([isort, esort])
            return m.mk_eq(scalar(sort, d), scalar(sort, d))
        if r < 0.55:
            sort = rng.choice([asort, psort])
            return m.mk_eq(array(sort, d), array(sort, d))
        if r < 0.75:
            args = [scalar(isort, d) for _ in range(rng.randint(2, 3))]
            return m.mk_distinct_n(rng.randint(1, len(args)), args)
        return scalar(b, d)

    def formula(d: int) -> Term:
        r = rng.random()
        if d <= 0 or r < 0.3:
            return atom(d)
        if r < 0.4:
            return m.mk_not(formula(d - 1))
        if r < 0.55:
            return m.mk_and([formula(d - 1), formula(d - 1)])
        if r < 0.7:
            return m.mk_or([formula(d - 1), formula(d - 1)])
        if r < 0.85:
            return m.mk_implies(formula(d - 1), formula(d - 1))
        return m.mk_ite(formula(d - 1), formula(d - 1), formula(d - 1))

    return m, [formula(depth) for _ in range(n_assertions)]


# The oracle enumerates at most this many interpretations of a
# `linked_cells_instance`, which keeps thousands of them quick to check.
_LINKED_CELLS_INTERPRETATIONS = 1 << 16


def linked_cells_instance(seed: int):
    """A small deterministic instance of array equalities over short
    store chains, the shape whose models need the model builder to link
    the cells a store shares with its base and the cells both sides of
    a satisfied array equality share.  A bv1 or bv2 index sort and a
    Bool, bv1 or bv2 element sort; 1-3 array, 1-3 index and 0-2
    element constants; each array term is 0-3 stores over a constant
    array (often with a non-zero default) or over an array constant;
    2-7 atoms, most of them array equalities and most of those
    asserted.  An instance whose constants have more than
    ``_LINKED_CELLS_INTERPRETATIONS`` interpretations is drawn again.
    """
    rng = random.Random(seed)
    while True:
        m = TermManager()
        isort = rng.choice([m.bv_sort(1), m.bv_sort(2)])
        esort = rng.choice([m.bool_sort, m.bv_sort(1), m.bv_sort(2)])
        asort = m.array_sort(isort, esort)
        arrays, indices, elements = (
            [m.mk_const(f"{name}{k}", sort) for k in range(rng.randint(*n))]
            for name, sort, n in (("a", asort, (1, 3)), ("i", isort, (1, 3)),
                                  ("e", esort, (0, 2))))

        def leaf(sort: Sort, consts: list[Term]) -> Term:
            if not consts or rng.random() < 0.4:
                return m.mk_value(sort, rng.randrange(domain_size(sort)))
            return rng.choice(consts)

        def array() -> Term:
            if rng.random() < 0.45:
                default = rng.randrange(1 if rng.random() < 0.7 else 0,
                                        domain_size(esort))
                out = m.mk_const_array(asort, m.mk_value(esort, default))
            else:
                out = rng.choice(arrays)
            for _ in range(rng.randint(0, 3)):
                out = m.mk_store(out, leaf(isort, indices),
                                 leaf(esort, elements))
            return out

        def literal() -> Term:
            if rng.random() < 0.6:
                atom, positive = m.mk_eq(array(), array()), 0.8
            elif rng.random() < 0.5:
                atom = m.mk_eq(m.mk_select(array(), leaf(isort, indices)),
                               leaf(esort, elements))
                positive = 0.5
            else:
                atom = m.mk_eq(leaf(isort, indices), leaf(isort, indices))
                positive = 0.5
            return atom if rng.random() < positive else m.mk_not(atom)

        assertions = [literal() for _ in range(rng.randint(2, 7))]
        if interpretation_count(assertions) <= _LINKED_CELLS_INTERPRETATIONS:
            return m, assertions


def benchmark_crafted(seed: int):
    """The benchmark's crafted ladder under ``seed`` (constants renamed,
    assertions shuffled), parsed from the texts it solves: one script
    per rung."""
    from perfbench.workloads import setup
    for op in setup("crafted", seed):
        yield caext.parse(op.run.keywords["text"])


def crafted_rung(counts: tuple[int, int], width: int, seed: int):
    """The z=0 `gen_crafted` chains with ``counts`` stores over
    ``width``-bit indices and Bool elements, plus ``v != w``, disguised
    under ``seed`` as the benchmark disguises its ladder (constants
    renamed, assertions shuffled): ``(manager, assertions)``."""
    from caext.benchgen import CraftedParams, gen_crafted
    from perfbench.workloads import _disguise
    m = TermManager()
    assertions = gen_crafted(
        m, CraftedParams(0, counts, m.bv_sort(width), m.bool_sort))
    assertions.append(m.mk_not(m.mk_eq(m.lookup_const("v"),
                                       m.lookup_const("w"))))
    return m, _disguise(m, assertions, random.Random(seed))


# Boolean chains past any recursion limit: each level wraps the inner
# formula in HEAD ... TAIL, around the innermost `p`.  With p and q both
# true every chain holds; with p false and q true every chain of even
# depth fails.
DEEP = 30_000
DEEP_CHAINS = {"not": ("(not ", ")"), "and": ("(and q ", ")"),
               "or": ("(or (not q) ", ")"), "=>": ("(=> q ", ")"),
               "ite": ("(ite q ", " (not q))")}


def deep_chain_text(kind: str, depth: int = DEEP) -> str:
    """A script asserting a ``depth``-deep ``kind`` chain over Booleans
    ``p`` and ``q``, with ``(check-sat)`` and ``(get-model)``."""
    head, tail = DEEP_CHAINS[kind]
    return ("(declare-const p Bool)\n(declare-const q Bool)\n(assert "
            + head * depth + "p" + tail * depth
            + ")\n(check-sat)\n(get-model)\n")


def witness_name_text(n: int, sort: str = "(_ BitVec 1)",
                      lazy: bool = False) -> str:
    """A sat script whose input constant ``__ext_k_<n>`` of ``sort``
    bears the engine's name for the witness index of an array equality
    atom: with ``n == 5`` and a bit-vector sort that atom is ``(= a
    b)``, and the script reads both arrays at the constant.  It asserts
    ``(not (= a b))``, whose witness goes in before the first candidate,
    or with ``lazy`` the same as ``(=> (= a b) false)``, whose witness
    comes from the conflict scan."""
    if sort == "Bool":
        use = f"(assert __ext_k_{n})\n"
    else:
        use = f"(assert (= (select a __ext_k_{n}) (select b __ext_k_{n})))\n"
    differ = "(=> (= a b) false)" if lazy else "(not (= a b))"
    return ("(declare-const a (Array (_ BitVec 1) Bool))\n"
            "(declare-const b (Array (_ BitVec 1) Bool))\n"
            f"(declare-const __ext_k_{n} {sort})\n"
            f"(assert {differ})\n" + use + "(check-sat)\n")


def lazy_witnesses(m: TermManager, assertions: list[Term]) -> list[Term]:
    """``assertions`` with each asserted ``(not e)``, ``e`` an array
    equality, weakened to ``(or (not e) lazy_p)``, and ``(not lazy_p)``
    asserted after them: the same constraints, but no witness of ``e``
    goes in before the first candidate."""
    p = m.mk_const("lazy_p", m.bool_sort)
    out = [m.mk_or([a, p])
           if a.kind is Kind.NOT and a.args[0].kind is Kind.EQ
           and a.args[0].args[0].sort.is_array else a
           for a in assertions]
    if out != assertions:
        out.append(m.mk_not(p))
    return out
