"""Reference propagator and conflict scan.

This is the restart-scan propagation and the conflict scan that caext
used before the engine reached neighbours through its adjacency maps,
memoised crossed indices and bucketed the read-congruence scan: every
scan walks every store and every array equality atom for every entry,
every default entry's path is walked again on every scan, and two reads
at one array are found by sorting every same-destination pair.  It is
kept only so that tests can check that the engine records the same
steps, in the same order, and finds the same conflicts.

Like the engine, it records the crossed store as the reason of a store
crossing.  It keeps the literal ``not (= i k)`` that explains each read's
crossing, made when the hop is made, so that tests can compare it with
the literal the engine's path walker builds from the recorded store
when it writes a lemma.
A witness lemma is the engine's `_witness_lemma`, so both scans name the
witness index by one rule.
"""

from __future__ import annotations

from typing import Iterable, Optional

from caext import Kind, Sort, Term, domain_size
from caext.engine import (
    LEMMA_CONST_CONGRUENCE,
    LEMMA_EXTENSIONALITY,
    LEMMA_READ_CONGRUENCE,
    LEMMA_READ_OVER_CONST,
    Configuration,
    ConflictInfo,
    _canonical_indices,
    _checked,
    _implication,
    _walk,
    _witness_lemma,
    init_steps,
)

from helpers import table_eval


def reference_saturation(cfg: Configuration) -> tuple[
        Configuration, dict[tuple[Term, Term], Term]]:
    """A fresh configuration over ``cfg``'s formulas and candidate,
    saturated by the reference propagator, and the literal
    ``not (= i k)`` that explains each read's store crossing, keyed by
    the step it explains."""
    fresh = Configuration(cfg.manager, cfg.formulas)
    fresh.values = cfg.values
    init_steps(fresh)
    crossings: dict[tuple[Term, Term], Term] = {}
    while _apply_one(fresh, crossings):
        pass
    return fresh, crossings


def reference_conflict(cfg: Configuration,
                       witnessed: set[Term]) -> Optional[ConflictInfo]:
    """The reference conflict scan on a copy of ``witnessed``."""
    return _find_conflict(cfg, set(witnessed))


def exists_fresh_index(values: dict[Term, int],
                       index_terms: Iterable[Term],
                       sort: Sort) -> bool:
    """True iff some value of ``sort`` differs from the value of every
    given index term in the candidate's table ``values``."""
    used = {values[k] for k in index_terms}
    return len(used) < domain_size(sort)


def _eq_other_side(eq_atom: Term, node: Term) -> Optional[Term]:
    lhs, rhs = eq_atom.args
    if lhs is node and rhs is not node:
        return rhs
    if rhs is node and lhs is not node:
        return lhs
    return None


def _apply_one(cfg: Configuration,
               crossings: dict[tuple[Term, Term], Term]) -> bool:
    values = cfg.values
    m = cfg.manager
    entries = list(cfg.steps)

    # Priority 1: reads cross stores whose updated index differs.
    for dest, t in entries:
        if t.kind is not Kind.SELECT:
            continue
        i = t.index
        if dest.kind is Kind.STORE and not cfg.has_step(dest.array, t) \
                and values[i] != values[dest.index]:
            cfg.set_step(dest.array, t, dest, dest)
            crossings[(dest.array, t)] = m.mk_not(m.mk_eq(i, dest.index))
            return True
        for s in cfg.stores:
            if s.array is dest and not cfg.has_step(s, t) \
                    and values[i] != values[s.index]:
                cfg.set_step(s, t, s, dest)
                crossings[(s, t)] = m.mk_not(m.mk_eq(i, s.index))
                return True

    # Priority 2: anything propagated copies across a true equality.
    for dest, t in entries:
        for e in cfg.array_eq_atoms:
            other = _eq_other_side(e, dest)
            if other is None or cfg.has_step(other, t):
                continue
            if not table_eval(values, e):
                continue
            cfg.set_step(other, t, e, dest)
            return True

    # Priority 3: defaults cross stores while a cell off the updated
    # indices still exists.
    for dest, t in entries:
        if t.kind is not Kind.CONST_ARRAY:
            continue
        sort = t.sort.index
        _, crossed = _walk(cfg, dest, t)
        if dest.kind is Kind.STORE and not cfg.has_step(dest.array, t) \
                and exists_fresh_index(values, crossed + [dest.index], sort):
            cfg.set_step(dest.array, t, dest, dest)
            return True
        for s in cfg.stores:
            if s.array is dest and not cfg.has_step(s, t) \
                    and exists_fresh_index(values, crossed + [s.index], sort):
                cfg.set_step(s, t, s, dest)
                return True

    return False


def _find_conflict(cfg: Configuration,
                   witnessed: set[Term]) -> Optional[ConflictInfo]:
    values = cfg.values
    m = cfg.manager

    # 1. A read reached a constant array whose default disagrees: every
    #    hit gives a lemma.
    hits = []
    for dest, t in cfg.steps:
        if dest.kind is Kind.CONST_ARRAY and t.kind is Kind.SELECT \
                and values[t] != values[dest.default]:
            lits, _ = _walk(cfg, dest, t)
            lemma = _implication(m, lits, m.mk_eq(t, dest.default))
            hits.append(_checked(cfg, LEMMA_READ_OVER_CONST, lemma))
    if hits:
        return ConflictInfo(LEMMA_READ_OVER_CONST, tuple(hits))

    pos = {key: k for k, key in enumerate(cfg.steps)}

    # 2. Two reads reached one array, their indices agree, their values
    #    do not.
    for dest, t1, t2 in _entry_pairs(cfg, pos, Kind.SELECT):
        if values[t1.index] != values[t2.index]:
            continue
        if values[t1] == values[t2]:
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
        if e in witnessed or table_eval(values, e):
            continue
        witnessed.add(e)
        return ConflictInfo(LEMMA_EXTENSIONALITY, (_witness_lemma(cfg, e),))

    # 4. Two constant arrays with different defaults reached one array
    #    and some cell escapes both updated-index sets.
    for dest, c1, c2 in _entry_pairs(cfg, pos, Kind.CONST_ARRAY):
        if cfg.ordinal_key(c2) < cfg.ordinal_key(c1):
            c1, c2 = c2, c1
        if values[c1.default] == values[c2.default]:
            continue
        sort = c1.sort.index
        lits1, idx1 = _walk(cfg, dest, c1)
        lits2, idx2 = _walk(cfg, dest, c2)
        if not exists_fresh_index(values, idx1 + idx2, sort):
            continue
        ante = lits1 + lits2
        multiset = (_canonical_indices(cfg, idx1)
                    + _canonical_indices(cfg, idx2))
        if multiset:
            ante.append(m.mk_not(
                m.mk_distinct_n(domain_size(sort), multiset)))
        lemma = _implication(m, ante, m.mk_eq(c1.default, c2.default))
        return ConflictInfo(LEMMA_CONST_CONGRUENCE,
                            (_checked(cfg, LEMMA_CONST_CONGRUENCE, lemma),))

    return None


def _entry_pairs(cfg: Configuration, pos: dict[tuple[Term, Term], int],
                 kind: Kind):
    """Pairs of propagation entries of one kind sharing a destination,
    ordered by when the later entry of the pair was recorded."""
    by_dest: dict[Term, list[Term]] = {}
    for dest, t in cfg.steps:
        if t.kind is kind:
            by_dest.setdefault(dest, []).append(t)
    pairs = []
    for dest, ts in by_dest.items():
        for late in range(1, len(ts)):
            for early in range(late):
                pairs.append((pos[(dest, ts[late])],
                              pos[(dest, ts[early])],
                              dest, ts[early], ts[late]))
    pairs.sort(key=lambda q: (q[0], q[1]))
    for _, _, dest, t1, t2 in pairs:
        yield dest, t1, t2
