"""Propagation engine: saturation traces, conflict lemmas, model
construction, and the full refinement loop against the brute-force
oracle."""

from __future__ import annotations

from collections import Counter

import pytest

import caext.engine
import caext.ground
from caext import (
    Kind,
    OracleBounds,
    TermManager,
    domain_size,
    free_constants,
    oracle_solve,
    oracle_valid,
    validate_model,
)
from caext.engine import (
    Configuration,
    _checked,
    _find_conflict,
    _walk,
    build_model,
    check_conflicts,
    check_sat,
    init_steps,
    propagate_fixpoint,
)
from caext.benchgen import CraftedParams, gen_crafted, gen_fuzz
from caext.errors import InternalError, ResourceLimit, UndefinedStep
from caext.flatten import flatten
from caext.ground import FormulaIndex, GroundSession, solve_ground
from caext.terms import MAX_BV_WIDTH, postorder
from perfbench.tracing import ENGINE_NAMES

from helpers import (DEEP, DEEP_CHAINS, Example2, benchmark_crafted,
                     compute_reason, compute_updated_indices, crafted_rung,
                     deep_chain_text, ground_session, random_instance,
                     read_crossings, store_chain, structured_instance,
                     table_eval, watch_saturations, witness_name_text)
from reference_propagation import exists_fresh_index, reference_saturation

LOOSE = OracleBounds(max_free_constants=16, max_array_constants=6)


# ---------------------------------------------------------------------------
# Builders for the two-chain regression formula
# ---------------------------------------------------------------------------


class Chain:
    """Example2 plus its derived store/read terms and assertions."""

    def __init__(self):
        self.ex = ex = Example2(TermManager())
        m = self.m = ex.m
        self.s1 = m.mk_store(ex.cv, ex.i1, ex.u1)
        self.s2 = m.mk_store(ex.a, ex.j1, ex.u2)
        self.s3 = m.mk_store(ex.a, ex.i2, ex.u3)
        self.s4 = m.mk_store(ex.cw, ex.j2, ex.u4)
        self.eq12 = m.mk_eq(self.s1, self.s2)
        self.eq34 = m.mk_eq(self.s3, self.s4)
        self.r1 = m.mk_select(self.s1, ex.i1)
        self.r2 = m.mk_select(self.s2, ex.j1)
        self.r3 = m.mk_select(self.s3, ex.i2)
        self.r4 = m.mk_select(self.s4, ex.j2)
        self.assertions = [self.eq12, self.eq34, ex.v_ne_w]

    def interpretation(self, index_vals, elem_vals) -> dict:
        """A candidate's table; reads take the stored element of their
        own store, matching what the ground core enforces."""
        ex = self.ex
        values = {}
        for c, val in zip((ex.i1, ex.j1, ex.i2, ex.j2), index_vals):
            values[c] = val
        for c, val in zip((ex.u1, ex.u2, ex.u3, ex.u4, ex.v, ex.w),
                          elem_vals):
            values[c] = val
        for read, u in zip((self.r1, self.r2, self.r3, self.r4),
                           (ex.u1, ex.u2, ex.u3, ex.u4)):
            values[read] = values[u]
        # both atoms hold
        values[self.eq12] = values[self.eq34] = 1
        return values

    def configuration(self, values) -> Configuration:
        cfg = Configuration(self.m, self.assertions)
        cfg.values = values
        init_steps(cfg)
        propagate_fixpoint(cfg)
        return cfg


@pytest.fixture
def chain():
    return Chain()


def merged_interp(chain):
    """All indices collide, all stored elements agree, defaults differ."""
    return chain.interpretation((0, 0, 0, 0), (1, 1, 1, 1, 0, 1))


def spread_interp(chain):
    """All indices distinct; stored elements agree but differ from the
    first chain's default."""
    return chain.interpretation((0, 1, 2, 3), (1, 1, 1, 1, 0, 1))


def model_interp(chain):
    """All indices distinct and every read consistent with both
    defaults; saturates without conflict."""
    return chain.interpretation((0, 1, 2, 3), (0, 1, 0, 1, 1, 0))


def interpretation_queries(monkeypatch, instances):
    """Run `check_sat` on each instance.  Per run, return the lemmas
    that are not witness lemmas and every formula the engine asked
    ``eval_term`` to evaluate, in order, as ``("eval", f, lemma)`` for
    ``eval_term(model, f, table)`` asked while `_checked` checks
    ``lemma`` (``None`` outside it)."""
    evaluate = caext.engine.eval_term
    checked = caext.engine._checked
    asked, checking = [], []

    def counted_eval(model, f, cache=None):
        asked.append(("eval", f, checking[-1] if checking else None))
        return evaluate(model, f, cache)

    def noted_checked(cfg, rule, lemma):
        checking.append(lemma)
        try:
            return checked(cfg, rule, lemma)
        finally:
            checking.pop()

    monkeypatch.setattr(caext.engine, "eval_term", counted_eval)
    monkeypatch.setattr(caext.engine, "_checked", noted_checked)
    runs = []
    for m, assertions in instances:
        asked.clear()
        res = check_sat(m, assertions)
        lemmas = [lemma for rule, lemma in res.stats.lemmas
                  if rule != "extensionality"]
        runs.append((lemmas, list(asked)))
    return runs


# ---------------------------------------------------------------------------
# Saturation under the colliding-index candidate
# ---------------------------------------------------------------------------


class TestMergedIndexSaturation:
    def test_full_map_size(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        assert len(cfg.steps) == 22

    def test_initial_steps(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        for store, read in [(chain.s1, chain.r1), (chain.s2, chain.r2),
                            (chain.s3, chain.r3), (chain.s4, chain.r4)]:
            assert cfg.steps[(store, read)] == (None, store)
        ex = chain.ex
        assert cfg.steps[(ex.cv, ex.cv)] == (None, ex.cv)
        assert cfg.steps[(ex.cw, ex.cw)] == (None, ex.cw)

    def test_default_propagation_chain(self, chain):
        ex, cfg = chain.ex, chain.configuration(merged_interp(chain))
        expected = {
            (chain.s1, ex.cv): (chain.s1, ex.cv),
            (chain.s2, ex.cv): (chain.eq12, chain.s1),
            (ex.a, ex.cv): (chain.s2, chain.s2),
            (chain.s3, ex.cv): (chain.s3, ex.a),
            (chain.s4, ex.cv): (chain.eq34, chain.s3),
            (ex.cw, ex.cv): (chain.s4, chain.s4),
        }
        for key, step in expected.items():
            assert cfg.steps[key] == step

    def test_reverse_default_chain_also_saturates(self, chain):
        ex, cfg = chain.ex, chain.configuration(merged_interp(chain))
        assert cfg.steps[(ex.cv, ex.cw)] == (chain.s1, chain.s1)

    def test_reads_copied_across_equalities(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        assert cfg.steps[(chain.s2, chain.r1)] == (chain.eq12, chain.s1)
        assert cfg.steps[(chain.s1, chain.r2)] == (chain.eq12, chain.s2)
        assert cfg.steps[(chain.s4, chain.r3)] == (chain.eq34, chain.s3)
        assert cfg.steps[(chain.s3, chain.r4)] == (chain.eq34, chain.s4)

    def test_reason_across_whole_chain(self, chain):
        ex, cfg = chain.ex, chain.configuration(merged_interp(chain))
        trace = compute_reason(cfg, ex.cw, ex.cv)
        assert trace.literals == (chain.eq12, chain.eq34)
        assert trace.formula(chain.m) is chain.m.mk_and(
            [chain.eq12, chain.eq34])

    def test_reason_of_initial_step_is_trivial(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        trace = compute_reason(cfg, chain.s1, chain.r1)
        assert trace.literals == ()
        assert trace.formula(chain.m).value == 1

    def test_updated_indices_across_whole_chain(self, chain):
        ex, cfg = chain.ex, chain.configuration(merged_interp(chain))
        assert compute_updated_indices(cfg, ex.cw, ex.cv) == \
            (ex.i1, ex.j1, ex.i2, ex.j2)
        assert compute_updated_indices(cfg, chain.s1, ex.cv) == (ex.i1,)
        assert compute_updated_indices(cfg, ex.cv, ex.cv) == ()

    def test_reason_trace_carries_its_paths_indices(self, chain):
        ex, cfg = chain.ex, chain.configuration(merged_interp(chain))
        trace = compute_reason(cfg, ex.cw, ex.cv)
        assert trace.updated_indices == (ex.i1, ex.j1, ex.i2, ex.j2)
        assert compute_reason(cfg, chain.s1, chain.r1).updated_indices == ()

    def test_unset_key_raises(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        orphan = chain.m.mk_select(chain.s1, chain.ex.j2)
        with pytest.raises(UndefinedStep):
            compute_reason(cfg, chain.s1, orphan)
        with pytest.raises(UndefinedStep):
            compute_updated_indices(cfg, chain.s1, orphan)

    def test_conflict_is_default_congruence_with_exact_lemma(self, chain):
        ex, m = chain.ex, chain.m
        cfg = chain.configuration(merged_interp(chain))
        info = _find_conflict(cfg, set())
        assert info is not None
        assert info.rule == "const_congruence"
        expected = m.mk_implies(
            m.mk_and([chain.eq12, chain.eq34,
                      m.mk_not(m.mk_distinct_n(
                          4, [ex.i1, ex.j1, ex.i2, ex.j2]))]),
            m.mk_eq(ex.v, ex.w))
        assert info.lemmas == (expected,)

    def test_apply_appends_lemma_and_resets(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        before = len(cfg.formulas)
        info = check_conflicts(cfg)
        assert info.lemmas == (cfg.formulas[-1],)
        assert len(cfg.formulas) == before + 1
        assert cfg.values is None and not cfg.steps


# ---------------------------------------------------------------------------
# Saturation under the spread-index candidate
# ---------------------------------------------------------------------------


class TestSpreadIndexSaturation:
    def test_full_map_size(self, chain):
        cfg = chain.configuration(spread_interp(chain))
        assert len(cfg.steps) == 30

    def test_read_travels_to_first_default(self, chain):
        # The store crossing's reason is the store; the path walker
        # builds the literal that explains it when it writes a lemma.
        ex, m = chain.ex, chain.m
        cfg = chain.configuration(spread_interp(chain))
        assert cfg.steps[(ex.cv, chain.r2)] == (chain.s1, chain.s1)
        assert _walk(cfg, ex.cv, chain.r2)[0][-1] is \
            m.mk_not(m.mk_eq(ex.j1, ex.i1))

    def test_defaults_blocked_once_chain_is_fully_updated(self, chain):
        ex, cfg = chain.ex, chain.configuration(spread_interp(chain))
        assert (ex.cw, ex.cv) not in cfg.steps
        assert (ex.cv, ex.cw) not in cfg.steps
        assert not exists_fresh_index(
            cfg.values, (ex.i1, ex.j1, ex.i2, ex.j2), ex.i1.sort)

    def test_conflict_is_read_over_default_with_exact_lemma(self, chain):
        ex, m = chain.ex, chain.m
        cfg = chain.configuration(spread_interp(chain))
        info = _find_conflict(cfg, set())
        assert info is not None
        assert info.rule == "read_over_const"
        expected = m.mk_implies(
            m.mk_and([chain.eq12, m.mk_not(m.mk_eq(ex.j1, ex.i1))]),
            m.mk_eq(chain.r2, ex.v))
        assert info.lemmas[0] is expected

    def test_lemma_that_holds_under_its_candidate_is_refused(self, chain):
        # The spread candidate's read-over-const lemma is false under it
        # and holds under the conflict-free candidate, where `_checked`
        # refuses it: such a lemma would not rule its candidate out.
        cfg = chain.configuration(spread_interp(chain))
        info = _find_conflict(cfg, set())
        lemma = info.lemmas[0]
        assert _checked(cfg, info.rule, lemma) is lemma
        cfg = chain.configuration(model_interp(chain))
        with pytest.raises(InternalError, match="does not exclude"):
            _checked(cfg, info.rule, lemma)

    def test_reason_modes_agree_here(self, chain):
        ex = chain.ex
        cfg = chain.configuration(spread_interp(chain))
        trace = compute_reason(cfg, ex.cv, chain.r2)
        assert trace.literals == (
            chain.eq12, chain.m.mk_not(chain.m.mk_eq(ex.j1, ex.i1)))


# ---------------------------------------------------------------------------
# A conflict-free candidate and the model read off from it
# ---------------------------------------------------------------------------


class TestSaturatedModel:
    def test_no_conflict(self, chain):
        cfg = chain.configuration(model_interp(chain))
        assert _find_conflict(cfg, set()) is None

    def test_middle_array_table(self, chain):
        ex = chain.ex
        cfg = chain.configuration(model_interp(chain))
        model = build_model(cfg)
        assert model[ex.a] == (0, 0, 1, 1)

    def test_model_satisfies_assertions(self, chain):
        cfg = chain.configuration(model_interp(chain))
        model = build_model(cfg)
        assert validate_model(model, chain.assertions)

    def test_reason_currency_for_every_step(self, chain):
        cfg = chain.configuration(model_interp(chain))
        for dest, t in cfg.steps:
            for lit in compute_reason(cfg, dest, t).literals:
                assert table_eval(cfg.values, lit)


# ---------------------------------------------------------------------------
# Propagation-map bookkeeping
# ---------------------------------------------------------------------------


class TestPropagationMap:
    def test_steps_are_write_once(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        dest, t = next(iter(cfg.steps))
        with pytest.raises(InternalError):
            cfg.set_step(dest, t, None, dest)

    def test_false_reason_rejected(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        m, ex = chain.m, chain.ex
        bad = m.mk_not(m.mk_eq(ex.i1, ex.j1))  # i1 = j1 here
        fresh = m.mk_select(chain.s2, ex.i2)
        with pytest.raises(InternalError):
            cfg.set_step(ex.a, fresh, bad, chain.s2)

    @pytest.mark.parametrize("reason", ["bool_leaf", "false_atom"])
    def test_reason_must_be_an_array_equality_that_holds(self, reason):
        # The table also holds Bool leaves, so a reason valued 1 is not
        # enough: it must be an array equality atom of the index.
        m = TermManager()
        isort = m.bv_sort(2)
        asort = m.array_sort(isort, m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i, x = m.mk_const("i", isort), m.mk_const("x", m.bool_sort)
        r, e = m.mk_select(a, i), m.mk_eq(a, b)
        cfg = Configuration(m, [m.mk_or([e, x]), m.mk_eq(r, x)])
        values = {i: 0, x: 1, r: 1, e: 0}
        cfg.values = values
        init_steps(cfg)
        bad = x if reason == "bool_leaf" else e
        with pytest.raises(InternalError, match="atom that holds"):
            cfg.set_step(b, r, bad, a)
        assert (b, r) not in cfg.steps
        values[e] = 1
        cfg.set_step(b, r, e, a)
        assert cfg.step(b, r) == (e, a)

    def test_unjustified_hop_raises(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        m, ex = chain.m, chain.ex
        cz = m.mk_const_array(ex.a.sort, m.mk_const("z", m.bool_sort))
        cfg.set_step(cz, cz, None, cz)
        # s2 is a store over a, but no store links a to cz: the hop is
        # unjustified, so it is never recorded and no path reaches it.
        with pytest.raises(InternalError, match="does not join"):
            cfg.set_step(ex.a, cz, chain.s2, cz)
        with pytest.raises(UndefinedStep):
            compute_reason(cfg, ex.a, cz)
        with pytest.raises(UndefinedStep):
            compute_updated_indices(cfg, ex.a, cz)

    @pytest.mark.parametrize("reason, match", [
        # eq12 holds, but it relates s1 and s2, not s1 and s3
        ("eq12", "does not relate"),
        # s1 is the source, but it is a store over cv, not over s3
        ("s1", "does not join"),
        (None, "has no reason"),
    ])
    def test_hop_reason_must_join_its_ends(self, chain, reason, match):
        cfg = chain.configuration(merged_interp(chain))
        assert (chain.s1, chain.r1) in cfg.steps
        assert (chain.s3, chain.r1) not in cfg.steps
        entries = list(cfg.read_steps)
        with pytest.raises(InternalError, match=match):
            cfg.set_step(chain.s3, chain.r1,
                         reason and getattr(chain, reason), chain.s1)
        assert (chain.s3, chain.r1) not in cfg.steps
        assert cfg.read_steps == entries

    def test_no_arrays_means_no_steps(self):
        m = TermManager()
        x, y = m.mk_const("x", m.bv_sort(2)), m.mk_const("y", m.bv_sort(2))
        formulas = [m.mk_eq(x, y)]
        ground = solve_ground(ground_session(m, formulas))
        cfg = Configuration(m, formulas)
        cfg.values = ground.values
        init_steps(cfg)
        propagate_fixpoint(cfg)
        assert cfg.steps == {}

    def test_single_read_single_step(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a = m.mk_const("a", asort)
        i = m.mk_const("i", m.bv_sort(1))
        u = m.mk_const("u", m.bool_sort)
        formulas = [m.mk_eq(m.mk_select(a, i), u)]
        ground = solve_ground(ground_session(m, formulas))
        cfg = Configuration(m, formulas)
        cfg.values = ground.values
        init_steps(cfg)
        assert list(cfg.steps) == [(a, m.mk_select(a, i))]
        propagate_fixpoint(cfg)
        assert len(cfg.steps) == 1

    def test_storeless_default_hop_rejected_at_once(self, chain):
        cfg = chain.configuration(merged_interp(chain))
        m, ex = chain.m, chain.ex
        cz = m.mk_const_array(ex.a.sort, m.mk_const("z", m.bool_sort))
        cfg.set_step(cz, cz, None, cz)
        # No reason, and no store links a to cz: the hop is unjustified.
        with pytest.raises(InternalError, match="has no reason"):
            cfg.set_step(ex.a, cz, None, cz)
        assert (ex.a, cz) not in cfg.steps
        assert (ex.a, cz) not in cfg.default_steps

    def test_read_crossing_a_store_at_its_own_index_rejected(self):
        # A read's store crossing names the store it crosses, and
        # `set_step` checks the hop: the store's index value must differ
        # from the read's.
        m = TermManager()
        isort = m.bv_sort(2)
        a = m.mk_const("a", m.array_sort(isort, m.bool_sort))
        i, k = m.mk_const("i", isort), m.mk_const("k", isort)
        x = m.mk_const("x", m.bool_sort)
        s, r = m.mk_store(a, i, x), m.mk_select(a, k)
        cfg = Configuration(m, [m.mk_eq(m.mk_select(s, i), x),
                                m.mk_eq(r, x)])
        cfg.values = {i: 1, k: 1, x: 0, r: 0}
        init_steps(cfg)
        entries = list(cfg.read_steps)
        with pytest.raises(InternalError, match="at its own index"):
            cfg.set_step(s, r, s, a)
        assert (s, r) not in cfg.steps
        assert cfg.read_steps == entries

    def test_index_values_are_read_once_per_candidate(self, monkeypatch):
        # Each candidate's values are read off the SAT assignment once,
        # into the candidate's table, which holds the value of every
        # read's and store's index term.  Across the candidates (init_steps,
        # propagation, conflict scan and build_model) the engine reads
        # that table directly, and calls `eval_term` only in `_checked`,
        # once on each lemma.
        script = next(benchmark_crafted(1001))
        seen = []

        def table_holds_the_index_values(cfg):
            index_terms = {t.index for t in cfg.reads + cfg.stores}
            assert index_terms <= cfg.values.keys()
            seen.append(cfg.values)

        with watch_saturations(table_holds_the_index_values):
            (lemmas, asked), = interpretation_queries(
                monkeypatch, [(script.manager, script.assertions)])
        assert len({id(table) for table in seen}) == len(seen) > 1 and lemmas
        assert asked == [("eval", lemma, lemma) for lemma in lemmas]

    @pytest.mark.parametrize("family", ["fuzz", "crafted"])
    def test_paths_are_walked_only_for_lemmas(self, monkeypatch, family):
        # Within one check_sat, a candidate walks recorded paths back
        # only to write the lemmas it emits: at most two walks per lemma
        # of its batch, none for a witness lemma and none on the
        # accepted candidate.
        walk = caext.engine._walk
        initialise = caext.engine.init_steps
        scan = caext.engine.check_conflicts
        candidates = []

        def counted_walk(cfg, dest, t):
            candidates[-1][0] += 1
            return walk(cfg, dest, t)

        def noted_init_steps(cfg):
            candidates.append([0, None])
            return initialise(cfg)

        def noted_check_conflicts(cfg):
            info = scan(cfg)
            candidates[-1][1] = info
            return info

        monkeypatch.setattr(caext.engine, "_walk", counted_walk)
        monkeypatch.setattr(caext.engine, "init_steps", noted_init_steps)
        monkeypatch.setattr(caext.engine, "check_conflicts",
                            noted_check_conflicts)
        if family == "fuzz":
            instances = [gen_fuzz(seed) for seed in range(200)]
        else:
            script = next(benchmark_crafted(1001))
            instances = [(script.manager, script.assertions)]
        limits = {None: 0, "extensionality": 0}
        rules = Counter()
        for m, assertions in instances:
            candidates.clear()
            check_sat(m, assertions)
            for walks, info in candidates:
                rule = info.rule if info else None
                batch = len(info.lemmas) if info else 1
                assert walks <= limits.get(rule, 2) * batch, (rule, walks)
                rules[rule] += 1
        assert rules[None] > 0 and sum(rules.values()) > rules[None]


class TestReadCursor:
    """Each priority resumes at its cursor (into ``read_steps``,
    ``step_keys`` or ``default_keys``) instead of at the first entry;
    the steps must still come out in the order of the restarting
    reference scan."""

    @staticmethod
    def saturate(m, formulas, values):
        cfg = Configuration(m, formulas)
        cfg.values = values
        init_steps(cfg)
        propagate_fixpoint(cfg)
        fresh, crossings = reference_saturation(cfg)
        assert list(cfg.steps.items()) == list(fresh.steps.items())
        assert crossings == read_crossings(cfg)
        return cfg

    @staticmethod
    def sorts():
        m = TermManager()
        isort = m.bv_sort(2)
        return m, isort, m.array_sort(isort, m.bool_sort)

    def test_one_entry_crosses_two_stores(self):
        m, isort, asort = self.sorts()
        a = m.mk_const("a", asort)
        i, j, k = (m.mk_const(n, isort) for n in "ijk")
        x, y = m.mk_const("x", m.bool_sort), m.mk_const("y", m.bool_sort)
        s1, s2 = m.mk_store(a, i, x), m.mk_store(a, j, y)
        r = m.mk_select(a, k)
        cfg = self.saturate(m, [m.mk_eq(s1, s2), m.mk_eq(r, x)],
                            {i: 0, j: 1, k: 2, x: 1, y: 0, r: 1,
                             m.mk_eq(s1, s2): 0})
        # The entry (a, r) fires twice before the cursor moves past it.
        crossed = [dest for dest, t in cfg.steps if t is r]
        assert crossed == [a, s1, s2]

    def test_copy_past_the_end_then_crosses_a_store(self):
        m, isort, asort = self.sorts()
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i, k = m.mk_const("i", isort), m.mk_const("k", isort)
        x = m.mk_const("x", m.bool_sort)
        s = m.mk_store(b, i, x)
        r, w = m.mk_select(a, k), m.mk_select(s, i)
        cfg = self.saturate(m, [m.mk_eq(a, b), m.mk_eq(r, w)],
                            {i: 0, k: 1, x: 1, r: 1, w: 1,
                             m.mk_eq(a, b): 1})
        # No read crosses a store until priority 2 copies r to b, after
        # the cursor has passed every entry recorded at the start.
        assert list(cfg.steps)[-2:] == [(b, r), (s, r)]
        assert cfg.steps[(s, r)] == (s, b)
        assert _walk(cfg, s, r)[0] == [m.mk_eq(a, b),
                                       m.mk_not(m.mk_eq(k, i))]

    def test_one_entry_copies_across_two_equalities(self):
        m, isort, asort = self.sorts()
        a, b, c = (m.mk_const(n, asort) for n in "abc")
        k, x = m.mk_const("k", isort), m.mk_const("x", m.bool_sort)
        r = m.mk_select(a, k)
        eab, eac = m.mk_eq(a, b), m.mk_eq(a, c)
        cfg = self.saturate(m, [eab, eac, m.mk_eq(r, x)],
                            {k: 0, x: 1, r: 1, eab: 1, eac: 1})
        # The priority-2 cursor stays at (a, r) until both copies fire;
        # neither b nor c can pass r on to the other.
        assert list(cfg.steps) == [(a, r), (b, r), (c, r)]
        assert cfg.steps[(c, r)] == (eac, a)

    def test_one_default_crosses_two_stores(self):
        m, isort, asort = self.sorts()
        i, j = m.mk_const("i", isort), m.mk_const("j", isort)
        x, y, v = (m.mk_const(n, m.bool_sort) for n in "xyv")
        c = m.mk_const_array(asort, v)
        s1, s2 = m.mk_store(c, i, x), m.mk_store(c, j, y)
        cfg = self.saturate(m, [m.mk_eq(s1, s2)],
                            {i: 0, j: 1, x: 1, y: 1, v: 0,
                             m.mk_eq(s1, s2): 0})
        # The priority-3 cursor stays at (c, c) until the default has
        # crossed both stores; neither store leads to the other.
        assert [dest for dest, t in cfg.steps if t is c] == [c, s1, s2]
        assert cfg.default_steps[(s2, c)] == (frozenset({1}), 4)

    def test_saturation_work_is_linear_in_the_steps(self):
        # A restarting scan looks up a neighbour list per entry per new
        # step; the cursors look one up per visit, and each entry is
        # visited once plus once per step it records.
        class Counting(dict):
            gets = 0

            def get(self, *args):
                Counting.gets += 1
                return super().get(*args)

        m = TermManager()
        assertions = gen_crafted(m, CraftedParams(0, (400, 2), m.bv_sort(12),
                                                  m.bool_sort))
        cfg = Configuration(m, flatten(m, assertions).formulas)
        cfg.values = solve_ground(GroundSession(cfg)).values
        cfg.hops, cfg.eqs_at = Counting(cfg.hops), Counting(cfg.eqs_at)
        init_steps(cfg)
        propagate_fixpoint(cfg)
        assert len(cfg.steps) > 800
        assert Counting.gets <= 3 * len(cfg.steps)

    def test_read_over_two_stores_keeps_its_lemma_text(self):
        # The literals of a read's store crossings are built when the
        # lemma is written, origin-first, in the text that stored
        # reasons gave.
        m, isort, asort = self.sorts()
        i, j, k = (m.mk_const(n, isort) for n in "ijk")
        x, y, v = (m.mk_const(n, m.bool_sort) for n in "xyv")
        s1 = m.mk_store(m.mk_const_array(asort, v), i, x)
        s2 = m.mk_store(s1, j, y)
        r = m.mk_select(s2, k)
        cfg = self.saturate(m, [m.mk_eq(r, y)],
                            {i: 0, j: 1, k: 2, x: 0, y: 1, v: 0, r: 1,
                             m.mk_select(s1, i): 0,
                             m.mk_select(s2, j): 1})
        info = _find_conflict(cfg, set())
        assert info.rule == "read_over_const"
        assert [repr(lemma) for lemma in info.lemmas] == [
            "(=> (and (not (= k j)) (not (= k i))) (= (select (store "
            "(store ((as const (Array (_ BitVec 2) Bool)) v) i x) j y) k) "
            "v))"]


# ---------------------------------------------------------------------------
# Full refinement loop on the regression family
# ---------------------------------------------------------------------------


class TestChainVerdicts:
    def test_chain_with_distinct_defaults_is_sat(self, chain):
        res = check_sat(chain.m, chain.assertions)
        assert res.verdict == "sat"
        assert validate_model(res.model, chain.assertions)
        assert res.stats.lemma_counts.get("const_congruence", 0) >= 1

    def test_chain_with_equal_defaults_is_sat(self, chain):
        ex = chain.ex
        assertions = [chain.eq12, chain.eq34,
                      chain.m.mk_eq(ex.v, ex.w)]
        res = check_sat(chain.m, assertions)
        assert res.verdict == "sat"
        assert validate_model(res.model, assertions)

    def test_chain_with_collapsed_indices_is_unsat(self, chain):
        ex = chain.ex
        assertions = chain.assertions + [chain.m.mk_eq(ex.i1, ex.j1)]
        res = check_sat(chain.m, assertions)
        assert res.verdict == "unsat"

    def test_verdicts_match_oracle(self, chain):
        ex = chain.ex
        for extra in ([], [chain.m.mk_eq(ex.i1, ex.j1)],
                      [chain.m.mk_eq(ex.v, ex.w)]):
            assertions = chain.assertions + extra
            res = check_sat(chain.m, assertions)
            assert res.verdict == \
                oracle_solve(assertions, LOOSE).verdict


class TestConstArrayEqualities:
    @pytest.mark.parametrize("idx_width,elem_width",
                             [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_equal_const_arrays_with_distinct_defaults_unsat(
            self, idx_width, elem_width):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(idx_width), m.bv_sort(elem_width))
        v = m.mk_const("v", asort.element)
        w = m.mk_const("w", asort.element)
        assertions = [m.mk_eq(m.mk_const_array(asort, v),
                              m.mk_const_array(asort, w)),
                      m.mk_not(m.mk_eq(v, w))]
        assert check_sat(m, assertions).verdict == "unsat"

    def test_equal_const_arrays_force_equal_defaults(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bv_sort(2))
        v, w = m.mk_const("v", asort.element), m.mk_const("w", asort.element)
        assertions = [m.mk_eq(m.mk_const_array(asort, v),
                              m.mk_const_array(asort, w))]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert res.model[v] == res.model[w]

    def test_array_equals_const_array_gives_constant_table(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("a", asort)
        v = m.mk_const("v", m.bool_sort)
        assertions = [m.mk_eq(a, m.mk_const_array(asort, v)),
                      m.mk_eq(v, m.mk_value(m.bool_sort, 1))]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert res.model[a] == (1, 1, 1, 1)

    def test_read_of_a_const_array_is_its_default_in_every_candidate(self):
        # the ground encoding gives the read the default's bits, so no
        # candidate needs a lemma to learn it
        m = TermManager()
        idx = m.bv_sort(2)
        asort = m.array_sort(idx, m.bv_sort(2))
        d, i = m.mk_const("d", asort.element), m.mk_const("i", idx)
        read = m.mk_select(m.mk_const_array(asort, d), i)
        res = check_sat(m, [m.mk_not(m.mk_eq(read, d))])
        assert res.verdict == "unsat"
        assert res.stats.iterations == 1 and res.stats.refinements == 0

    def test_read_over_const_lemmas_cross_a_hop(self):
        # a read made on a constant array never conflicts with its
        # default, so every read-over-const lemma has an antecedent
        hits = 0
        for seed in range(200):
            m, assertions = gen_fuzz(seed)
            for rule, lemma in check_sat(m, assertions).stats.lemmas:
                if rule == "read_over_const":
                    assert lemma.kind is Kind.IMPLIES, seed
                    hits += 1
        assert hits > 0


class TestStoreCoverLaw:
    """A store chain over one constant array can only equal an array
    with a different default if its updates cover every index."""

    @pytest.mark.parametrize("updates", [1, 2, 3, 4])
    def test_cover_threshold(self, updates):
        m = TermManager()
        idx = m.bv_sort(2)
        asort = m.array_sort(idx, m.bool_sort)
        v, w = m.mk_const("v", m.bool_sort), m.mk_const("w", m.bool_sort)
        cv, cw = m.mk_const_array(asort, v), m.mk_const_array(asort, w)
        chain_term = store_chain(
            m, cv, [(m.mk_value(idx, k), w) for k in range(updates)])
        assertions = [m.mk_eq(chain_term, cw), m.mk_not(m.mk_eq(v, w))]
        res = check_sat(m, assertions)
        expected = "sat" if updates == domain_size(idx) else "unsat"
        assert res.verdict == expected
        assert res.verdict == oracle_solve(assertions, LOOSE).verdict


class TestScaleRungs:
    """The z=0 crafted rungs with ``v != w``: at the store-cover bound
    the chains meet, one store short they cannot.  After the
    `const_congruence` lemma, one saturation holds a read-over-const
    hit for every store on the ``v`` side, and the scan turns them all
    into lemmas, so a sat rung takes three candidates at any width."""

    @pytest.mark.parametrize("seed", [1001, 7, 0])
    @pytest.mark.parametrize("counts,width", [((8, 8), 4), ((16, 16), 5)])
    def test_sat_rung_takes_three_candidates(self, counts, width, seed):
        m, assertions = crafted_rung(counts, width, seed)
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert validate_model(res.model, assertions)
        assert res.stats.iterations == 3
        assert res.stats.lemma_counts == {"const_congruence": 1,
                                          "read_over_const": counts[0]}

    @pytest.mark.parametrize("seed", [1001, 7, 0])
    @pytest.mark.parametrize("counts,width", [((8, 7), 4), ((16, 15), 5)])
    def test_one_store_short_is_unsat(self, counts, width, seed):
        m, assertions = crafted_rung(counts, width, seed)
        assert check_sat(m, assertions).verdict == "unsat"

    def test_max_refinements_counts_candidates(self):
        # The second candidate ends in a batch of 8 lemmas; the cap
        # counts it once.
        m, assertions = crafted_rung((8, 8), 4, 1001)
        res = check_sat(m, assertions, max_refinements=2)
        assert res.verdict == "sat" and len(res.stats.lemmas) == 9
        m, assertions = crafted_rung((8, 8), 4, 1001)
        with pytest.raises(ResourceLimit):
            check_sat(m, assertions, max_refinements=1)


class TestExtensionalityWitness:
    def test_disequal_arrays_get_a_witness(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        assertions = [m.mk_not(m.mk_eq(a, b))]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        # the witness goes in before the first candidate
        assert res.stats.iterations == 1
        assert res.stats.lemma_counts == {"extensionality": 1}
        assert res.model[a] != res.model[b]

    def test_disequality_under_a_connective_gets_its_witness_lazily(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        p = m.mk_const("p", m.bool_sort)
        assertions = [m.mk_or([m.mk_not(m.mk_eq(a, b)), p]), m.mk_not(p)]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert res.stats.iterations == 2
        assert res.stats.lemma_counts == {"extensionality": 1}
        assert res.model[a] != res.model[b]

    def test_up_front_witness_is_not_a_loop_refinement(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        res = check_sat(m, [m.mk_not(m.mk_eq(a, b))], max_refinements=0)
        assert res.verdict == "sat"
        assert res.stats.refinements == 1

    def test_pointwise_equal_but_disequal_is_unsat(self):
        m = TermManager()
        idx = m.bv_sort(1)
        asort = m.array_sort(idx, m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        assertions = [m.mk_not(m.mk_eq(a, b))]
        for k in range(2):
            val = m.mk_value(idx, k)
            assertions.append(m.mk_eq(m.mk_select(a, val),
                                      m.mk_select(b, val)))
        res = check_sat(m, assertions)
        assert res.verdict == "unsat"
        assert res.stats.lemma_counts.get("extensionality", 0) == 1

    def test_witness_created_at_most_once_per_equality(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i = m.mk_const("i", m.bv_sort(2))
        assertions = [m.mk_not(m.mk_eq(a, b)),
                      m.mk_eq(m.mk_select(a, i), m.mk_select(b, i))]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert res.stats.lemma_counts.get("extensionality", 0) == 1

    def test_input_constant_named_like_a_witness(self):
        # The input constant __ext_k_<n> bears, for some n, the name of
        # the witness index of `(= a b)`; the verdict still agrees with
        # the brute-force oracle.
        for n in range(40):
            for lazy in (False, True):
                script = caext.parse(witness_name_text(n, lazy=lazy))
                res = check_sat(script.manager, script.assertions)
                assert res.verdict == oracle_solve(script.assertions,
                                                   LOOSE).verdict, (n, lazy)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_witness_name_skips_an_input_constant(self, lazy):
        # __ext_k_5 is an input constant; the witness of `(= a b)`, made
        # before the first candidate or by the conflict scan, takes the
        # next name by the rule and keeps it in a second run.
        script = caext.parse(witness_name_text(5, lazy=lazy))
        witnesses = []
        for _ in range(2):
            res = check_sat(script.manager, script.assertions)
            assert res.verdict == "sat"
            lemma, = (lemma for rule, lemma in res.stats.lemmas
                      if rule == "extensionality")
            if not lazy:  # an up-front witness is recorded first
                assert res.stats.lemmas[0][1] is lemma
            witnesses.append(lemma.args[1].args[0].args[0].index)
        assert witnesses[0] is witnesses[1]
        assert witnesses[0].name == "__ext_k_5_1"

    def test_witness_of_an_earlier_run_is_reused(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        e = m.mk_eq(a, b)
        witnesses = []
        for _ in range(2):
            res = check_sat(m, [m.mk_not(e)])
            (rule, lemma), = res.stats.lemmas
            # the lemma is `not e => not (select(a, k) = select(b, k))`
            assert res.stats.iterations == 1  # a witness made up front
            witnesses.append(lemma.args[1].args[0].args[0].index)
        assert witnesses[0] is witnesses[1]
        assert witnesses[0].name == f"__ext_k_{e.id}"

    def test_witnessed_survives_reset(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        e = m.mk_eq(a, b)
        cfg = Configuration(m, [m.mk_not(e)])
        cfg.values = solve_ground(
            ground_session(m, cfg.formulas)).values
        init_steps(cfg)
        propagate_fixpoint(cfg)
        info = check_conflicts(cfg)
        assert info.rule == "extensionality"
        assert cfg.values is None and not cfg.steps
        assert cfg.witnessed == {e}
        cfg.reset()
        assert cfg.witnessed == {e}

    def test_hand_loop_emits_one_witness_per_atom(self):
        witnesses = 0
        for seed in range(100):
            m, assertions = gen_fuzz(seed)
            cfg = Configuration(m, flatten(m, assertions).formulas)
            session = GroundSession(cfg)
            per_atom: Counter = Counter()
            for _ in range(200):
                ground = solve_ground(session)
                if ground.verdict == "unsat":
                    break
                cfg.values = ground.values
                init_steps(cfg)
                propagate_fixpoint(cfg)
                info = check_conflicts(cfg)
                if info is None:
                    break
                if info.rule == "extensionality":
                    # The lemma is `not e => (select(lhs, k) != ...)`.
                    lemma, = info.lemmas
                    per_atom[lemma.args[0].args[0]] += 1
            else:
                raise AssertionError(f"seed {seed} did not terminate")
            assert all(n == 1 for n in per_atom.values()), seed
            assert set(per_atom) == cfg.witnessed, seed
            witnesses += len(per_atom)
        assert witnesses > 0


# ---------------------------------------------------------------------------
# Model construction via the full loop
# ---------------------------------------------------------------------------


class TestModelsFromTheLoop:
    def test_single_read_pins_one_cell(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        a = m.mk_const("a", asort)
        i = m.mk_const("i", m.bv_sort(2))
        u = m.mk_const("u", m.bv_sort(2))
        assertions = [m.mk_eq(m.mk_select(a, i), u),
                      m.mk_eq(u, m.mk_value(m.bv_sort(2), 3))]
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        table = list(res.model[a])
        at = res.model[i]
        assert table[at] == 3
        del table[at]
        assert set(table) == {0}

    def test_every_sat_verdict_validates(self):
        for seed in range(40):
            m, assertions = random_instance(seed)
            res = check_sat(m, assertions)
            if res.verdict == "sat":
                assert validate_model(res.model, assertions), seed

    @pytest.mark.parametrize("fault", ["assertion", "lemma"])
    def test_a_model_that_fails_is_not_returned(self, monkeypatch, fault):
        # `a != b` gets its extensionality witness `__ext_k_<id>` before
        # the first candidate.  Making a equal b breaks the assertion;
        # moving the witness to the cell i, where a and b agree, breaks
        # only the lemma.
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i = m.mk_const("i", m.bv_sort(2))
        differ = m.mk_not(m.mk_eq(a, b))
        assertions = [differ, m.mk_eq(m.mk_select(a, i), m.mk_select(b, i))]
        witness = f"__ext_k_{differ.args[0].id}"

        def corrupted(cfg):
            model = build_model(cfg)
            if fault == "assertion":
                model.set(a, model[b])
            else:
                model.set(m.lookup_const(witness), model[i])
            return model

        monkeypatch.setattr(caext.engine, "build_model", corrupted)
        with pytest.raises(InternalError) as e:
            check_sat(m, assertions)
        k = m.lookup_const(witness)
        lemma = m.mk_implies(differ, m.mk_not(
            m.mk_eq(m.mk_select(a, k), m.mk_select(b, k))))
        first = differ if fault == "assertion" else lemma
        assert str(e.value) == f"constructed model fails {first!r}"


# ---------------------------------------------------------------------------
# Differential testing against the oracle
# ---------------------------------------------------------------------------


class TestOracleAgreement:
    @pytest.mark.parametrize("first_seed", [0, 60])
    def test_random_instances(self, first_seed):
        for seed in range(first_seed, first_seed + 60):
            m, assertions = random_instance(seed)
            res = check_sat(m, assertions)
            want = oracle_solve(assertions, LOOSE).verdict
            assert res.verdict == want, f"seed {seed}"
            if res.verdict == "sat":
                assert validate_model(res.model, assertions), seed

    def test_every_emitted_lemma_is_valid(self, chain):
        res = check_sat(chain.m, chain.assertions)
        assert res.stats.lemmas
        for rule, lemma in res.stats.lemmas:
            assert oracle_valid(lemma, LOOSE), rule


def _shape(t):
    """The shape `structured_instance` promises that ``t`` has, if any."""
    if t.kind is Kind.ITE:
        return "ite/" + ("bool" if t.sort.is_bool
                         else "array" if t.sort.is_array else "scalar")
    if t.kind is Kind.SELECT and t.index.kind is Kind.SELECT:
        return "read as index"
    if t.kind is Kind.CONST_ARRAY and t.default.kind is Kind.SELECT:
        return "const array over a read"
    if t.kind is Kind.SELECT and t.array.kind is Kind.STORE:
        return "read over a store"
    return t.kind.name


class TestStructuredShapes:
    """Nested reads and stores reach the engine as written; only ites
    and Boolean terms in term positions are named."""

    SEEDS = range(500)

    def test_agrees_with_the_oracle(self):
        verdicts = Counter()
        for seed in self.SEEDS:
            m, assertions = structured_instance(seed)
            res = check_sat(m, assertions)
            want = oracle_solve(assertions, LOOSE).verdict
            assert res.verdict == want, f"seed {seed}"
            if want == "sat":
                assert validate_model(res.model, assertions), seed
            verdicts[want] += 1
        assert min(verdicts["sat"], verdicts["unsat"]) >= 100, verdicts

    def test_the_instances_hold_every_shape(self):
        shapes = Counter(
            _shape(t) for seed in self.SEEDS
            for t in postorder(structured_instance(seed)[1]))
        for shape in ("OR", "IMPLIES", "ite/bool", "ite/scalar",
                      "ite/array", "DISTINCT_N", "read as index",
                      "const array over a read", "read over a store"):
            assert shapes[shape] >= 20, shape


# ---------------------------------------------------------------------------
# Determinism, budgets, limits
# ---------------------------------------------------------------------------


class TestLoopControls:
    def test_deterministic_across_runs(self):
        outcomes = []
        for _ in range(2):
            m, assertions = random_instance(7)
            res = check_sat(m, assertions, seed=3)
            summary = (res.verdict, res.stats.refinements,
                       [rule for rule, _ in res.stats.lemmas])
            if res.model is not None:
                summary += (sorted((c.name, val)
                                   for c, val in res.model.items()),)
            outcomes.append(summary)
        assert outcomes[0] == outcomes[1]

    def test_lemma_history_is_the_lemma_list(self):
        # flatten names no read or store, so the lemmas are already over
        # the input's terms, and `lemma_history` is `lemmas` itself.
        script = next(benchmark_crafted(1001))
        stats = check_sat(script.manager, script.assertions).stats
        assert stats.lemmas and stats.lemma_history is stats.lemmas
        inputs = set(free_constants(script.assertions))
        for _, lemma in stats.lemmas:
            for c in free_constants([lemma]):
                assert c in inputs or c.name.startswith("__ext_k_"), c

    def test_seeds_do_not_change_verdicts(self, chain):
        verdicts = {check_sat(chain.m, chain.assertions, seed=s).verdict
                    for s in range(3)}
        assert verdicts == {"sat"}

    def test_ground_budget_exhaustion_reports_unknown(self):
        m = TermManager()
        consts = [m.mk_const(f"x{k}", m.bv_sort(3)) for k in range(8)]
        assertions = [m.mk_distinct_n(8, consts)]
        res = check_sat(m, assertions, budget=0)
        assert res.verdict == "unknown"
        assert res.model is None

    def test_distinct_constants_at_the_width_limit(self):
        m = TermManager()
        x, y = (m.mk_const(n, m.bv_sort(MAX_BV_WIDTH)) for n in "xy")
        assertions = [m.mk_not(m.mk_eq(x, y))]  # (distinct x y)
        res = check_sat(m, assertions)
        assert res.verdict == "sat"
        assert validate_model(res.model, assertions)

    def test_refinement_limit_raises(self, chain):
        with pytest.raises(ResourceLimit):
            check_sat(chain.m, chain.assertions, max_refinements=0)

    def test_saturation_hook_sees_every_candidate(self, chain):
        sizes = []
        with watch_saturations(lambda cfg: sizes.append(len(cfg.steps))):
            res = check_sat(chain.m, chain.assertions)
        assert len(sizes) == res.stats.iterations
        assert all(n > 0 for n in sizes)

    def test_deep_nesting_is_answered(self):
        m = TermManager()
        p = m.mk_const("p", m.bool_sort)
        f = p
        for _ in range(DEEP):
            f = m.mk_not(f)
        res = check_sat(m, [f])
        assert res.verdict == "sat"
        assert res.model[p] == 1

    def test_read_across_a_deep_store_chain_is_answered(self):
        # The read at k crosses every store at i down to the base, and
        # the lemma's path walk does not recurse either.
        m = TermManager()
        bv2 = m.bv_sort(2)
        a = m.mk_const("a", m.array_sort(bv2, bv2))
        i, k, u = (m.mk_const(name, bv2) for name in "iku")
        chain = a
        for _ in range(DEEP):
            chain = m.mk_store(chain, i, u)
        differ = m.mk_not(m.mk_eq(m.mk_select(chain, k), m.mk_select(a, k)))
        res = check_sat(m, [m.mk_not(m.mk_eq(i, k)), differ])
        assert res.verdict == "unsat"
        assert res.stats.lemma_counts == {"read_congruence": 1}

    @pytest.mark.parametrize("kind", ["and", "or", "=>", "ite"])
    def test_deep_boolean_chain_is_answered(self, kind):
        # no walk from the formula to the verdict recurses
        script = caext.parse(deep_chain_text(kind))
        res = check_sat(script.manager, script.assertions)
        assert res.verdict == "sat"
        assert validate_model(res.model, script.assertions)

    def test_solve_ground_looked_up_once_per_iteration(self, monkeypatch):
        # check_sat must resolve solve_ground in caext.engine's globals and
        # call it once per iteration, passing one session for the run.
        import caext.engine as engine
        sessions = []

        def counting(session):
            sessions.append(session)
            return solve_ground(session)

        monkeypatch.setattr(engine, "solve_ground", counting)
        most = 0
        for seed in range(20):
            m, assertions = random_instance(seed)
            sessions.clear()
            res = check_sat(m, assertions)
            assert len(sessions) == res.stats.iterations, seed
            assert all(s is sessions[0] for s in sessions), seed
            most = max(most, res.stats.iterations)
        assert most > 2

    # check_sat builds a model of every input constant itself, so it
    # no longer calls complete_model
    @pytest.mark.parametrize("name", [n for n in ENGINE_NAMES
                                      if n != "complete_model"])
    def test_engine_names_looked_up_at_call_time(self, monkeypatch, name):
        # The benchmark's tracer and `watch_saturations` replace these
        # module globals of caext.engine; check_sat must call them.
        import caext.engine as engine
        calls = []
        original = getattr(engine, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
        m, assertions = gen_fuzz(1)
        assert check_sat(m, assertions).verdict == "sat"
        assert calls


class TestFormulaIndex:
    def test_lemma_index_matches_fresh_configuration(self, chain):
        runs = [(chain.m, chain.assertions)]
        runs += [random_instance(seed) for seed in range(30)]
        names = ("reads", "stores", "const_arrays", "array_eq_atoms",
                 "hops", "eqs_at")

        def matches_fresh(cfg):
            # Every saturation but the first follows a lemma.
            fresh = Configuration(cfg.manager, cfg.formulas)
            assert list(cfg.ordinal.items()) == list(fresh.ordinal.items())
            for name in names:
                assert getattr(cfg, name) == getattr(fresh, name), name

        most = 0
        for m, assertions in runs:
            with watch_saturations(matches_fresh):
                res = check_sat(m, assertions)
            most = max(most, res.stats.refinements)
        assert most >= 3

    @staticmethod
    def instances(family):
        if family == "fuzz":
            return [gen_fuzz(seed) for seed in range(200)]
        script = next(benchmark_crafted(1001))
        return [(script.manager, script.assertions)]

    def test_index_holds_every_input_constant(self):
        # flatten names every operand in a definition or a guard, so the
        # index of its formulas holds every constant of the input and
        # build_model alone assigns them all
        scripts = [script for seed in (1001, 7)
                   for script in benchmark_crafted(seed)]
        scripts += [caext.parse(deep_chain_text(kind)) for kind in DEEP_CHAINS]
        instances = [gen_fuzz(seed) for seed in range(500)]
        instances += [(s.manager, s.assertions) for s in scripts]
        for m, assertions in instances:
            index = FormulaIndex(m, flatten(m, assertions).formulas)
            assert set(free_constants(assertions)) <= set(index.constants)

    @pytest.mark.parametrize("family", ["fuzz", "crafted"])
    def test_each_subterm_is_walked_once_per_run(self, monkeypatch, family):
        # Over one check_sat run, the engine and the ground layer share
        # one index, whose walk visits each subterm of each formula once,
        # and neither walks the formulas again.  Every term walk of the
        # two modules goes through a walker they import by name, so each
        # such name is replaced by one that counts what it visits.
        walkers = [(module, "postorder")
                   for module in (caext.engine, caext.ground)
                   if hasattr(module, "postorder")]
        assert (caext.ground, "postorder") in walkers
        visits: Counter = Counter()
        indexes = {}

        def counted(walk):
            def walked(roots, *args):
                out = list(walk(roots, *args))
                visits.update(out)
                return out
            return walked

        for module, name in walkers:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        add_formula = FormulaIndex.add_formula

        def noted(index, f):
            indexes[id(index)] = index
            return add_formula(index, f)

        monkeypatch.setattr(FormulaIndex, "add_formula", noted)
        lemmas = 0
        for m, assertions in self.instances(family):
            visits.clear()
            indexes.clear()
            res = check_sat(m, assertions)
            (index,) = indexes.values()
            assert visits == Counter(postorder(index.formulas))
            lemmas += res.stats.refinements
        assert lemmas > 0

    @pytest.mark.parametrize("family", ["fuzz", "crafted"])
    def test_array_equalities_are_evaluated_once_per_candidate(
            self, monkeypatch, family):
        # Each array equality atom's truth is read off the SAT assignment
        # once per candidate, into the candidate's table.  No atom is
        # evaluated: during check_sat, the engine calls `eval_term`
        # only in `_checked`, once on each lemma that is not a witness
        # lemma.
        runs = interpretation_queries(monkeypatch, self.instances(family))
        for lemmas, asked in runs:
            assert asked == [("eval", lemma, lemma) for lemma in lemmas]
        assert any(lemmas for lemmas, _ in runs)

    def test_adjacency(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i = m.mk_const("i", m.bool_sort)
        s1, s2 = m.mk_store(a, i, i), m.mk_store(a, i, m.mk_not(i))
        e_aa, e_ba, e_s = m.mk_eq(a, a), m.mk_eq(b, a), m.mk_eq(s1, s2)
        cfg = Configuration(m, [e_aa, e_ba, e_s])
        assert cfg.hops == {a: [(s1, s1), (s2, s2)],
                            s1: [(a, s1)], s2: [(a, s2)]}
        assert cfg.eqs_at == {b: [(e_ba, a)], a: [(e_ba, b)],
                              s1: [(e_s, s2)], s2: [(e_s, s1)]}
        # Formulas added later extend the maps in place; a store's hop
        # down to its base stays first.
        s3 = m.mk_store(s1, i, i)
        e_new = m.mk_eq(a, s3)
        cfg.add_formula(m.mk_or([e_new, e_ba]))
        fresh = Configuration(m, cfg.formulas)
        assert cfg.hops == fresh.hops
        assert cfg.hops[s1] == [(a, s1), (s3, s3)]
        assert cfg.hops[s3] == [(s1, s3)]
        assert cfg.eqs_at == fresh.eqs_at
        assert cfg.eqs_at[a][-1] == (e_new, s3)
