"""Cross-cutting soundness properties, checked against the brute-force
oracle on every saturated configuration of a driven refinement loop:

* reason currency — every reason literal holds under the candidate;
* step soundness for reads — the reason implies the two arrays agree
  at the read index;
* step soundness for defaults — the reason implies the destination
  equals the default everywhere off the updated indices;
* every emitted lemma is valid (extensionality lemmas via their
  finite existential expansion, since their witness constant is fresh);
* the at-least-n-distinct atom obeys its counting laws at every
  evaluation layer;
* refinement terminates within a small bound on tiny instances.
"""

from __future__ import annotations

import itertools

from caext import (
    Configuration,
    ConflictInfo,
    Kind,
    Model,
    OracleBounds,
    TermManager,
    build_model,
    check_conflicts,
    check_sat,
    domain_size,
    eval_term,
    flatten,
    init_steps,
    oracle_solve,
    oracle_valid,
    propagate_fixpoint,
    solve_ground,
    substitute,
    validate_model,
)

from helpers import (Example2, compute_reason, counted_scans, ground_session,
                     random_instance)

AUDIT_BOUNDS = OracleBounds(max_free_constants=20, max_array_constants=10,
                            max_interpretations=5_000_000)


def chain_assertions(m):
    ex = Example2(m)
    return ex.phi + [ex.v_ne_w]


def audit_instances():
    """(manager, assertions) pairs the audits run over."""
    out = []
    m = TermManager()
    out.append((m, chain_assertions(m)))
    m2 = TermManager()
    asort = m2.array_sort(m2.bv_sort(1), m2.bool_sort)
    a, b = m2.mk_const("a", asort), m2.mk_const("b", asort)
    v = m2.mk_const("v", m2.bool_sort)
    out.append((m2, [m2.mk_not(m2.mk_eq(a, b)),
                     m2.mk_eq(a, m2.mk_const_array(asort, v))]))
    for seed in range(18):
        out.append(random_instance(seed))
    return out


def implication(m, literals, consequent):
    if not literals:
        return consequent
    if len(literals) == 1:
        return m.mk_implies(literals[0], consequent)
    return m.mk_implies(m.mk_and(list(literals)), consequent)


class LoopAudit:
    """Drives the refinement loop by hand and checks every saturation."""

    def __init__(self, manager, assertions):
        self.m = manager
        self.assertions = assertions
        self.flat = flatten(manager, assertions)
        self.cfg = Configuration(manager, self.flat.formulas)
        self.lemmas = []
        self.candidates = 0

    def expand(self, term):
        return substitute(self.m, term, self.flat.definitions)

    def run(self):
        for _ in range(100):
            ground = solve_ground(ground_session(self.m, self.cfg.formulas))
            assert ground.verdict is not None
            if ground.verdict == "unsat":
                return "unsat", None
            self.cfg.interp = ground.interpretation
            init_steps(self.cfg)
            propagate_fixpoint(self.cfg)
            self.candidates += 1
            self.audit_saturation()
            info = check_conflicts(self.cfg)
            if info is None:
                model = build_model(self.cfg)
                assert validate_model(model, self.cfg.formulas)
                return "sat", model
            self.lemmas.extend(ConflictInfo(info.rule, lemma)
                               for lemma in info.lemmas)
        raise AssertionError("refinement failed to terminate in 100 rounds")

    def audit_saturation(self):
        cfg = self.cfg
        for (dest, t) in cfg.steps:
            trace = compute_reason(cfg, dest, t)
            for lit in trace.literals:
                assert cfg.interp.eval(lit), (
                    f"stale reason literal {lit!r} for ({dest!r}, {t!r})")
            self.audit_step(dest, t, trace)

    def audit_step(self, dest, t, trace):
        m = self.m
        reason = [self.expand(lit) for lit in trace.literals]
        if t.kind is Kind.SELECT:
            idx = self.expand(t.index)
            goal = m.mk_eq(m.mk_select(self.expand(dest), idx),
                           m.mk_select(self.expand(t.array), idx))
            verdict = oracle_valid(implication(m, reason, goal), AUDIT_BOUNDS)
            assert verdict, f"unsound read step ({dest!r}, {t!r})"
        else:
            assert t.kind is Kind.CONST_ARRAY
            covered = [self.expand(k) for k in trace.updated_indices]
            default = self.expand(t.default)
            exp_dest = self.expand(dest)
            for val in range(domain_size(t.sort.index)):
                idx = m.mk_value(t.sort.index, val)
                agree = m.mk_eq(m.mk_select(exp_dest, idx), default)
                hits = [m.mk_eq(idx, k) for k in covered]
                goal = m.mk_or(hits + [agree]) if hits else agree
                verdict = oracle_valid(implication(m, reason, goal),
                                       AUDIT_BOUNDS)
                assert verdict, (
                    f"unsound default step ({dest!r}, {t!r}) at index {val}")


def lemma_audit_form(m, rule, lemma):
    """The oracle-checkable reading of an emitted lemma.

    Extensionality lemmas introduce a fresh witness constant, so their
    soundness claim is existential; over a finite index domain that is
    the disjunction of the per-index instances.
    """
    if rule != "extensionality":
        return lemma
    assert lemma.kind is Kind.IMPLIES
    antecedent, consequent = lemma.args
    witness = consequent.args[0].args[0].index
    cases = [substitute(m, consequent,
                        {witness: m.mk_value(witness.sort, val)})
             for val in range(domain_size(witness.sort))]
    return m.mk_implies(antecedent,
                        cases[0] if len(cases) == 1 else m.mk_or(cases))


def test_step_soundness_and_reason_currency():
    for m, assertions in audit_instances():
        audit = LoopAudit(m, assertions)
        verdict, _ = audit.run()
        if verdict == "sat":
            assert audit.candidates > 0
        assert verdict == oracle_solve(
            assertions, OracleBounds(max_free_constants=16,
                                     max_array_constants=6)).verdict


def test_every_lemma_in_the_stream_is_valid():
    for m, assertions in audit_instances():
        audit = LoopAudit(m, assertions)
        audit.run()
        for info in audit.lemmas:
            form = lemma_audit_form(
                m, info.rule, audit.expand(info.lemma))
            assert oracle_valid(form, AUDIT_BOUNDS), (
                f"invalid {info.rule} lemma {info.lemma!r}")


def test_refinement_terminates_quickly_on_tiny_instances():
    for seed in range(40):
        m, assertions = random_instance(seed)
        scans = []
        with counted_scans(scans):
            res = check_sat(m, assertions)
        assert res.stats.refinements <= 30, seed
        # every candidate but the last ends in a batch of at least one
        # lemma, and each top-level `not e`, e an array equality, has
        # its witness lemma before the first candidate
        batches = [info.lemmas for info in scans if info is not None]
        assert res.stats.iterations == len(batches) + 1, seed
        w = len({f.args[0] for f in flatten(m, assertions).formulas
                 if f.kind is Kind.NOT and f.args[0].kind is Kind.EQ
                 and f.args[0].args[0].sort.is_array})
        assert res.stats.refinements == w + sum(map(len, batches)), seed


def test_extensionality_audit_form_is_checked():
    m = TermManager()
    asort = m.array_sort(m.bv_sort(1), m.bool_sort)
    a, b = m.mk_const("a", asort), m.mk_const("b", asort)
    audit = LoopAudit(m, [m.mk_not(m.mk_eq(a, b))])
    verdict, _ = audit.run()
    assert verdict == "sat"
    rules = [info.rule for info in audit.lemmas]
    assert "extensionality" in rules
    for info in audit.lemmas:
        if info.rule == "extensionality":
            raw = audit.expand(info.lemma)
            assert not oracle_valid(raw, AUDIT_BOUNDS)
            assert oracle_valid(
                lemma_audit_form(m, info.rule, raw), AUDIT_BOUNDS)


# ---------------------------------------------------------------------------
# Counting laws for the internal at-least-n-distinct atom
# ---------------------------------------------------------------------------


class TestDistinctCounting:
    def setup_method(self):
        self.m = TermManager()
        self.sort = self.m.bv_sort(2)
        self.consts = [self.m.mk_const(f"d{k}", self.sort) for k in range(3)]

    def atom(self, n):
        return self.m.mk_distinct_n(n, self.consts)

    def test_model_eval_counts_distinct_values(self):
        for vals in itertools.product(range(4), repeat=3):
            model = Model()
            for c, val in zip(self.consts, vals):
                model.set(c, val)
            for n in range(1, 4):
                want = len(set(vals)) >= n
                assert eval_term(model, self.atom(n)) == int(want)

    def test_ground_solver_agrees_with_the_law(self):
        m = self.m
        for n in range(1, 4):
            for force_equal in (False, True):
                formulas = [self.atom(n)]
                if force_equal:
                    formulas.append(m.mk_eq(self.consts[0], self.consts[1]))
                res = solve_ground(ground_session(m, formulas))
                possible = (n <= 2) if force_equal else True
                assert (res.verdict == "sat") == possible
                if res.verdict == "sat":
                    vals = [res.interpretation.values[c] for c in self.consts]
                    assert len(set(vals)) >= n

    def test_equals_arity_means_pairwise_distinct(self):
        m = self.m
        pairwise = m.mk_and([
            m.mk_not(m.mk_eq(a, b))
            for a, b in itertools.combinations(self.consts, 2)])
        assert oracle_valid(m.mk_eq(self.atom(3), pairwise), AUDIT_BOUNDS)

    def test_above_arity_is_false(self):
        m = self.m
        assert oracle_valid(m.mk_not(m.mk_distinct_n(4, self.consts)),
                            AUDIT_BOUNDS)
        res = solve_ground(
            ground_session(m, [m.mk_distinct_n(4, self.consts)]))
        assert res.verdict == "unsat"

    def test_domain_caps_distinctness(self):
        m = TermManager()
        consts = [m.mk_const(f"b{k}", m.bv_sort(1)) for k in range(3)]
        res = solve_ground(ground_session(m, [m.mk_distinct_n(3, consts)]))
        assert res.verdict == "unsat"
        assert oracle_solve([m.mk_distinct_n(3, consts)]).verdict == "unsat"
