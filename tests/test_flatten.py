"""Flattening: shapes, equisatisfiability, idempotence."""

import pytest

from caext import (Kind, OracleBounds, TermManager, free_constants,
                   interpretation_count, oracle_solve)
from caext.benchgen import gen_fuzz
from caext.flatten import flatten, is_flat_formula
from caext.terms import postorder

from helpers import Example2, random_instance, structured_instance

WIDE = OracleBounds(max_free_constants=24, max_array_constants=10,
                    max_index_domain=8, max_element_domain=8)


@pytest.fixture
def m():
    return TermManager()


@pytest.fixture
def arr(m):
    asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
    return {
        "asort": asort,
        "a": m.mk_const("a", asort),
        "b": m.mk_const("b", asort),
        "i": m.mk_const("i", m.bv_sort(2)),
        "j": m.mk_const("j", m.bv_sort(2)),
        "u": m.mk_const("u", m.bv_sort(2)),
        "w": m.mk_const("w", m.bv_sort(2)),
    }


class TestShapes:
    def test_nested_select_keeps_its_applications(self, m, arr):
        a, i, u, j, w = (arr[k] for k in "aiujw")
        top = m.mk_eq(m.mk_select(m.mk_store(a, i, u), j), w)
        res = flatten(m, [top])
        assert res.formulas == [top] and not res.definitions
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_constant_equality_unchanged(self, m, arr):
        eq = m.mk_eq(arr["i"], arr["j"])
        res = flatten(m, [eq])
        assert res.formulas == [eq] and not res.definitions

    def test_single_application_atom_unchanged(self, m, arr):
        atom = m.mk_eq(arr["w"], m.mk_select(arr["a"], arr["i"]))
        res = flatten(m, [atom])
        assert res.formulas == [atom] and not res.definitions

    def test_negated_application_equality_is_unchanged(self, m, arr):
        a, b, i, u = arr["a"], arr["b"], arr["i"], arr["u"]
        f = m.mk_not(m.mk_eq(m.mk_store(a, i, u), b))
        res = flatten(m, [f])
        assert res.formulas == [f] and not res.definitions
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_bool_read_atom_under_structure(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("ba", asort)
        i = m.mk_const("bi", m.bv_sort(2))
        f = m.mk_not(m.mk_select(a, i))
        res = flatten(m, [f])
        assert res.formulas == [f] and not res.definitions

    def test_const_array_is_leaf_not_named(self, m, arr):
        ca = m.mk_const_array(arr["asort"], arr["u"])
        res = flatten(m, [m.mk_eq(arr["a"], ca)])
        assert not res.definitions
        assert res.formulas == [m.mk_eq(arr["a"], ca)]

    def test_const_array_over_read_default(self, m, arr):
        deep = m.mk_const_array(arr["asort"],
                                m.mk_select(arr["a"], arr["i"]))
        f = m.mk_eq(arr["b"], deep)
        res = flatten(m, [f])
        assert res.formulas == [f] and not res.definitions
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_two_chain_regression_shape(self):
        ex = Example2(TermManager())
        phi = ex.phi + [ex.v_ne_w]
        res = flatten(ex.m, phi)
        assert res.formulas == phi and not res.definitions
        assert sum(t.kind is Kind.STORE for t in postorder(phi)) == 4


class TestIte:
    def test_scalar_ite_becomes_guarded_equalities(self, m, arr):
        c = m.mk_const("c", m.bool_sort)
        z = m.mk_const("z", m.bv_sort(2))
        ite = m.mk_ite(c, arr["i"], arr["j"])
        res = flatten(m, [m.mk_eq(z, ite)])
        (fresh, named), = res.definitions.items()
        assert named is ite and res.formulas[0] == m.mk_eq(z, fresh)
        assert all(t.kind is not Kind.ITE for f in res.formulas
                   for t in postorder([f]))
        assert all(is_flat_formula(f) for f in res.formulas)
        guards = [f for f in res.formulas if f.kind is Kind.IMPLIES]
        assert len(guards) == 2

    def test_array_ite(self, m, arr):
        c = m.mk_const("c", m.bool_sort)
        ite = m.mk_ite(c, arr["a"], arr["b"])
        res = flatten(m, [m.mk_eq(arr["a"], ite)])
        assert all(t.kind is not Kind.ITE for f in res.formulas
                   for t in postorder([f]))
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_bool_equality_over_formulas(self, m, arr):
        p = m.mk_const("p", m.bool_sort)
        inner = m.mk_and([m.mk_eq(arr["i"], arr["j"]),
                          m.mk_eq(arr["u"], arr["w"])])
        res = flatten(m, [m.mk_eq(p, inner)])
        assert all(is_flat_formula(f) for f in res.formulas)
        phi = [m.mk_eq(p, inner), m.mk_not(p), inner]
        assert oracle_solve(phi, WIDE).verdict == "unsat"
        assert oracle_solve(
            flatten(m, phi).formulas, WIDE).verdict == "unsat"

    def test_bool_ite_stays_structural(self, m, arr):
        c = m.mk_const("c", m.bool_sort)
        f = m.mk_ite(c, m.mk_eq(arr["i"], arr["j"]),
                     m.mk_not(m.mk_eq(arr["i"], arr["j"])))
        res = flatten(m, [f])
        assert res.formulas[0].kind is Kind.ITE


class TestSemantics:
    def test_equisatisfiable_with_original(self):
        # The structured instances hold ites and Boolean formulas in term
        # positions, whose names and guards the fold makes.
        for make, count, least in ((random_instance, 40, 25),
                                   (structured_instance, 200, 150)):
            checked = 0
            for seed in range(count):
                m, assertions = make(seed)
                res = flatten(m, assertions)
                if interpretation_count(res.formulas) \
                        > WIDE.max_interpretations:
                    continue
                before = oracle_solve(assertions, WIDE).verdict
                after = oracle_solve(res.formulas, WIDE).verdict
                assert before == after, f"{make.__name__} seed {seed}"
                checked += 1
            assert checked >= least, make.__name__

    def test_ite_equisatisfiable(self, m, arr):
        c = m.mk_const("c", m.bool_sort)
        z = m.mk_const("z", m.bv_sort(2))
        phi = [m.mk_eq(z, m.mk_ite(c, arr["i"], arr["j"])),
               m.mk_not(m.mk_eq(z, arr["i"])),
               m.mk_not(m.mk_eq(z, arr["j"]))]
        res = flatten(m, phi)
        assert oracle_solve(phi, WIDE).verdict == "unsat"
        assert oracle_solve(res.formulas, WIDE).verdict == "unsat"


class TestSharing:
    """A subterm shared anywhere in the input is rewritten once, so
    flattening a DAG costs time linear in its distinct subterms, not in
    its paths."""

    DEPTH = 12

    @pytest.mark.parametrize("in_term_position", [False, True])
    def test_shared_dag_is_rewritten_once(self, m, monkeypatch,
                                          in_term_position):
        # f_{k+1} = (or (and f_k q) (and (not f_k) p)) has 2^k paths to
        # f_0 but four new subterms per level.
        p, q, r = (m.mk_const(s, m.bool_sort) for s in "pqr")
        f = p
        for _ in range(self.DEPTH):
            f = m.mk_or([m.mk_and([f, q]), m.mk_and([m.mk_not(f), p])])
        root = m.mk_eq(r, f) if in_term_position else f
        distinct = len(postorder([root]))
        calls = 0
        intern = TermManager._intern

        def counted(manager, key, build):
            nonlocal calls
            calls += 1
            return intern(manager, key, build)

        monkeypatch.setattr(TermManager, "_intern", counted)
        res = flatten(m, [root])
        monkeypatch.undo()
        assert calls <= 2 * distinct, (calls, distinct)
        assert all(is_flat_formula(f) for f in res.formulas)
        if in_term_position:
            (fresh, named), = res.definitions.items()
            assert named is f
            assert res.formulas == [m.mk_eq(r, fresh), m.mk_implies(fresh, f),
                                    m.mk_implies(f, fresh)]
        else:
            assert res.formulas == [f] and not res.definitions


class TestConstants:
    @pytest.mark.parametrize("make,count", [(gen_fuzz, 3000),
                                            (random_instance, 500)])
    def test_every_input_constant_occurs_in_the_formulas(self, make, count):
        # Flattening adds constants that name ites and Boolean terms
        # but drops no constant of the input, so a model of the
        # formulas assigns every input constant.
        for seed in range(count):
            m, assertions = make(seed)
            kept = set(free_constants(flatten(m, assertions).formulas))
            assert set(free_constants(assertions)) <= kept, seed


class TestIdempotence:
    @pytest.mark.parametrize("seed", range(10))
    def test_second_pass_changes_nothing(self, seed):
        m, assertions = random_instance(seed)
        first = flatten(m, assertions)
        second = flatten(m, first.formulas)
        assert not second.definitions
        assert second.formulas == first.formulas

    def test_outputs_always_flat(self):
        for seed in range(25):
            m, assertions = random_instance(seed)
            formulas = flatten(m, assertions).formulas
            assert all(is_flat_formula(f) for f in formulas)


class TestPredicates:
    def test_term_positions_take_array_terms(self, m, arr):
        a, b, i, u = (arr[k] for k in "abiu")
        read = m.mk_select(a, i)
        for t in (arr["j"], m.mk_value(m.bv_sort(2), 3), read,
                  m.mk_select(m.mk_store(a, read, u), read)):
            assert is_flat_formula(m.mk_eq(u, t))
        for t in (m.mk_const_array(arr["asort"], read),
                  m.mk_store(m.mk_store(b, i, read), read, u)):
            assert is_flat_formula(m.mk_eq(a, t))

    def test_nested_formula_rejected(self, m, arr):
        # A Boolean formula or a non-Boolean ite in a term position
        # has no bits in the ground encoding.
        i, j, u, w = (arr[k] for k in "ijuw")
        p = m.mk_const("p", m.bool_sort)
        assert not is_flat_formula(m.mk_eq(p, m.mk_eq(i, j)))
        assert not is_flat_formula(m.mk_eq(u, m.mk_ite(p, i, j)))
        bsort = m.array_sort(m.bv_sort(2), m.bool_sort)
        ba = m.mk_const("ba", bsort)
        assert not is_flat_formula(
            m.mk_select(m.mk_store(ba, i, m.mk_not(p)), j))
        assert is_flat_formula(m.mk_eq(i, j))
        assert is_flat_formula(m.mk_ite(p, m.mk_eq(i, j), m.mk_eq(u, w)))

    def test_applications_at_any_level(self, m, arr):
        atom = m.mk_eq(arr["w"], m.mk_select(arr["a"], arr["i"]))
        assert is_flat_formula(atom)
        assert is_flat_formula(m.mk_not(atom))
        assert is_flat_formula(m.mk_or([m.mk_not(atom), atom]))


class TestDepth:
    """Flattening walks on explicit stacks: depth is bounded by memory,
    not by the recursion limit."""

    DEPTH = 30000

    def test_deep_negation_chain(self, m):
        p = m.mk_const("p", m.bool_sort)
        f = p
        for _ in range(self.DEPTH):
            f = m.mk_not(f)
        res = flatten(m, [f])
        assert res.formulas == [f] and not res.definitions
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_deep_store_chain_under_a_read(self, m, arr):
        a, i, u = arr["a"], arr["i"], arr["u"]
        chain = a
        for _ in range(self.DEPTH):
            chain = m.mk_store(chain, i, u)
        f = m.mk_not(m.mk_eq(m.mk_select(chain, i), u))
        res = flatten(m, [f])
        assert res.formulas == [f] and not res.definitions
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_deep_ite_chain_in_a_term_position(self, m, arr):
        c = m.mk_const("c", m.bool_sort)
        t, ites = arr["i"], []
        for _ in range(self.DEPTH):
            t = m.mk_ite(c, t, arr["j"])
            ites.append(t)
        res = flatten(m, [m.mk_eq(arr["u"], t)])
        assert list(res.definitions.values()) == ites
        assert all(is_flat_formula(f) for f in res.formulas)

    def test_deep_boolean_in_a_term_position(self, m):
        p, q = (m.mk_const(s, m.bool_sort) for s in "pq")
        f = p
        for _ in range(self.DEPTH):
            f = m.mk_not(f)
        res = flatten(m, [m.mk_eq(q, f)])
        fresh, = (c for c in free_constants(res.formulas) if c not in (p, q))
        assert res.formulas == [m.mk_eq(q, fresh),
                                m.mk_implies(fresh, f), m.mk_implies(f, fresh)]
