"""Model evaluation and validation semantics."""

import pytest
from hypothesis import given, strategies as st

from caext import (
    ArrayValue, Model, TermManager, UnassignedConstant, complete_model, eval_term,
    validate_model, zero_value,
)


@pytest.fixture
def m():
    return TermManager()


def test_zero_values(m):
    assert zero_value(m.bool_sort) == 0
    assert zero_value(m.bv_sort(3)) == 0
    assert tuple(zero_value(m.array_sort(m.bv_sort(2), m.bool_sort))) == \
        (0, 0, 0, 0)


def test_unassigned_constant_raises(m):
    x = m.mk_const("x", m.bool_sort)
    with pytest.raises(UnassignedConstant):
        eval_term(Model(), x)


class TestArrayLaws:
    @pytest.fixture
    def setup(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        a = m.mk_const("a", asort)
        i = m.mk_const("i", m.bv_sort(2))
        u = m.mk_const("u", m.bv_sort(2))
        return m, asort, a, i, u

    def test_select_over_store_same_index(self, setup):
        m, _, a, i, u = setup
        t = m.mk_select(m.mk_store(a, i, u), i)
        mod = Model({a: ArrayValue.from_table((3, 2, 1, 0)), i: 2, u: 3})
        assert eval_term(mod, t) == 3

    def test_select_over_store_other_index(self, setup):
        m, _, a, i, u = setup
        j = m.mk_const("j", m.bv_sort(2))
        t = m.mk_select(m.mk_store(a, i, u), j)
        mod = Model({a: ArrayValue.from_table((3, 2, 1, 0)), i: 2, u: 3,
                     j: 0})
        assert eval_term(mod, t) == 3  # a[0], untouched

    def test_const_array_select(self, setup):
        m, asort, _, i, u = setup
        t = m.mk_select(m.mk_const_array(asort, u), i)
        mod = Model({i: 1, u: 2})
        assert eval_term(mod, t) == 2

    def test_store_produces_table(self, setup):
        m, _, a, i, u = setup
        mod = Model({a: ArrayValue.from_table((0, 0, 0, 0)), i: 1, u: 3})
        assert tuple(eval_term(mod, m.mk_store(a, i, u))) == (0, 3, 0, 0)

    def test_array_equality_is_extensional(self, setup):
        m, asort, a, i, u = setup
        b = m.mk_const("b", asort)
        eq = m.mk_eq(a, b)
        assert eval_term(Model({a: ArrayValue.from_table((1, 2, 0, 0)),
                                b: ArrayValue.from_table((1, 2, 0, 0))}),
                         eq) == 1
        assert eval_term(Model({a: ArrayValue.from_table((1, 2, 0, 0)),
                                b: ArrayValue.from_table((1, 2, 0, 1))}),
                         eq) == 0

    def test_const_array_equals_full_store_chain(self, setup):
        m, asort, a, i, u = setup
        v = m.mk_const("v", m.bv_sort(2))
        cv = m.mk_const_array(asort, v)
        chain = a
        idx_vals = {}
        for k in range(4):
            ik = m.mk_const(f"i{k}", m.bv_sort(2))
            chain = m.mk_store(chain, ik, v)
            idx_vals[ik] = k
        mod = Model({a: ArrayValue.from_table((3, 3, 3, 3)), v: 1,
                     **idx_vals})
        assert eval_term(mod, m.mk_eq(cv, chain)) == 1


class TestBooleanOps:
    def test_connectives(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bool_sort)
        mod = Model({x: 1, y: 0})
        assert eval_term(mod, m.mk_not(y)) == 1
        assert eval_term(mod, m.mk_and([x, y])) == 0
        assert eval_term(mod, m.mk_or([x, y])) == 1
        assert eval_term(mod, m.mk_implies(x, y)) == 0
        assert eval_term(mod, m.mk_implies(y, x)) == 1

    def test_ite_both_sorts(self, m):
        c = m.mk_const("c", m.bool_sort)
        x = m.mk_const("x", m.bv_sort(2))
        y = m.mk_const("y", m.bv_sort(2))
        mod = Model({c: 0, x: 1, y: 2})
        assert eval_term(mod, m.mk_ite(c, x, y)) == 2


class TestDistinctN:
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6),
           st.integers(1, 6))
    def test_counting_law(self, vals, n):
        m = TermManager()
        consts = [m.mk_const(f"x{k}", m.bv_sort(2)) for k in range(len(vals))]
        mod = Model(dict(zip(consts, vals)))
        t = m.mk_distinct_n(n, consts)
        assert eval_term(mod, t) == (1 if len(set(vals)) >= n else 0)

    def test_n_equal_len_means_pairwise_distinct(self, m):
        xs = [m.mk_const(f"x{k}", m.bv_sort(2)) for k in range(3)]
        t = m.mk_distinct_n(3, xs)
        assert eval_term(Model({xs[0]: 0, xs[1]: 1, xs[2]: 2}), t) == 1
        assert eval_term(Model({xs[0]: 0, xs[1]: 1, xs[2]: 1}), t) == 0

    def test_n_above_len_unsatisfiable(self, m):
        xs = [m.mk_const(f"x{k}", m.bv_sort(2)) for k in range(2)]
        t = m.mk_distinct_n(3, xs)
        assert eval_term(Model({xs[0]: 0, xs[1]: 1}), t) == 0


class TestValidation:
    def test_reports_first_failing_assertion(self, m):
        x = m.mk_const("x", m.bool_sort)
        a1 = m.mk_or([x, m.mk_not(x)])
        a2 = m.mk_not(x)
        a3 = x
        res = validate_model(Model({x: 1}), [a1, a2, a3])
        assert not res.ok
        assert res.failing_assertion is a2

    def test_passes(self, m):
        x = m.mk_const("x", m.bool_sort)
        res = validate_model(Model({x: 1}), [x])
        assert res.ok and res.failing_assertion is None

    def test_complete_model_zero_fills(self, m):
        x = m.mk_const("x", m.bool_sort)
        a = m.mk_const("a", m.array_sort(m.bool_sort, m.bv_sort(2)))
        full = complete_model(Model({x: 1}), [m.mk_eq(a, a), x])
        assert full[x] == 1
        assert tuple(full[a]) == (0, 0)


def test_deep_negation_chain_evaluates(m):
    p = m.mk_const("p", m.bool_sort)
    t = p
    for _ in range(100_000):
        t = m.mk_not(t)
    assert validate_model(Model({p: 1}), [t])
    assert eval_term(Model({p: 0}), m.mk_not(t)) == 1


class TestReadsEveryConstant:
    def test_unneeded_operand_is_still_read(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bool_sort)
        with pytest.raises(UnassignedConstant):
            eval_term(Model({x: 1}), m.mk_or([x, y]))

    def test_wide_conjunction_evaluates(self, m):
        # Each operand is visited once: a walk that rescanned a node's
        # operands after each child would be quadratic in the width.
        xs = [m.mk_const(f"x{k}", m.bool_sort) for k in range(20_000)]
        t = m.mk_and(xs)
        assert eval_term(Model({x: 1 for x in xs}), t) == 1
