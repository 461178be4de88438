"""Term construction, hash-consing, and sort checking."""

import pytest

from caext import (
    CaextError, Kind, SortMismatch, TermManager, domain_size,
    free_constants, substitute,
)
from caext.terms import MAX_BV_WIDTH, postorder


@pytest.fixture
def m():
    return TermManager()


class TestSorts:
    def test_domain_sizes(self, m):
        assert domain_size(m.bool_sort) == 2
        assert domain_size(m.bv_sort(1)) == 2
        assert domain_size(m.bv_sort(2)) == 4
        assert domain_size(m.bv_sort(3)) == 8
        assert domain_size(m.array_sort(m.bv_sort(2), m.bool_sort)) == 2 ** 4
        assert domain_size(m.array_sort(m.bool_sort, m.bv_sort(2))) == 4 ** 2

    def test_sorts_are_interned(self, m):
        assert m.bv_sort(3) is m.bv_sort(3)
        assert (m.array_sort(m.bv_sort(1), m.bool_sort)
                is m.array_sort(m.bv_sort(1), m.bool_sort))

    def test_bool_is_not_bitvec(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bv_sort(1))
        with pytest.raises(SortMismatch):
            m.mk_eq(x, y)

    def test_nested_arrays_rejected(self, m):
        inner = m.array_sort(m.bool_sort, m.bool_sort)
        with pytest.raises(SortMismatch):
            m.array_sort(m.bool_sort, inner)
        with pytest.raises(SortMismatch):
            m.array_sort(inner, m.bool_sort)

    def test_bad_width(self, m):
        with pytest.raises(CaextError):
            m.bv_sort(0)

    def test_width_limit(self, m):
        assert m.bv_sort(MAX_BV_WIDTH).width == MAX_BV_WIDTH
        with pytest.raises(CaextError, match="exceeds the limit"):
            m.bv_sort(MAX_BV_WIDTH + 1)


class TestHashConsing:
    def test_identical_construction_shares_nodes(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("a", asort)
        i = m.mk_const("i", m.bv_sort(2))
        u = m.mk_const("u", m.bool_sort)
        assert m.mk_select(a, i) is m.mk_select(a, i)
        assert m.mk_store(a, i, u) is m.mk_store(a, i, u)
        assert m.mk_eq(u, u) is m.mk_eq(u, u)
        assert m.mk_value(m.bv_sort(2), 3) is m.mk_value(m.bv_sort(2), 3)
        assert m.mk_const_array(asort, u) is m.mk_const_array(asort, u)

    def test_distinct_structure_distinct_nodes(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bool_sort)
        assert m.mk_eq(x, y) is not m.mk_eq(y, x)

    def test_constant_reuse(self, m):
        x1 = m.mk_const("x", m.bool_sort)
        assert m.mk_const("x", m.bool_sort) is x1
        with pytest.raises(CaextError):
            m.mk_const("x", m.bv_sort(2))

    def test_ids_increase_in_creation_order(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bool_sort)
        e = m.mk_eq(x, y)
        assert x.id < y.id < e.id


class TestSortChecks:
    def test_select_index_mismatch(self, m):
        a = m.mk_const("a", m.array_sort(m.bv_sort(2), m.bool_sort))
        bad = m.mk_const("k", m.bv_sort(3))
        with pytest.raises(SortMismatch) as e:
            m.mk_select(a, bad)

    def test_select_needs_array(self, m):
        x = m.mk_const("x", m.bv_sort(2))
        with pytest.raises(SortMismatch):
            m.mk_select(x, x)

    def test_store_index_and_value_mismatch(self, m):
        a = m.mk_const("a", m.array_sort(m.bv_sort(2), m.bool_sort))
        with pytest.raises(SortMismatch):
            m.mk_store(a, m.mk_const("x", m.bool_sort),
                       m.mk_const("y", m.bv_sort(1)))

    def test_const_array_default(self, m):
        asort = m.array_sort(m.bool_sort, m.bv_sort(2))
        with pytest.raises(SortMismatch):
            m.mk_const_array(asort, m.mk_const("x", m.bool_sort))

    def test_ite_shape(self, m):
        x = m.mk_const("x", m.bv_sort(1))
        c = m.mk_const("c", m.bool_sort)
        with pytest.raises(SortMismatch):
            m.mk_ite(x, c, c)
        assert m.mk_ite(c, x, x).sort is m.bv_sort(1)

    def test_distinct_n_checks(self, m):
        x = m.mk_const("x", m.bv_sort(2))
        y = m.mk_const("y", m.bv_sort(2))
        z = m.mk_const("z", m.bool_sort)
        with pytest.raises(SortMismatch):
            m.mk_distinct_n(2, [x, z])
        with pytest.raises(CaextError):
            m.mk_distinct_n(0, [x, y])
        a = m.mk_const("a", m.array_sort(m.bool_sort, m.bool_sort))
        with pytest.raises(SortMismatch):
            m.mk_distinct_n(1, [a])

    def test_value_range(self, m):
        with pytest.raises(CaextError):
            m.mk_value(m.bv_sort(2), 4)
        with pytest.raises(CaextError):
            m.mk_value(m.bool_sort, -1)

    @pytest.mark.parametrize("build,cls,message", [
        (lambda m, a, x, p: m.mk_value(a.sort, 0), SortMismatch,
         "literal values exist only for scalar sorts"),
        (lambda m, a, x, p: m.mk_store(x, x, x), SortMismatch,
         "store expects an array"),
        (lambda m, a, x, p: m.mk_const_array(x.sort, p), SortMismatch,
         "const-array needs an array sort"),
        (lambda m, a, x, p: m.mk_not(x), SortMismatch, "not expects Bool"),
        (lambda m, a, x, p: m.mk_or([x, p]), SortMismatch,
         "OR expects Bool arguments"),
        (lambda m, a, x, p: m.mk_and([x]), SortMismatch,
         "AND expects Bool arguments"),
        (lambda m, a, x, p: m.mk_and([]), CaextError,
         "AND needs at least one argument"),
        (lambda m, a, x, p: m.mk_distinct_n(1, []), CaextError,
         "distinct-at-least needs at least one argument"),
        (lambda m, a, x, p: m.mk_term(Kind.CONSTANT, []), CaextError,
         "unknown term kind Kind.CONSTANT"),
    ])
    def test_constructor_diagnostics(self, m, build, cls, message):
        a = m.mk_const("a", m.array_sort(m.bv_sort(2), m.bool_sort))
        x = m.mk_const("x", m.bv_sort(2))
        p = m.mk_const("p", m.bool_sort)
        with pytest.raises(CaextError) as info:
            build(m, a, x, p)
        assert type(info.value) is cls and str(info.value) == message

    def test_one_operand_and_or_is_that_operand(self, m):
        p = m.mk_const("p", m.bool_sort)
        assert m.mk_and([p]) is p and m.mk_or([p]) is p


class TestGenericConstructor:
    def test_dispatch_matches_specialized(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("a", asort)
        i = m.mk_const("i", m.bv_sort(2))
        u = m.mk_const("u", m.bool_sort)
        assert m.mk_term(Kind.SELECT, [a, i]) is m.mk_select(a, i)
        assert m.mk_term(Kind.STORE, [a, i, u]) is m.mk_store(a, i, u)
        assert m.mk_term(Kind.EQ, [u, u]) is m.mk_eq(u, u)
        assert m.mk_term(Kind.NOT, [u]) is m.mk_not(u)
        assert m.mk_term(Kind.AND, [u, u]) is m.mk_and([u, u])
        assert (m.mk_term(Kind.CONST_ARRAY, [u], sort=asort)
                is m.mk_const_array(asort, u))
        assert (m.mk_term(Kind.DISTINCT_N, [i, i], n=2)
                is m.mk_distinct_n(2, [i, i]))


class TestFreshNames:
    def test_fresh_scheme(self, m):
        f0 = m.fresh_const(m.bool_sort)
        f1 = m.fresh_const(m.bool_sort)
        assert f0.name == "__flat_0"
        assert f1.name == "__flat_1"

    def test_fresh_skips_collisions(self, m):
        m.mk_const("__flat_0", m.bool_sort)
        f = m.fresh_const(m.bool_sort)
        assert f.name == "__flat_1"


class TestTraversal:
    def test_subterms_unique_children_first(self, m):
        a = m.mk_const("a", m.array_sort(m.bv_sort(1), m.bool_sort))
        i = m.mk_const("i", m.bv_sort(1))
        r = m.mk_select(a, i)
        e = m.mk_eq(r, m.mk_select(a, i))
        order = postorder([e])
        assert order.count(r) == 1
        assert order.index(a) < order.index(r) < order.index(e)

    def test_free_constants_first_seen_order(self, m):
        x = m.mk_const("x", m.bool_sort)
        y = m.mk_const("y", m.bool_sort)
        f = m.mk_and([m.mk_eq(y, x), m.mk_not(x)])
        assert free_constants([f]) == [y, x]


class TestSubstitute:
    def test_mapped_terms_take_their_images(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i, j = m.mk_const("i", m.bv_sort(2)), m.mk_const("j", m.bv_sort(2))
        x = m.mk_const("x", m.bool_sort)
        f = m.mk_and([m.mk_select(m.mk_store(a, i, x), j), m.mk_not(x)])
        g = substitute(m, f, {a: b, x: m.true_term})
        assert g is m.mk_and([m.mk_select(m.mk_store(b, i, m.true_term), j),
                              m.mk_not(m.true_term)])
        assert substitute(m, f, {f: x}) is x

    def test_unchanged_terms_are_kept(self, m):
        x, y = m.mk_const("x", m.bool_sort), m.mk_const("y", m.bool_sort)
        f = m.mk_or([x, m.mk_not(x)])
        assert substitute(m, f, {y: x}) is f
        assert substitute(m, f, {}) is f

    def test_images_are_not_rewritten(self, m):
        x, y, z = (m.mk_const(n, m.bool_sort) for n in "xyz")
        assert substitute(m, m.mk_not(x), {x: y, y: z}) is m.mk_not(y)
