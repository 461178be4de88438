"""Brute-force oracle: frozen verdicts, engine agreement, bounds."""

import time

import pytest

from caext import (
    BoundsExceeded, Model, TermManager, interpretation_count, oracle_solve,
    oracle_valid,
)
from caext.oracle import MAX_INTERPRETATIONS

from helpers import Example2, random_instance, store_chain
from oracle_reference import (
    oracle_solve_pointwise, oracle_solve_scalar, oracle_valid_scalar,
)


class TestExample2:
    """The two-chain regression formula and its three tightenings."""

    @pytest.fixture
    def ex(self):
        return Example2(TermManager())

    def test_grid_size(self, ex):
        # 4 BV2 indices x 6 Bool scalars x one 4-cell Bool array
        assert interpretation_count(ex.phi) == 4**4 * 2**6 * 2**4

    def test_phi_with_equal_defaults_sat(self, ex):
        m = ex.m
        res = oracle_solve(ex.phi + [m.mk_eq(ex.v, ex.w)])
        assert res.verdict == "sat"

    def test_phi_with_distinct_defaults_sat(self, ex):
        res = oracle_solve(ex.phi + [ex.v_ne_w])
        assert res.verdict == "sat"
        # First satisfying interpretation in enumeration order, pinned.
        model = res.model
        assert tuple(model[ex.a]) == (0, 0, 1, 1)
        assert (model[ex.i1], model[ex.j1]) == (0, 1)
        assert (model[ex.i2], model[ex.j2]) == (2, 3)
        assert (model[ex.v], model[ex.w]) == (1, 0)

    def test_aliased_store_indices_unsat(self, ex):
        m = ex.m
        res = oracle_solve(ex.phi + [ex.v_ne_w, m.mk_eq(ex.i1, ex.j1)])
        assert res.verdict == "unsat"

    def test_aliased_elements_unsat(self, ex):
        m = ex.m
        extra = [ex.v_ne_w,
                 m.mk_not(m.mk_eq(ex.i1, ex.j1)),
                 m.mk_eq(ex.u1, ex.u2)]
        res = oracle_solve(ex.phi + extra)
        assert res.verdict == "unsat"


class TestStoreCountLaw:
    """A chain of stores over <v> can equal <w> with v != w only when
    the chain covers every index of the domain."""

    def _chain_case(self, idx_width, n_stores):
        m = TermManager()
        idx = m.bool_sort if idx_width == 0 else m.bv_sort(idx_width)
        asort = m.array_sort(idx, m.bv_sort(2))
        v, w = m.mk_const("v", m.bv_sort(2)), m.mk_const("w", m.bv_sort(2))
        wp = m.mk_const("wp", m.bv_sort(2))
        pairs = [(m.mk_const(f"i{k}", idx), wp) for k in range(n_stores)]
        chain = store_chain(m, m.mk_const_array(asort, v), pairs)
        phi = [m.mk_eq(chain, m.mk_const_array(asort, w)),
               m.mk_not(m.mk_eq(v, w))]
        return oracle_solve(phi).verdict

    def test_bool_index_two_stores_sat(self):
        assert self._chain_case(0, 2) == "sat"

    def test_bool_index_one_store_unsat(self):
        assert self._chain_case(0, 1) == "unsat"

    def test_bv2_index_four_stores_sat(self):
        assert self._chain_case(2, 4) == "sat"

    def test_bv2_index_three_stores_unsat(self):
        assert self._chain_case(2, 3) == "unsat"


@pytest.mark.parametrize("iw", [0, 1, 2, 3])
@pytest.mark.parametrize("ew", [0, 1, 2, 3])
def test_const_array_equality_law(iw, ew):
    """<v> = <w> with v != w is unsatisfiable for every finite sort pair
    (width 0 stands for Bool)."""
    m = TermManager()
    idx = m.bool_sort if iw == 0 else m.bv_sort(iw)
    elem = m.bool_sort if ew == 0 else m.bv_sort(ew)
    asort = m.array_sort(idx, elem)
    v, w = m.mk_const("v", elem), m.mk_const("w", elem)
    phi = [m.mk_eq(m.mk_const_array(asort, v), m.mk_const_array(asort, w)),
           m.mk_not(m.mk_eq(v, w))]
    assert oracle_solve(phi).verdict == "unsat"


class TestEngineAgreement:
    def test_three_engines_on_small_chain(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        v, w = m.mk_const("v", m.bool_sort), m.mk_const("w", m.bool_sort)
        wp = m.mk_const("wp", m.bool_sort)
        i, j = m.mk_const("i", m.bool_sort), m.mk_const("j", m.bool_sort)
        chain = store_chain(m, m.mk_const_array(asort, v), [(i, wp), (j, wp)])
        phi = [m.mk_eq(chain, m.mk_const_array(asort, w)),
               m.mk_not(m.mk_eq(v, w))]
        rv = oracle_solve(phi)
        rs = oracle_solve_scalar(phi)
        rp = oracle_solve_pointwise(phi)
        assert rv.verdict == rs.verdict == rp.verdict == "sat"
        # Enumeration order is shared, so the first model is too.
        assert dict(rv.model.items()) == dict(rs.model.items())

    @pytest.mark.parametrize("seed", range(30))
    def test_engines_agree_on_random_instances(self, seed):
        _, assertions = random_instance(seed)
        rv = oracle_solve(assertions)
        rs = oracle_solve_scalar(assertions)
        rp = oracle_solve_pointwise(assertions)
        assert rv.verdict == rs.verdict == rp.verdict
        if rv.verdict == "sat":
            assert dict(rv.model.items()) == dict(rs.model.items())


class TestValidity:
    def test_read_over_const_axiom_instance(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        v = m.mk_const("v", m.bv_sort(2))
        i = m.mk_const("i", m.bv_sort(2))
        f = m.mk_eq(m.mk_select(m.mk_const_array(asort, v), i), v)
        assert oracle_valid(f)

    def test_counterexample_reported(self):
        m = TermManager()
        v, w = m.mk_const("v", m.bool_sort), m.mk_const("w", m.bool_sort)
        res = oracle_valid(m.mk_eq(v, w))
        assert not res.ok
        assert res.counterexample[v] != res.counterexample[w]

    def test_scalar_engine_matches(self):
        m = TermManager()
        x = m.mk_const("x", m.bv_sort(2))
        taut = m.mk_or([m.mk_eq(x, m.mk_value(m.bv_sort(2), k))
                        for k in range(4)])
        assert oracle_valid_scalar(taut)
        assert oracle_valid(taut)


class TestBounds:
    def test_interpretation_ceiling(self):
        # three (Array bv2 bv2) constants have 4**12 = 16.7M interpretations
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        inst = [m.mk_eq(a := m.mk_const(f"a{k}", asort), a) for k in range(3)]
        assert interpretation_count(inst) == MAX_INTERPRETATIONS + 1
        with pytest.raises(BoundsExceeded, match="ceiling"):
            oracle_solve(inst)

    @pytest.mark.parametrize("width", [24, 64])
    def test_wide_index_sort_is_refused_at_once(self, width):
        # 2**(2**width) tables: counting them must stop at the ceiling
        m = TermManager()
        idx = m.bv_sort(width)
        a = m.mk_const("a", m.array_sort(idx, m.bool_sort))
        phi = [m.mk_eq(m.mk_select(a, m.mk_const("i", idx)),
                       m.mk_value(m.bool_sort, 1))]
        start = time.perf_counter()
        assert interpretation_count(phi) == MAX_INTERPRETATIONS + 1
        with pytest.raises(BoundsExceeded):
            oracle_solve(phi)
        assert time.perf_counter() - start < 1.0

    def test_constant_array_over_a_wide_index_is_refused(self):
        # no constant at all, but each array term would hold 2**24 cells
        m = TermManager()
        asort = m.array_sort(m.bv_sort(24), m.bool_sort)
        phi = [m.mk_eq(m.mk_const_array(asort, m.mk_value(m.bool_sort, k)),
                       m.mk_const_array(asort, m.mk_value(m.bool_sort, 0)))
               for k in (0, 1)]
        assert interpretation_count(phi) == 1
        with pytest.raises(BoundsExceeded, match="no array constant"):
            oracle_solve(phi)

    @pytest.mark.parametrize("stores", [3, 4])
    def test_seven_scalar_constants_are_enumerated(self, stores):
        # the store-cover instance of demos/02_store_cover_law.py
        m = TermManager()
        idx = m.bv_sort(2)
        asort = m.array_sort(idx, m.bool_sort)
        v, w, e = (m.mk_const(n, m.bool_sort) for n in "vwe")
        t = m.mk_const_array(asort, v)
        for k in range(stores):
            t = m.mk_store(t, m.mk_const(f"k{k}", idx), e)
        phi = [m.mk_eq(t, m.mk_const_array(asort, w)),
               m.mk_not(m.mk_eq(v, w))]
        res, ref = oracle_solve(phi), oracle_solve_scalar(phi)
        assert res.verdict == ref.verdict == ("sat" if stores == 4
                                              else "unsat")
        assert res.interpretations == 2**3 * 4**stores
        if res.verdict == "sat":
            assert dict(res.model.items()) == dict(ref.model.items())

    def test_eight_cell_array_is_enumerated(self):
        m = TermManager()
        idx = m.bv_sort(3)
        asort = m.array_sort(idx, m.bool_sort)
        a, i = m.mk_const("a", asort), m.mk_const("i", idx)
        true = m.mk_value(m.bool_sort, 1)
        phi = [m.mk_eq(m.mk_store(a, i, true), m.mk_const_array(asort, true)),
               m.mk_not(m.mk_eq(i, m.mk_value(idx, 0))),
               m.mk_not(m.mk_select(a, m.mk_value(idx, 5)))]
        res, ref = oracle_solve(phi), oracle_solve_scalar(phi)
        assert res.verdict == ref.verdict == "sat"
        assert res.interpretations == 2**8 * 8
        assert dict(res.model.items()) == dict(ref.model.items())
        assert res.model[i] == 5

    def test_interpretation_count_formula(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("a", asort)
        x = m.mk_const("x", m.bv_sort(3))
        phi = [m.mk_eq(a, a), m.mk_eq(x, x)]
        assert interpretation_count(phi) == 2**4 * 8


def test_no_free_constants():
    m = TermManager()
    t = m.mk_eq(m.mk_value(m.bool_sort, 1), m.mk_value(m.bool_sort, 1))
    assert oracle_solve([t]).verdict == "sat"
    assert oracle_solve([m.mk_not(t)]).verdict == "unsat"
    assert oracle_solve_pointwise([t]).verdict == "sat"


def test_deep_negation_chain():
    # 3,000 nested nots are past Python's default recursion limit; the
    # grid evaluation walks them without recursing.
    m = TermManager()
    p = m.mk_const("p", m.bool_sort)
    t = p
    for _ in range(3000):
        t = m.mk_not(t)
    res = oracle_solve([t])
    assert res.verdict == "sat" and res.model[p] == 1
    valid = oracle_valid(t)
    assert not valid.ok and valid.counterexample[p] == 0


class TestWideValues:
    """Values past 2^15 are held exactly, whatever the grid's size."""

    def test_wide_constant_takes_every_value(self):
        # 65,536 interpretations are inside the default bounds.
        m = TermManager()
        x = m.mk_const("x", m.bv_sort(16))
        phi = [m.mk_eq(x, m.mk_value(x.sort, 0x9000))]
        res = oracle_solve(phi)
        assert res.verdict == "sat" and res.model[x] == 0x9000
        assert oracle_solve_scalar(phi).model[x] == 0x9000

    @pytest.mark.parametrize("width", [16, 32, 63])
    def test_wide_literals_compare_exactly(self, width):
        m = TermManager()
        top, below = (m.mk_value(m.bv_sort(width), 2 ** width - k)
                      for k in (1, 2))
        assert oracle_solve([m.mk_eq(top, top)]).verdict == "sat"
        assert oracle_solve([m.mk_eq(top, below)]).verdict == "unsat"

    def test_values_past_64_bits_exceed_the_bounds(self):
        m = TermManager()
        top = m.mk_value(m.bv_sort(64), 2 ** 64 - 1)
        with pytest.raises(BoundsExceeded, match="64-bit"):
            oracle_solve([m.mk_eq(top, top)])
