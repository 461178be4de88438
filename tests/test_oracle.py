"""Brute-force oracle: frozen verdicts, engine agreement, bounds."""

import pytest

from caext import (
    BoundsExceeded, Model, OracleBounds, TermManager, interpretation_count,
    oracle_solve, oracle_valid,
)

from helpers import Example2, random_instance, store_chain
from oracle_reference import (
    oracle_solve_pointwise, oracle_solve_scalar, oracle_valid_scalar,
)

LOOSE = OracleBounds(max_free_constants=16, max_array_constants=4,
                     max_index_domain=8, max_element_domain=8)


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
        res = oracle_solve(ex.phi + [m.mk_eq(ex.v, ex.w)], LOOSE)
        assert res.verdict == "sat"

    def test_phi_with_distinct_defaults_sat(self, ex):
        res = oracle_solve(ex.phi + [ex.v_ne_w], LOOSE)
        assert res.verdict == "sat"
        # First satisfying interpretation in enumeration order, pinned.
        model = res.model
        assert tuple(model[ex.a]) == (0, 0, 1, 1)
        assert (model[ex.i1], model[ex.j1]) == (0, 1)
        assert (model[ex.i2], model[ex.j2]) == (2, 3)
        assert (model[ex.v], model[ex.w]) == (1, 0)

    def test_aliased_store_indices_unsat(self, ex):
        m = ex.m
        res = oracle_solve(ex.phi + [ex.v_ne_w, m.mk_eq(ex.i1, ex.j1)],
                           LOOSE)
        assert res.verdict == "unsat"

    def test_aliased_elements_unsat(self, ex):
        m = ex.m
        extra = [ex.v_ne_w,
                 m.mk_not(m.mk_eq(ex.i1, ex.j1)),
                 m.mk_eq(ex.u1, ex.u2)]
        res = oracle_solve(ex.phi + extra, LOOSE)
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
        return oracle_solve(phi, LOOSE).verdict

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
    assert oracle_solve(phi, LOOSE).verdict == "unsat"


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
        rv = oracle_solve(assertions, LOOSE)
        rs = oracle_solve_scalar(assertions, LOOSE)
        rp = oracle_solve_pointwise(assertions, LOOSE)
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
    def _inst(self, n_scalars=1, n_arrays=1, iw=2, ew=1):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(iw), m.bv_sort(ew))
        parts = [m.mk_eq(a := m.mk_const(f"a{k}", asort), a)
                 for k in range(n_arrays)]
        parts += [m.mk_eq(x := m.mk_const(f"x{k}", m.bv_sort(ew)), x)
                  for k in range(n_scalars)]
        return [p for p in parts]

    def test_scalar_count_limit(self):
        with pytest.raises(BoundsExceeded, match="scalar constants"):
            oracle_solve(self._inst(n_scalars=7))

    def test_array_count_limit(self):
        with pytest.raises(BoundsExceeded, match="array constants"):
            oracle_solve(self._inst(n_arrays=4))

    def test_index_domain_limit(self):
        with pytest.raises(BoundsExceeded, match="index sort"):
            oracle_solve(self._inst(iw=3))

    def test_element_domain_limit(self):
        with pytest.raises(BoundsExceeded, match="element sort"):
            oracle_solve(self._inst(ew=3))

    def test_interpretation_ceiling(self):
        tight = OracleBounds(max_interpretations=10)
        with pytest.raises(BoundsExceeded, match="ceiling"):
            oracle_solve(self._inst(), tight)

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
