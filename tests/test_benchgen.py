"""Benchmark generators: crafted chain family, quantified emission,
and the random fuzz family."""

from __future__ import annotations

import pytest

from caext import (
    BoundsExceeded,
    CaextError,
    Kind,
    TermManager,
    check_sat,
    flatten,
    free_constants,
    interpretation_count,
    iter_subterms,
    oracle_solve,
    parse,
)
from caext.benchgen import (
    CraftedParams,
    crafted_filename,
    emit_quantified,
    gen_crafted,
    gen_fuzz,
    write_crafted,
)
from caext.oracle import DEFAULT_BOUNDS, OracleBounds, check_bounds
from caext.parser import read_sexprs

LOOSE = OracleBounds(max_free_constants=16, max_array_constants=6)


def params(z, counts, idx_width=2, elem="bool", seed=0):
    m = TermManager()
    elem_sort = m.bool_sort if elem == "bool" else m.bv_sort(int(elem[2:]))
    return m, CraftedParams(z, tuple(counts), m.bv_sort(idx_width),
                            elem_sort, seed)


def count_kind(assertions, kind):
    return sum(1 for t in iter_subterms(assertions) if t.kind is kind)


class TestCraftedParams:
    def test_rejects_negative_z(self):
        m = TermManager()
        with pytest.raises(CaextError):
            CraftedParams(-1, (0,), m.bv_sort(1), m.bool_sort)

    def test_rejects_wrong_count_arity(self):
        m = TermManager()
        with pytest.raises(CaextError):
            CraftedParams(1, (1, 1), m.bv_sort(1), m.bool_sort)

    def test_rejects_negative_counts(self):
        m = TermManager()
        with pytest.raises(CaextError):
            CraftedParams(0, (1, -1), m.bv_sort(1), m.bool_sort)

    def test_rejects_array_sorts(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        with pytest.raises(CaextError):
            CraftedParams(0, (0, 0), asort, m.bool_sort)


class TestCraftedShape:
    def test_single_middle_matches_the_two_chain_formula(self):
        m, p = params(1, (1, 1, 1))
        phi = gen_crafted(m, p)
        assert len(phi) == 2
        eq1, eq2 = phi
        assert eq1.kind is Kind.EQ and eq2.kind is Kind.EQ
        s1, s2 = eq1.args
        s3, s4 = eq2.args
        for s in (s1, s2, s3, s4):
            assert s.kind is Kind.STORE
        assert s1.array.kind is Kind.CONST_ARRAY
        assert s4.array.kind is Kind.CONST_ARRAY
        assert s2.array is s3.array
        assert s2.array.kind is Kind.CONSTANT
        assert s1.array.default is not s4.array.default
        indices = {s.index for s in (s1, s2, s3, s4)}
        elements = {s.args[2] for s in (s1, s2, s3, s4)}
        assert len(indices) == 4 and len(elements) == 4

    def test_no_middles_is_one_const_array_equality(self):
        m, p = params(0, (0, 0), idx_width=1)
        phi = gen_crafted(m, p)
        assert len(phi) == 1
        lhs, rhs = phi[0].args
        assert lhs.kind is Kind.CONST_ARRAY
        assert rhs.kind is Kind.CONST_ARRAY
        assert lhs.default is not rhs.default

    def test_two_middles_term_counts(self):
        m, p = params(2, (2, 1, 1, 2), elem="bv1")
        phi = gen_crafted(m, p)
        assert len(phi) == 3
        assert count_kind(phi, Kind.STORE) == 2 + 2 * 1 + 2 * 1 + 2
        assert count_kind(phi, Kind.CONST_ARRAY) == 2
        consts = free_constants(phi)
        arrays = [c for c in consts if c.sort.is_array]
        assert len(arrays) == 2
        assert len(consts) == 2 + 2 + 2 * 8

    @pytest.mark.parametrize("z,counts", [
        (0, (0, 0)), (0, (3, 2)), (1, (1, 1, 1)), (1, (0, 2, 0)),
        (2, (2, 1, 1, 2)), (3, (1, 0, 2, 1, 1)),
    ])
    def test_free_constant_closed_form(self, z, counts):
        m, p = params(z, counts)
        phi = gen_crafted(m, p)
        stores = counts[0] + counts[-1] + 2 * sum(counts[1:-1])
        assert count_kind(phi, Kind.STORE) == stores
        assert len(free_constants(phi)) == 2 + z + 2 * stores
        assert len(phi) == z + 1

    @pytest.mark.parametrize("z,counts", [
        (0, (0, 0)), (1, (1, 1, 1)), (2, (2, 1, 1, 2)),
    ])
    def test_output_is_flattenable(self, z, counts):
        m, p = params(z, counts)
        phi = gen_crafted(m, p)
        flat = flatten(m, phi)
        assert flat.all_formulas

    def test_verdicts_agree_with_oracle(self):
        for z, counts in [(0, (0, 0)), (0, (2, 0)), (1, (1, 1, 1)),
                          (1, (2, 0, 2))]:
            m, p = params(z, counts, idx_width=1)
            phi = gen_crafted(m, p)
            assert check_sat(m, phi).verdict == \
                oracle_solve(phi, LOOSE).verdict


class TestFileNaming:
    def test_native_name(self):
        _, p = params(1, (1, 1, 1), seed=7)
        assert crafted_filename(p) == "crafted_z1_1-1-1_bv2_bool_7.smt2"

    def test_quantified_name(self):
        _, p = params(2, (2, 1, 1, 2), elem="bv1", seed=3)
        assert crafted_filename(p, quantified=True) == \
            "crafted_z2_2-1-1-2_bv2_bv1_3_quantified.smt2"

    def test_write_native_roundtrips_through_the_parser(self, tmp_path):
        _, p = params(1, (1, 1, 1))
        path = write_crafted(p, tmp_path)
        assert path.name == crafted_filename(p)
        script = parse(path.read_text())
        assert len(script.assertions) == 2
        res = check_sat(script.manager, script.assertions)
        assert res.verdict == oracle_solve(script.assertions, LOOSE).verdict

    def test_write_quantified(self, tmp_path):
        _, p = params(1, (1, 1, 1))
        path = write_crafted(p, tmp_path, quantified=True)
        text = path.read_text()
        assert "as const" not in text
        assert text.count("(forall ((qi") == 2


class TestQuantifiedEmission:
    def test_const_array_equality_gets_axiom_and_fresh_constant(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        a = m.mk_const("a", asort)
        v = m.mk_const("v", m.bool_sort)
        text = emit_quantified(
            m, [m.mk_eq(m.mk_const_array(asort, v), a)])
        assert "(declare-const ca0 (Array (_ BitVec 1) Bool))" in text
        assert "(assert (forall ((qi (_ BitVec 1))) " \
            "(= (select ca0 qi) v)))" in text
        assert "(assert (= ca0 a))" in text
        assert "as const" not in text

    def test_without_const_arrays_only_prints(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        text = emit_quantified(m, [m.mk_eq(a, b)])
        assert "forall" not in text
        assert "(assert (= a b))" in text

    def test_crafted_emission_parses_as_sexprs(self):
        m, p = params(2, (2, 1, 1, 2))
        text = emit_quantified(m, gen_crafted(m, p))
        nodes = read_sexprs(text)
        heads = [n.head() for n in nodes]
        assert heads[0] == "set-logic"
        assert heads[-1] == "check-sat"
        assert heads.count("assert") == 3 + 2
        assert "as const" not in text

    def test_shared_default_shares_one_axiom(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        v = m.mk_const("v", m.bool_sort)
        cv = m.mk_const_array(asort, v)
        a = m.mk_const("a", asort)
        text = emit_quantified(
            m, [m.mk_eq(cv, a), m.mk_not(m.mk_eq(m.mk_store(
                cv, m.mk_value(m.bv_sort(1), 0), v), a))])
        assert text.count("forall") == 1

    def test_avoids_capturing_user_names(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(1), m.bool_sort)
        clash_c = m.mk_const("ca0", asort)
        clash_i = m.mk_const("qi", m.bool_sort)
        v = m.mk_const("v", m.bool_sort)
        text = emit_quantified(
            m, [m.mk_eq(m.mk_const_array(asort, v), clash_c),
                m.mk_eq(clash_i, v)])
        assert "(= ca00 ca0)" in text
        assert "(forall ((qi0" in text


class TestFuzz:
    def test_deterministic_per_seed(self):
        for seed in range(20):
            _, first = gen_fuzz(seed)
            _, second = gen_fuzz(seed)
            assert [repr(a) for a in first] == [repr(b) for b in second]

    def test_instances_stay_in_bounds(self):
        for seed in range(300):
            _, assertions = gen_fuzz(seed)
            check_bounds(assertions, DEFAULT_BOUNDS)
            assert interpretation_count(assertions) <= \
                DEFAULT_BOUNDS.max_interpretations

    def test_const_array_bias(self):
        hits = sum(
            1 for seed in range(200)
            if count_kind(gen_fuzz(seed)[1], Kind.CONST_ARRAY) > 0)
        assert hits >= 80

    def test_sample_agrees_with_oracle(self):
        for seed in range(60):
            m, assertions = gen_fuzz(seed)
            res = check_sat(m, assertions)
            assert res.verdict == oracle_solve(assertions).verdict, seed

    def test_unusable_bounds_rejected(self):
        from caext.oracle import OracleBounds
        with pytest.raises(CaextError):
            gen_fuzz(0, OracleBounds(max_array_constants=0))

    @pytest.mark.parametrize("bounds, error", [
        (OracleBounds(max_index_domain=1), CaextError),
        (OracleBounds(max_element_domain=1), CaextError),
        (OracleBounds(max_interpretations=5), BoundsExceeded),
    ])
    def test_bounds_no_instance_meets(self, bounds, error):
        with pytest.raises(error):
            gen_fuzz(0, bounds)
