"""SMT-LIB reading and writing."""

import pytest

from caext import (
    ArrayValue, Kind, Model, ParseError, SortError, TermManager,
    UnknownSymbolError, eval_term,
)
from caext.parser import (
    Assert, CheckSat, DeclareConst, DefineFun, GetModel, SetLogic, parse,
)
from caext.printer import (
    array_value_term, format_value, print_model, print_script, print_term,
)

from helpers import random_instance


class TestParseBasics:
    def test_declarations_and_sorts(self):
        s = parse("""
            (set-logic QF_ABV)
            (declare-const x Bool)
            (declare-const y (_ BitVec 3))
            (declare-const a (Array (_ BitVec 2) Bool))
        """)
        x, y, a = s.declared
        assert x.sort.is_bool
        assert y.sort.is_bitvec and y.sort.width == 3
        assert a.sort.is_array and a.sort.index.width == 2
        assert isinstance(s.commands[0], SetLogic)

    def test_const_array_surface_syntax(self):
        s = parse("""
            (declare-const a (Array (_ BitVec 2) Bool))
            (assert (= a ((as const (Array (_ BitVec 2) Bool)) false)))
        """)
        eq = s.assertions[0]
        assert eq.args[1].kind is Kind.CONST_ARRAY
        assert eq.args[1].default is s.manager.false_term

    def test_literals(self):
        s = parse("""
            (declare-const y (_ BitVec 4))
            (assert (= y #b0101))
            (assert (= y #xA))
        """)
        assert s.assertions[0].args[1].value == 5
        assert s.assertions[1].args[1].value == 10

    def test_chainable_equals(self):
        s = parse("""
            (declare-const p (_ BitVec 1))
            (declare-const q (_ BitVec 1))
            (declare-const r (_ BitVec 1))
            (assert (= p q r))
        """)
        conj = s.assertions[0]
        assert conj.kind is Kind.AND and len(conj.args) == 2

    def test_distinct_expands_pairwise(self):
        s = parse("""
            (declare-const p (_ BitVec 2))
            (declare-const q (_ BitVec 2))
            (declare-const r (_ BitVec 2))
            (assert (distinct p q r))
        """)
        conj = s.assertions[0]
        assert conj.kind is Kind.AND and len(conj.args) == 3
        assert all(t.kind is Kind.NOT for t in conj.args)

    def test_boolean_operators(self):
        s = parse("""
            (declare-const p Bool)
            (declare-const q Bool)
            (assert (=> p q p))
            (assert (ite p q (not q)))
            (assert (or p q (and p q)))
        """)
        imp = s.assertions[0]
        assert imp.kind is Kind.IMPLIES
        assert imp.args[1].kind is Kind.IMPLIES

    def test_comments_and_whitespace(self):
        s = parse("; header\n(declare-const x Bool) ; trailing\n(assert x)")
        assert len(s.assertions) == 1


class TestParseErrors:
    def test_select_arity(self):
        with pytest.raises(ParseError, match="'select' takes 2"):
            parse("(declare-const a (Array Bool Bool))\n"
                  "(assert (= (select a) true))")

    def test_unknown_symbol_with_location(self):
        with pytest.raises(UnknownSymbolError) as e:
            parse("(assert (= nope nope))")
        assert e.value.line == 1 and e.value.column == 12

    def test_nested_array_sort_rejected(self):
        with pytest.raises(SortError):
            parse("(declare-const a (Array Bool (Array Bool Bool)))")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse("(assert (= x y)")

    def test_unmatched_close(self):
        with pytest.raises(ParseError, match="unmatched"):
            parse("(check-sat))")

    def test_two_check_sats(self):
        with pytest.raises(ParseError, match="one check-sat"):
            parse("(check-sat)\n(check-sat)")

    def test_get_model_needs_check_sat(self):
        with pytest.raises(ParseError, match="get-model before"):
            parse("(get-model)")

    def test_sort_error_on_bad_application(self):
        with pytest.raises(SortError):
            parse("(declare-const a (Array Bool Bool))\n"
                  "(declare-const i (_ BitVec 2))\n"
                  "(assert (= (select a i) true))")

    def test_redeclaration_with_new_sort(self):
        with pytest.raises(SortError, match="already declared"):
            parse("(declare-const x Bool)\n(declare-const x (_ BitVec 1))")

    def test_redeclaration_same_sort_tolerated(self):
        s = parse("(declare-const x Bool)\n(declare-const x Bool)")
        assert len(s.declared) == 2

    def test_non_bool_assertion(self):
        with pytest.raises(SortError, match="Boolean"):
            parse("(declare-const y (_ BitVec 2))\n(assert y)")

    def test_unknown_command(self):
        with pytest.raises(ParseError, match="unknown command"):
            parse("(push 1)")

    def test_bad_width(self):
        with pytest.raises(SortError):
            parse("(declare-const y (_ BitVec 0))")

    def test_deep_nesting_is_a_parse_error(self):
        import caext
        depth = 3000
        text = ("(declare-const p Bool)\n(assert "
                + "(not " * depth + "p" + ")" * depth + ")\n(check-sat)\n")
        with pytest.raises(ParseError, match="nested too deeply") as info:
            caext.parse(text)
        assert (info.value.line, info.value.column) == (2, 1)


class TestDeclareAndDefineFun:
    def test_declare_fun_zero_arity(self):
        s = parse("(declare-fun x () (_ BitVec 2))")
        assert isinstance(s.commands[0], DeclareConst)
        assert s.declared[0].sort.width == 2

    def test_declare_fun_with_params_rejected(self):
        with pytest.raises(ParseError, match="zero parameters"):
            parse("(declare-fun f (Bool) Bool)")

    def test_define_fun_model_entry(self):
        s = parse("(define-fun x () (_ BitVec 2) #b10)")
        cmd = s.commands[0]
        assert isinstance(cmd, DefineFun)
        assert cmd.body.value == 2

    def test_define_fun_sort_mismatch(self):
        with pytest.raises(SortError, match="does not match"):
            parse("(define-fun x () Bool #b1)")

    def test_second_definition_of_a_constant_rejected(self):
        with pytest.raises(ParseError, match="'x' is defined twice") as info:
            parse("(define-fun x () Bool true)\n"
                  "(define-fun y () Bool true)\n"
                  "(define-fun x () Bool false)")
        assert (info.value.line, info.value.column) == (3, 1)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_script_round_trip_is_identity(self, seed):
        m, assertions = random_instance(seed)
        text = print_script(assertions)
        back = parse(text, m)
        assert back.assertions == assertions

    def test_example_file_with_check_sat(self):
        m, assertions = random_instance(1)
        text = print_script(assertions, get_model=True)
        s = parse(text, m)
        assert s.has_check_sat and s.wants_model


class TestModelPrinting:
    def test_scalar_define_fun(self):
        m = TermManager()
        v = m.mk_const("v", m.bool_sort)
        out = print_model(m, Model({v: 0}), [v])
        assert out == "(define-fun v () Bool false)"

    def test_array_uses_majority_base(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        t = array_value_term(m, asort, ArrayValue.from_table((1, 0, 1, 1)))
        assert repr(t) == ("(store ((as const (Array (_ BitVec 2) Bool)) "
                           "true) #b01 false)")

    def test_tie_breaks_to_smaller_value(self):
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bv_sort(2))
        t = array_value_term(m, asort, ArrayValue.from_table((3, 1)))
        assert t.kind is Kind.STORE
        assert t.array.default.value == 1
        assert (t.index.value, t.stored_value.value) == (0, 3)

    def test_printed_model_reparses_and_evaluates(self):
        m = TermManager()
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a = m.mk_const("a", asort)
        v = m.mk_const("v", m.bv_sort(3))
        model = Model({a: (0, 1, 0, 0), v: 6})
        text = print_model(m, model, [a, v])
        script = parse(text, m)
        for const, body in script.defined.items():
            assert eval_term(Model(), body) == model[const]

    def test_format_value(self):
        m = TermManager()
        assert format_value(m, m.bv_sort(4), 9) == "#b1001"
        assert format_value(m, m.bool_sort, 1) == "true"
