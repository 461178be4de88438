"""SMT-LIB reading and writing."""

import pytest

from caext import (
    ArrayValue, Kind, Model, ParseError, SortError, TermManager,
    UnknownSymbolError, eval_term,
)
from caext.benchgen import gen_fuzz
from caext.parser import parse
from caext.printer import (
    array_value_term, format_value, print_model, print_script, print_term,
)
from caext.terms import MAX_BV_WIDTH

from helpers import benchmark_crafted, random_instance


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
        assert y.sort is s.manager.bv_sort(3)
        assert a.sort.is_array and a.sort.index.width == 2
        # set-logic and declarations assert and define nothing
        assert s.assertions == [] and s.defined == {}

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

    @pytest.mark.parametrize("sort,column,message", [pytest.param(
        *case, id=case[0][:40]) for case in [
        ("(Array (_ BitVec 2))", 18, "Array sort takes two arguments"),
        ("(Array (Array (_ BitVec 2) Bool) Bool)", 18, "must be scalar"),
        ("(Array (_ BitVec 2) (Array Bool Bool))", 18, "must be scalar"),
        ("(Array Foo Bool)", 25, "unknown sort 'Foo'"),
        ("(Array Bool Foo)", 30, "unknown sort 'Foo'"),
        ("(Array (Array Bool Bool) Foo)", 43, "unknown sort 'Foo'"),
        ("(_ BitVec 2 3)", 18, "unknown sort"),
        ("()", 18, "unknown sort"),
        # An Array operand is reported at the outer Array node, whatever
        # it holds.
        ("(Array (Array (Array Bool Bool) Bool) Bool)", 18, "must be scalar"),
        ("(Array (Array Foo Bool) Bool)", 18, "must be scalar"),
        ("(Array (Array Bool) Bool)", 18, "must be scalar"),
        ("(Array " * 10000 + "Bool Bool)" + " Bool)" * 9999, 18,
         "must be scalar"),
    ]])
    def test_sort_diagnostics_are_located(self, sort, column, message):
        with pytest.raises(SortError, match=message) as info:
            parse(f"(declare-const a {sort})")
        assert (info.value.line, info.value.column) == (1, column)

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

    @pytest.mark.parametrize("command", [
        "(assert (not x))", "(declare-const y Bool)",
        "(define-fun y () Bool x)", "(set-logic QF_ABV)"])
    def test_only_get_model_and_exit_follow_check_sat(self, command):
        # check-sat sees only the assertions before it, so a later
        # command could never take part in its verdict.
        text = "(declare-const x Bool)\n(assert x)\n(check-sat)\n"
        with pytest.raises(ParseError, match="after check-sat") as info:
            parse(text + "(get-model)\n" + command)
        assert (info.value.line, info.value.column) == (5, 1)

    def test_exit_ends_the_script(self):
        s = parse("(declare-const x Bool)(assert x)(exit)"
                  "(assert (not x))(check-sat)(no-such-command")
        assert s.assertions == [s.declared[0]]
        assert not s.has_check_sat
        s = parse("(declare-const x Bool)(assert x)(check-sat)(get-model)"
                  "(exit)(assert (not x))")
        assert s.has_check_sat and s.wants_model
        assert s.assertions == [s.declared[0]]

    def test_sort_error_on_bad_application(self):
        with pytest.raises(SortError):
            parse("(declare-const a (Array Bool Bool))\n"
                  "(declare-const i (_ BitVec 2))\n"
                  "(assert (= (select a i) true))")

    def test_redeclaration_with_new_sort(self):
        with pytest.raises(SortError, match="already declared"):
            parse("(declare-const x Bool)\n(declare-const x (_ BitVec 1))")

    def test_redeclaration_same_sort_rejected(self):
        with pytest.raises(ParseError, match="'x' is declared twice") as info:
            parse("(declare-const x Bool)\n"
                  "(declare-const y Bool)\n"
                  "  (declare-fun x () Bool)")
        assert (info.value.line, info.value.column) == (3, 3)

    def test_non_bool_assertion(self):
        with pytest.raises(SortError, match="Boolean"):
            parse("(declare-const y (_ BitVec 2))\n(assert y)")

    def test_unknown_command(self):
        with pytest.raises(ParseError, match="unknown command"):
            parse("(push 1)")

    def test_bad_width(self):
        with pytest.raises(SortError):
            parse("(declare-const y (_ BitVec 0))")

    @pytest.mark.parametrize("width", ["\u00b2", "\u0663", "+3", "3_0"])
    def test_width_of_other_digits_is_a_located_error(self, width):
        # str.isdigit accepts superscripts and other scripts' digits,
        # int accepts signs and underscores; a width is [0-9]+.
        with pytest.raises(SortError, match="bad bit-vector width") as info:
            parse(f"(declare-const y (_ BitVec {width}))")
        assert (info.value.line, info.value.column) == (1, 28)

    @pytest.mark.parametrize("literal",
                             ["#x", "#x+1", "#x-1", "#x1_0", "#x\u0661"])
    def test_hex_literal_of_other_characters_is_a_located_error(
            self, literal):
        with pytest.raises(ParseError,
                           match="bad hexadecimal literal") as info:
            parse(f"(declare-const y (_ BitVec 8))\n(assert (= y {literal}))")
        assert (info.value.line, info.value.column) == (2, 14)

    @pytest.mark.parametrize("text,column", [
        (f"(declare-const y (_ BitVec {MAX_BV_WIDTH + 1}))", 28),
        # more digits than int() converts
        (f"(declare-const y (_ BitVec {'9' * 5000}))", 28),
        (f"(assert (= #b{'1' * (MAX_BV_WIDTH + 1)} #b0))", 12),
        (f"(assert (= #x{'f' * (MAX_BV_WIDTH // 4 + 1)} #x0))", 12),
    ])
    def test_width_over_the_limit_is_a_located_error(self, text, column):
        with pytest.raises(SortError, match="exceeds the limit") as info:
            parse(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_width_with_leading_zeros(self):
        s = parse(f"(declare-const y (_ BitVec {'0' * 5000}{MAX_BV_WIDTH}))")
        assert s.declared[0].sort.width == MAX_BV_WIDTH

    def test_hex_digits_of_both_cases(self):
        s = parse("(declare-const y (_ BitVec 8))\n(assert (= y #xaF))")
        assert s.assertions[0].args[1].value == 0xAF

    def test_unclosed_paren_at_depth_is_located_innermost(self):
        depth = 30000
        text = "(declare-const p Bool)\n(assert " + "(not " * depth + "p"
        with pytest.raises(ParseError, match="unclosed") as info:
            parse(text)
        assert (info.value.line, info.value.column) == \
            (2, len("(assert ") + 5 * (depth - 1) + 1)

    @pytest.mark.parametrize("tail", [
        ")", "(", "(assert (= x", "(no-such-command)", "(assert #bz)",
        "(check-sat) (check-sat)", "x"])
    def test_malformed_text_after_exit_is_ignored(self, tail):
        s = parse("(declare-const x Bool)\n(assert x)\n(exit)\n" + tail)
        assert s.assertions == [s.declared[0]]


class TestReader:
    def test_deep_nesting_parses(self):
        import caext
        depth = 30000
        text = ("(declare-const p Bool)\n(assert "
                + "(not " * depth + "p" + ")" * depth + ")\n(check-sat)\n")
        f, = caext.parse(text).assertions
        for _ in range(depth):
            assert f.kind is Kind.NOT
            f = f.args[0]
        assert f.name == "p"

    @pytest.mark.parametrize("space", ["\f", "\v", "\u00a0", "\u2003",
                                       "\u3000"])
    def test_only_ascii_blanks_delimit(self, space):
        # Only space, tab, carriage return and newline separate tokens;
        # other white space belongs to the atom it stands in.
        name = f"a{space}b"
        s = parse(f"(declare-const {name} Bool)(assert {name})")
        assert s.declared[0].name == name
        with pytest.raises(UnknownSymbolError) as info:
            parse(f"(assert (and{space}true))")
        assert (info.value.line, info.value.column) == (1, 9)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_columns_after_either_line_ending(self, newline):
        text = newline.join(["(declare-const x Bool) ; one",
                             "", "  (assert (and x y))"])
        with pytest.raises(UnknownSymbolError) as info:
            parse(text)
        assert (info.value.line, info.value.column) == (3, 18)

    def test_carriage_return_inside_a_line_is_a_column(self):
        with pytest.raises(UnknownSymbolError) as info:
            parse("(assert\r\r(and\ty true))")
        assert (info.value.line, info.value.column) == (1, 15)

    def test_comment_ends_at_newline_only(self):
        s = parse("(declare-const x Bool) ; (assert\r(not x))\n(assert x)")
        assert s.assertions == [s.declared[0]]


class TestDeclareAndDefineFun:
    def test_declare_fun_zero_arity(self):
        s = parse("(declare-fun x () (_ BitVec 2))")
        x, = s.declared
        assert x.sort.width == 2
        assert s.assertions == [] and s.defined == {}

    def test_declare_fun_with_params_rejected(self):
        with pytest.raises(ParseError, match="zero parameters"):
            parse("(declare-fun f (Bool) Bool)")

    def test_define_fun_model_entry(self):
        s = parse("(define-fun x () (_ BitVec 2) #b10)")
        (x, body), = s.defined.items()
        assert body.value == 2
        assert s.declared == []
        assert s.assertions == [s.manager.mk_eq(x, body)]

    def test_definitions_and_assertions_interleave(self):
        s = parse("(declare-const p Bool)\n"
                  "(define-fun x () Bool (not p))\n"
                  "(assert x)\n"
                  "(define-fun y () Bool (and p x))\n"
                  "(assert (or x y))\n"
                  "(check-sat)\n(get-model)")
        m = s.manager
        p, x, y = (m.lookup_const(n) for n in "pxy")
        assert s.declared == [p]
        assert s.defined == {x: m.mk_not(p), y: m.mk_and([p, x])}
        assert list(s.defined) == [x, y]
        assert s.assertions == [m.mk_eq(x, m.mk_not(p)), x,
                                m.mk_eq(y, m.mk_and([p, x])),
                                m.mk_or([x, y])]
        assert s.has_check_sat and s.wants_model

    def test_define_fun_sort_mismatch(self):
        with pytest.raises(SortError, match="does not match"):
            parse("(define-fun x () Bool #b1)")

    def test_second_definition_of_a_constant_rejected(self):
        with pytest.raises(ParseError, match="'x' is defined twice") as info:
            parse("(define-fun x () Bool true)\n"
                  "(define-fun y () Bool true)\n"
                  "(define-fun x () Bool false)")
        assert (info.value.line, info.value.column) == (3, 1)

    def test_scope_is_the_script_not_the_manager(self):
        formula = parse("(declare-const y Bool)\n(assert y)")
        m = formula.manager
        # A second script may define y; its bodies see only its names.
        model = parse("(define-fun y () Bool true)\n"
                      "(define-fun z () Bool (not y))", manager=m)
        y = m.lookup_const("y")
        assert list(model.defined) == [y, m.lookup_const("z")]
        assert model.defined[m.lookup_const("z")] is m.mk_not(y)
        with pytest.raises(UnknownSymbolError, match="'y'") as info:
            parse("(define-fun z () Bool y)", manager=m)
        assert (info.value.line, info.value.column) == (1, 23)


class TestReservedNames:
    @pytest.mark.parametrize("command", ["(declare-const {} Bool)",
                                         "(declare-fun {} () Bool)",
                                         "(define-fun {} () Bool true)"])
    @pytest.mark.parametrize("name", ["true", "false", "#b1", "#x1", "#k"])
    def test_literal_names_cannot_be_declared(self, command, name):
        with pytest.raises(ParseError, match=f"reserved name '{name}'") \
                as info:
            parse(command.format(name))
        assert (info.value.line, info.value.column) == \
            (1, command.index("{}") + 1)

    def test_true_and_false_stay_distinct(self):
        # Declared, they would be shadowed by the literals at every use,
        # and `(= true false)` would make the script unsat.
        with pytest.raises(ParseError, match="reserved name 'true'") as info:
            parse("(declare-const true Bool)(declare-const false Bool)"
                  "(assert (= true false))")
        assert (info.value.line, info.value.column) == (1, 16)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_script_round_trip_is_identity(self, seed):
        m, assertions = random_instance(seed)
        text = print_script(assertions)
        back = parse(text, m)
        assert back.assertions == assertions

    @pytest.mark.parametrize("family", ["fuzz", "crafted"])
    def test_print_parse_print_is_a_fixed_point(self, family):
        if family == "fuzz":
            texts = [print_script(gen_fuzz(seed)[1], get_model=True)
                     for seed in range(200)]
        else:
            texts = [print_script(s.assertions, get_model=True)
                     for s in benchmark_crafted(1001)]
        for text in texts:
            s = parse(text)
            assert print_script(s.assertions, get_model=True) == text

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
