"""Command-line driver: subcommands, stream discipline, exit codes."""

from __future__ import annotations

from pathlib import Path

import pytest

import caext
from caext import Kind
from caext.benchgen import gen_fuzz
from caext.cli import main
from caext.errors import IllDefinedModel, ResourceLimit, UndefinedStep
from caext.flatten import flatten, is_flat_formula
from caext.terms import MAX_BV_WIDTH, postorder

from helpers import DEEP, deep_chain_text, run_module, witness_name_text

CHAIN = """\
(set-logic QF_ABV)
(declare-const v Bool)
(declare-const w Bool)
(declare-const a (Array (_ BitVec 2) Bool))
(declare-const i1 (_ BitVec 2))
(declare-const j1 (_ BitVec 2))
(declare-const i2 (_ BitVec 2))
(declare-const j2 (_ BitVec 2))
(declare-const u1 Bool)
(declare-const u2 Bool)
(declare-const u3 Bool)
(declare-const u4 Bool)
(assert (= (store ((as const (Array (_ BitVec 2) Bool)) v) i1 u1)
           (store a j1 u2)))
(assert (= (store a i2 u3)
           (store ((as const (Array (_ BitVec 2) Bool)) w) j2 u4)))
{extra}(check-sat)
{get_model}"""


def chain_file(tmp_path, *, extra="", get_model=False, name="f.smt2"):
    path = tmp_path / name
    path.write_text(CHAIN.format(
        extra=extra, get_model="(get-model)\n" if get_model else ""))
    return path


def const_eq_file(tmp_path, *, negate_defaults=True):
    path = tmp_path / "consts.smt2"
    neg = "(assert (not (= v w)))\n" if negate_defaults else ""
    path.write_text(
        "(declare-const v Bool)\n(declare-const w Bool)\n"
        "(assert (= ((as const (Array Bool Bool)) v)"
        " ((as const (Array Bool Bool)) w)))\n"
        f"{neg}(check-sat)\n")
    return path


class TestSolve:
    def test_negative_seed_solves(self, tmp_path, capsys):
        path = chain_file(tmp_path, extra="(assert (= v w))\n")
        assert main(["solve", str(path), "--seed", "-2"]) == 0
        assert capsys.readouterr().out == "sat\n"

    def test_sat_chain_with_equal_defaults(self, tmp_path, capsys):
        path = chain_file(tmp_path, extra="(assert (= v w))\n")
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out == "sat\n"
        assert out.err == ""

    def test_sat_chain_with_distinct_defaults(self, tmp_path, capsys):
        path = chain_file(tmp_path, extra="(assert (not (= v w)))\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == "sat\n"

    def test_unsat_const_array_equality(self, tmp_path, capsys):
        path = const_eq_file(tmp_path)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr()
        assert out.out == "unsat\n"
        assert out.err == ""

    def test_get_model_prints_definitions(self, tmp_path, capsys):
        path = chain_file(tmp_path, get_model=True)
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sat"
        defs = [l for l in out[1:] if l]
        assert len(defs) == 11
        assert all(l.startswith("(define-fun ") for l in defs)

    def test_model_roundtrips_through_validate(self, tmp_path, capsys):
        path = chain_file(tmp_path, get_model=True,
                          extra="(assert (not (= v w)))\n")
        assert main(["solve", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        model_path = tmp_path / "model.smt2"
        model_path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_deep_model_roundtrips_through_validate(self, tmp_path, capsys):
        path = tmp_path / "deep.smt2"
        path.write_text(deep_chain_text("not"))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sat"
        model_path = tmp_path / "model.smt2"
        model_path.write_text("\n".join(out[1:]) + "\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_stats_go_to_stderr(self, tmp_path, capsys):
        path = chain_file(tmp_path, extra="(assert (not (= v w)))\n")
        assert main(["solve", str(path), "--stats"]) == 0
        out = capsys.readouterr()
        assert out.out == "sat\n"
        assert "refinements:" in out.err
        assert "lemmas.const_congruence: 1" in out.err

    def test_definition_constrains_its_constant(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(define-fun x () Bool true)\n(assert (not x))\n"
                        "(check-sat)\n")
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == "unsat\n"

    def test_model_of_definitions_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const y Bool)\n(define-fun x () Bool y)\n"
                        "(assert x)\n(check-sat)\n(get-model)\n")
        assert main(["solve", str(path)]) == 0
        verdict, *lines = capsys.readouterr().out.splitlines()
        assert verdict == "sat"
        assert lines == ["(define-fun y () Bool true)",
                         "(define-fun x () Bool true)"]
        model_path = tmp_path / "model.smt2"
        model_path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_budget_zero_reports_unknown(self, tmp_path, capsys):
        path = tmp_path / "wide.smt2"
        decls = "\n".join(f"(declare-const x{k} (_ BitVec 3))"
                          for k in range(8))
        pairs = "\n".join(
            f"(assert (not (= x{a} x{b})))"
            for a in range(8) for b in range(a + 1, 8))
        path.write_text(f"{decls}\n{pairs}\n(check-sat)\n")
        assert main(["solve", str(path), "--budget", "0"]) == 0
        assert capsys.readouterr().out == "unknown\n"

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "missing.smt2")]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "error" in out.err

    def test_malformed_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.smt2"
        path.write_text("(assert (= x y)\n")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unclosed" in out.err

    def test_assert_after_check_sat_is_a_located_error(self, tmp_path,
                                                       capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const x Bool)\n(assert x)\n(check-sat)\n"
                        "(assert (not x))\n")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: {path}:4:1: assert after check-sat: "
                           "only get-model and exit may follow it\n")

    @pytest.mark.parametrize("text,verdict", [
        ("(assert x)\n(exit)\n(assert (not x))\n(check-sat)\n", ""),
        ("(assert x)\n(check-sat)\n(exit)\n(assert (not x))\n", "sat\n"),
        ("(assert x)\n(assert (not x))\n", ""),
    ])
    def test_verdict_only_for_a_script_reaching_check_sat(
            self, tmp_path, capsys, text, verdict):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const x Bool)\n" + text)
        assert main(["solve", str(path), "--stats"]) == 0
        out = capsys.readouterr()
        assert out.out == verdict
        assert ("refinements:" in out.err) == bool(verdict)

    @pytest.mark.parametrize("sort", ["(_ BitVec 1)", "Bool"])
    def test_witness_index_never_captures_an_input_constant(
            self, tmp_path, capsys, sort):
        # The witness index of `(= a b)` would be named __ext_k_5, the
        # name of an input constant here; the engine takes another name.
        path = tmp_path / "f.smt2"
        path.write_text(witness_name_text(5, sort))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == ("sat\n", "")

    def test_definition_does_not_see_itself(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(define-fun x () Bool (not x))\n(check-sat)\n")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}:1:28: unknown symbol 'x'\n"

    @pytest.mark.parametrize("text,diagnostic", [
        ("(declare-const y (_ BitVec \u00b2))",
         "1:28: bad bit-vector width '\u00b2'"),
        ("(declare-const y (_ BitVec \u0663))",
         "1:28: bad bit-vector width '\u0663'"),
        ("(declare-const y (_ BitVec 4))(assert (= y #x+1))",
         "1:44: bad hexadecimal literal '#x+1'"),
        ("(declare-const y (_ BitVec 8))(assert (= y #x1_0))",
         "1:44: bad hexadecimal literal '#x1_0'"),
        ("(declare-const y (_ BitVec 4))(assert (= y #x-1))",
         "1:44: bad hexadecimal literal '#x-1'"),
        ("(declare-const true Bool)(declare-const false Bool)"
         "(assert (= true false))", "1:16: reserved name 'true'"),
        ("(declare-fun false () Bool)", "1:14: reserved name 'false'"),
        ("(define-fun #b1 () Bool true)", "1:13: reserved name '#b1'"),
        (f"(declare-const y (_ BitVec {MAX_BV_WIDTH + 1}))(assert (= y y))",
         f"1:28: bit-vector width exceeds the limit of {MAX_BV_WIDTH}"),
    ])
    def test_malformed_numeral_or_reserved_name_is_located(
            self, tmp_path, capsys, text, diagnostic):
        path = tmp_path / "f.smt2"
        path.write_text(text + "\n(check-sat)\n", encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {path}:{diagnostic}\n"

    @pytest.mark.parametrize("op", ["and", "or"])
    def test_one_operand_connective_over_a_bit_vector_is_located(
            self, tmp_path, capsys, op):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const x (_ BitVec 2))"
                        f"(assert (= ({op} x) #b01))\n(check-sat)\n")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: {path}:1:42: {op.upper()} expects Bool "
                           "arguments\n")

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_bytes(b"\xff(check-sat)\n")
        assert main(["solve", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "UTF-8" in out.err
        assert "Traceback" not in out.err

    def test_resource_limit_maps_to_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        import caext.cli as cli_module

        def boom(*args, **kwargs):
            raise ResourceLimit("refinement limit exceeded")

        monkeypatch.setattr(cli_module, "check_sat", boom)
        path = chain_file(tmp_path)
        assert main(["solve", str(path)]) == 3
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [UndefinedStep, IllDefinedModel])
    def test_engine_invariant_failure_maps_to_exit_2(self, tmp_path, capsys,
                                                     monkeypatch, error):
        import caext.cli as cli_module

        def boom(*args, **kwargs):
            raise error("engine invariant broken")

        monkeypatch.setattr(cli_module, "check_sat", boom)
        path = chain_file(tmp_path)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == \
            "internal error: engine invariant broken\n"


class TestValidate:
    def test_wrong_model_names_failing_assertion(self, tmp_path, capsys):
        path = const_eq_file(tmp_path, negate_defaults=False)
        model_path = tmp_path / "model.smt2"
        model_path.write_text(
            "(define-fun v () Bool true)\n(define-fun w () Bool false)\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("invalid (= ")

    def test_missing_constants_are_zero_filled(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const x Bool)\n(declare-const y Bool)\n"
                        "(assert (= x y))\n(check-sat)\n")
        model_path = tmp_path / "m.smt2"
        model_path.write_text("(define-fun x () Bool false)\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "valid\n"

    def test_model_breaking_a_definition_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const y Bool)\n(define-fun x () Bool y)\n"
                        "(assert (not y))\n(check-sat)\n")
        model_path = tmp_path / "m.smt2"
        model_path.write_text("(define-fun y () Bool false)\n"
                              "(define-fun x () Bool true)\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "invalid (= x y)\n"

    def test_model_definition_does_not_see_itself(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text("(declare-const y Bool)\n(assert y)\n(check-sat)\n")
        model_path = tmp_path / "m.smt2"
        model_path.write_text("(define-fun y () Bool (not y))\n")
        assert main(["validate", str(path), str(model_path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {model_path}:1:28: unknown symbol 'y'\n"

    @pytest.mark.parametrize("bad", ["file", "modelfile"])
    def test_parse_error_names_the_file_at_fault(self, tmp_path, capsys,
                                                 bad):
        paths = {"file": tmp_path / "f.smt2", "modelfile": tmp_path / "m.smt2"}
        paths["file"].write_text("(declare-const y Bool)\n(check-sat)\n")
        paths["modelfile"].write_text("(define-fun y () Bool true)\n")
        paths[bad].write_text("\n(define-fun y () Bool z)\n")
        assert main(["validate", str(paths["file"]),
                     str(paths["modelfile"])]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {paths[bad]}:2:23: unknown symbol 'z'\n"

    @pytest.mark.parametrize("bad", ["file", "modelfile"])
    def test_non_utf8_file_is_input_error(self, tmp_path, capsys, bad):
        paths = {"file": tmp_path / "f.smt2", "modelfile": tmp_path / "m.smt2"}
        paths["file"].write_text("(declare-const y Bool)\n(check-sat)\n")
        paths["modelfile"].write_text("(define-fun y () Bool true)\n")
        paths[bad].write_bytes(b"\xff")
        assert main(["validate", str(paths["file"]),
                     str(paths["modelfile"])]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "UTF-8" in out.err
        assert "Traceback" not in out.err

    def test_model_with_array_value(self, tmp_path, capsys):
        path = tmp_path / "f.smt2"
        path.write_text(
            "(declare-const a (Array Bool Bool))\n"
            "(assert (= (select a true) true))\n"
            "(assert (= (select a false) false))\n(check-sat)\n")
        model_path = tmp_path / "m.smt2"
        model_path.write_text(
            "(define-fun a () (Array Bool Bool) "
            "(store ((as const (Array Bool Bool)) true) false false))\n")
        assert main(["validate", str(path), str(model_path)]) == 0
        assert capsys.readouterr().out == "valid\n"


class TestFuzz:
    def test_summary_line(self, capsys):
        assert main(["fuzz", "--count", "20", "--seed", "11"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.startswith("20 instances: 20 agree, 0 disagree")

    def test_bad_bounds_flag(self, capsys):
        assert main(["fuzz", "--count", "1", "--bounds", "nope=3"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bounds_override_accepted(self, capsys):
        assert main(["fuzz", "--count", "5", "--seed", "2",
                     "--bounds", "max_free_constants=5"]) == 0
        assert "5 instances: 5 agree" in capsys.readouterr().out

    def test_disagreement_is_reported_with_the_script(self, monkeypatch,
                                                      capsys):
        real = caext.cli.oracle_solve

        def flipped(assertions, bounds):
            verdict = real(assertions, bounds).verdict
            return caext.OracleResult("sat" if verdict == "unsat" else "unsat")

        monkeypatch.setattr(caext.cli, "oracle_solve", flipped)
        assert main(["fuzz", "--count", "1", "--seed", "0"]) == 2
        out = capsys.readouterr()
        m, assertions = gen_fuzz(0)
        solver = caext.check_sat(m, assertions).verdict
        reference = "sat" if solver == "unsat" else "unsat"
        assert out.err == (f"disagreement at seed 0: solver says {solver}, "
                           f"reference says {reference}\n"
                           f"{caext.print_script(assertions)}\n")
        assert out.out.startswith("1 instances: 0 agree, 1 disagree")

    def test_model_failing_assert_back_is_a_disagreement(self, monkeypatch,
                                                         capsys):
        m, assertions = gen_fuzz(1)
        assert caext.check_sat(m, assertions).verdict == "sat"
        monkeypatch.setattr(caext.cli, "validate_model",
                            lambda model, assertions: False)
        assert main(["fuzz", "--count", "1", "--seed", "1"]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(
            "disagreement at seed 1: model fails assert-back\n")
        assert out.out.startswith("1 instances: 0 agree, 1 disagree")

    @pytest.mark.parametrize("bounds", [
        "max_index_domain=0", "max_element_domain=1",
        "max_interpretations=5"])
    def test_unmeetable_bounds_are_an_error(self, bounds, capsys):
        assert main(["fuzz", "--count", "3", "--bounds", bounds]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert "Traceback" not in out.err


class TestGen:
    def test_writes_parseable_native_file(self, tmp_path, capsys):
        assert main(["gen", "--crafted", "1,1,1,1",
                     "--out", str(tmp_path)]) == 0
        written = capsys.readouterr().out.strip()
        assert Path(written).name == "crafted_z1_1-1-1_bv2_bool.smt2"
        assert main(["solve", written]) == 0
        assert capsys.readouterr().out == "sat\n"

    def test_quantified_variant(self, tmp_path, capsys):
        assert main(["gen", "--crafted", "0,0,0", "--quantified",
                     "--index-sort", "bv1", "--element-sort", "bv1",
                     "--out", str(tmp_path)]) == 0
        written = capsys.readouterr().out.strip()
        text = (tmp_path / written.split("/")[-1]).read_text()
        assert "as const" not in text
        assert text.count("forall") == 2

    def test_seed_option_is_gone(self, tmp_path, capsys):
        # a crafted instance does not depend on a seed, so gen takes none
        assert main(["gen", "--crafted", "0,0,0", "--seed", "7",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and "usage error" in out.err
        assert list(tmp_path.iterdir()) == []

    def test_bad_shape_rejected(self, tmp_path, capsys):
        assert main(["gen", "--crafted", "2,1,1",
                     "--out", str(tmp_path)]) == 1
        assert "usage error" not in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--index-sort", "--element-sort"])
    @pytest.mark.parametrize("width", [str(MAX_BV_WIDTH + 1), "9" * 5000])
    def test_width_over_the_limit_is_a_usage_error(self, tmp_path, capsys,
                                                   flag, width):
        assert main(["gen", "--crafted", "0,0,0", flag, f"bv{width}",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and not list(tmp_path.iterdir())
        assert out.err.startswith("usage error: ")
        assert f"exceeds the limit of {MAX_BV_WIDTH}" in out.err

    @pytest.mark.parametrize("extra,verdict", [
        # the stores cannot cover 2**64 indices
        ("(assert (not (= v w)))", "unsat"),
        ("(assert (not (= a1 (store a1 i3 e3))))", "sat"),
    ])
    def test_bv64_sorts_solve(self, tmp_path, capsys, extra, verdict):
        assert main(["gen", "--crafted", "1,2,1,2", "--index-sort", "bv64",
                     "--element-sort", "bv64", "--out", str(tmp_path)]) == 0
        text = Path(capsys.readouterr().out.strip()).read_text()
        path = tmp_path / "wide.smt2"
        path.write_text(text.replace("(check-sat)",
                                     f"{extra}\n(check-sat)\n(get-model)"))
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{verdict}\n")
        if verdict == "sat":
            model = tmp_path / "model.smt2"
            model.write_text(out.split("\n", 1)[1])
            assert main(["validate", str(path), str(model)]) == 0

    @pytest.mark.parametrize("flags", [[], ["--quantified"]])
    def test_writes_a_2000_store_chain(self, tmp_path, capsys, flags):
        # Printing and the quantified rewrite walk the chain with explicit
        # stacks, so its depth is not bounded by the recursion limit.
        assert main(["gen", "--crafted", "0,2000,2", "--index-sort", "bv12",
                     *flags, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        path = Path(out.out.strip())
        text = path.read_text()
        assert text.count("(store ") == 2002
        assert ("forall" in text) == bool(flags)
        if not flags:
            # The reader and flatten walk on explicit stacks, so the
            # chain reads back whole, and flatten leaves it in place.
            script = caext.parse(text)
            flat = flatten(script.manager, script.assertions)
            assert all(is_flat_formula(f) for f in flat.formulas)
            assert not flat.definitions
            assert flat.formulas == script.assertions
            assert sum(t.kind is Kind.STORE
                       for t in postorder(flat.formulas)) == 2002

    def test_solves_a_500_store_chain(self, tmp_path, capsys):
        assert main(["gen", "--crafted", "0,500,2", "--index-sort", "bv12",
                     "--out", str(tmp_path)]) == 0
        path = capsys.readouterr().out.strip()
        assert main(["solve", path]) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == ("sat\n", "")

    def test_bad_sort_rejected(self, tmp_path, capsys):
        assert main(["gen", "--crafted", "0,0,0", "--index-sort", "int",
                     "--out", str(tmp_path)]) == 1
        assert "unknown sort" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--count", "-5"],
    ["solve", "unused.smt2", "--budget", "-1"],
    ["fuzz", "--count", "1", "--bounds", "max_free_constants=-3"],
    # a superscript two passes str.isdigit() but int() rejects it
    ["gen", "--crafted", "0,0,\u00b2"],
    ["gen", "--crafted", "0,0,0", "--index-sort", "bv\u00b2"],
    # a leading "--" is not a sign
    ["gen", "--crafted", "0,--5,2"],
    # int() reads at most 4,300 digits
    ["gen", "--crafted", "0," + "9" * 5000 + ",2"],
    ["fuzz", "--bounds", "max_index_domain=" + "9" * 5000],
    ["fuzz", "--count", "9" * 5000],
    # an Arabic-Indic three is a decimal digit to str and to int()
    ["gen", "--crafted", "0,\u0663,2"],
    ["gen", "--crafted", "0,1,1", "--index-sort", "bv\u0663"],
    ["gen", "--crafted", "0,1,1", "--element-sort", "bv\u0663"],
    ["fuzz", "--count", "\u0663"],
    ["fuzz", "--count", "1", "--bounds", "max_index_domain=\u0663"],
    # --seed takes ASCII digits after at most one "-", not all int() reads
    ["solve", "unused.smt2", "--seed", "\u0663"],
    ["solve", "unused.smt2", "--seed", "-\u0663"],
    ["fuzz", "--seed", "1_0"],
    ["fuzz", "--seed", " 7"],
    ["solve", "unused.smt2", "--seed", "+3"],
    ["fuzz", "--seed", "-"],
])
def test_bad_numbers_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = const_eq_file(tmp_path)
        proc = run_module("solve", str(path))
        assert proc.returncode == 0
        assert proc.stdout == "unsat\n"

    def test_deep_nesting_is_answered(self, tmp_path):
        depth = DEEP
        path = tmp_path / "deep.smt2"
        path.write_text("(declare-const p Bool)\n(assert "
                        + "(not " * depth + "p" + ")" * depth
                        + ")\n(check-sat)\n")
        proc = run_module("solve", str(path))
        assert proc.returncode == 0
        assert proc.stdout == "sat\n"
        assert proc.stderr == ""

    def test_unknown_command(self):
        proc = run_module("frobnicate")
        assert proc.returncode == 1
        assert proc.stdout == ""
