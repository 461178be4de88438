"""Sparse array values: agreement with the dense reference, and index
sorts far too wide for a dense table."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from caext import (ArrayValue, TermManager, check_sat, domain_size,
                   print_model, print_script, validate_model)
from caext.benchgen import CraftedParams, gen_crafted, gen_fuzz
from caext.printer import array_value_term
from caext.terms import MAX_BV_WIDTH
from perfbench.workloads import CRAFTED_LADDER

from dense_reference import dense_array_term, dense_print_model, dense_tables
from helpers import run_module, watch_saturations


def _check_against_dense(m, assertions) -> str:
    """Solve; on sat, compare every array table and the printed model
    with the dense reference built from the last saturation."""
    last = []
    with watch_saturations(last.append):
        result = check_sat(m, assertions)
    if result.verdict != "sat":
        return result.verdict
    tables = dense_tables(last[-1])
    constants = sorted((c for c, _ in result.model.items()),
                       key=lambda c: c.name)
    for c in constants:
        if c.sort.is_array:
            tables.setdefault(c, (0,) * domain_size(c.sort.index))
            assert tuple(result.model[c]) == tables[c], c.name
    assert print_model(m, result.model, constants) == \
        dense_print_model(m, result.model, tables, constants)
    return "sat"


class TestModelGate:
    @pytest.mark.parametrize("first_seed", [0, 500])
    def test_fuzz_models_match_dense_reference(self, first_seed):
        verdicts = set()
        for seed in range(first_seed, first_seed + 500):
            m, assertions = gen_fuzz(seed)
            verdicts.add(_check_against_dense(m, assertions))
        assert verdicts == {"sat", "unsat"}

    @pytest.mark.parametrize("rung", CRAFTED_LADDER,
                             ids=lambda r: f"z{r[0]}-{r[1]}-bv{r[2]}")
    def test_crafted_models_match_dense_reference(self, rung):
        z, counts, width = rung
        m = TermManager()
        params = CraftedParams(z, counts, m.bv_sort(width), m.bool_sort)
        assertions = gen_crafted(m, params)
        assertions.append(m.mk_not(m.mk_eq(m.lookup_const("v"),
                                           m.lookup_const("w"))))
        _check_against_dense(m, assertions)


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 3))
    elem_width = draw(st.integers(1, 2))
    size = 2 ** width
    cell = st.integers(0, 2 ** elem_width - 1)
    t1 = draw(st.lists(cell, min_size=size, max_size=size))
    t2 = list(t1) if draw(st.booleans()) else \
        draw(st.lists(cell, min_size=size, max_size=size))
    stores = draw(st.lists(st.tuples(st.integers(0, size - 1), cell),
                           max_size=6))
    default = draw(cell)
    exceptions = draw(st.dictionaries(st.integers(0, size - 1), cell))
    return width, elem_width, t1, t2, stores, default, exceptions


class TestArrayValue:
    @settings(max_examples=300, deadline=None)
    @given(_tables())
    def test_agrees_with_dense_tuple(self, case):
        width, elem_width, t1, t2, stores, default, exceptions = case
        m = TermManager()
        sort = m.array_sort(m.bv_sort(width), m.bv_sort(elem_width))
        value, dense = ArrayValue.from_table(t1), tuple(t1)
        for i, x in stores:
            value = value.store(i, x)
            dense = dense[:i] + (x,) + dense[i + 1:]
            assert tuple(value) == dense
        assert value.size == len(dense)
        assert tuple(value) == dense and list(value) == list(dense)
        assert [value[i] for i in range(len(dense))] == list(dense)
        other = ArrayValue.from_table(t2)
        assert (value == other) == (dense == tuple(t2))
        assert (value != other) == (dense != tuple(t2))
        if value == other:
            assert hash(value) == hash(other)
        assert array_value_term(m, sort, value) is \
            dense_array_term(m, sort, dense)
        assert array_value_term(m, sort, ArrayValue.from_table(dense)) is \
            dense_array_term(m, sort, dense)
        built = ArrayValue(default, exceptions, len(dense))
        table = tuple(exceptions.get(i, default) for i in range(len(dense)))
        assert tuple(built) == table
        canonical = ArrayValue.from_table(table)
        assert built == canonical and hash(built) == hash(canonical)
        assert (built.default, built.exceptions) == \
            (canonical.default, canonical.exceptions)

    def test_out_of_range_index(self):
        value = ArrayValue(0, {1: 1}, 4)
        with pytest.raises(IndexError):
            value[4]
        with pytest.raises(IndexError):
            value[-1]
        with pytest.raises(IndexError):
            value.store(-5, 1)
        with pytest.raises(IndexError):
            ArrayValue(0, {4: 1}, 4)

    def test_not_equal_to_other_sequences(self):
        assert ArrayValue(0, {}, 2) != (0, 0)
        assert ArrayValue(0, {}, 2) != [0, 0]
        assert ArrayValue(0, {}, 2) != (0, 0, 0)


def _wide(width: int):
    """``a != b and store(a, i, false) = const(false)``: sat, with ``a``
    false everywhere and ``b`` true at one index."""
    m = TermManager()
    asort = m.array_sort(m.bv_sort(width), m.bool_sort)
    a, b = m.mk_const("a", asort), m.mk_const("b", asort)
    false = m.mk_value(m.bool_sort, 0)
    return m, [
        m.mk_not(m.mk_eq(a, b)),
        m.mk_eq(m.mk_store(a, m.mk_const("i", m.bv_sort(width)), false),
                m.mk_const_array(asort, false)),
    ]


_WIDTHS = pytest.mark.parametrize("width", [32, 64, MAX_BV_WIDTH],
                                  ids=lambda w: f"bv{w}")


class TestLargeIndex:
    @_WIDTHS
    def test_wide_index_solves_with_a_validating_model(self, width):
        m, assertions = _wide(width)
        result = check_sat(m, assertions)
        assert result.verdict == "sat"
        assert validate_model(result.model, assertions)
        a = result.model[m.lookup_const("a")]
        assert a.size == 2 ** width
        assert a.exceptions == {} and a[2 ** width - 1] == 0

    @_WIDTHS
    def test_wide_model_prints_and_validates_through_cli(self, tmp_path,
                                                         width):
        m, assertions = _wide(width)
        problem = tmp_path / "wide.smt2"
        problem.write_text(print_script(assertions, get_model=True))
        solved = run_module("solve", str(problem), cwd=tmp_path)
        assert solved.returncode == 0, solved.stderr
        verdict, *model_lines = solved.stdout.splitlines()
        assert verdict == "sat"
        assert len(model_lines) == 3
        model_file = tmp_path / "model.smt2"
        model_file.write_text("\n".join(model_lines) + "\n")
        checked = run_module("validate", str(problem), str(model_file),
                           cwd=tmp_path)
        assert checked.returncode == 0, checked.stderr
        assert checked.stdout == "valid\n"
