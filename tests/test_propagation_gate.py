"""Propagation gate: the engine against the reference restart-scan
propagator and conflict scan in `reference_propagation`.

At every saturation of a run the engine's propagation map must equal
the one the reference records from scratch for the same formulas and
candidate (same keys, reasons, sources and insertion order: a copy's
reason is its atom and a crossing's the store it crossed), the literal
the engine's path walker builds for every read's store crossing must be
the ``not (= i k)`` the reference made for that hop, the blocked set
every default step carries must equal the values of the store indices a
fresh walk of its path crosses, and the conflict the engine finds must
equal the reference's.
"""

from __future__ import annotations

from collections import Counter

import pytest

import caext
from caext import TermManager, check_sat
from caext.benchgen import gen_fuzz
from caext.engine import _find_conflict, _walk

from helpers import (benchmark_crafted, lazy_witnesses, read_crossings,
                     structured_instance, watch_saturations,
                     witness_name_text)
from reference_propagation import reference_conflict, reference_saturation


def _gated_check_sat(m, assertions, rules: Counter):
    def gate(cfg):
        fresh, crossings = reference_saturation(cfg)
        assert list(cfg.steps.items()) == list(fresh.steps.items())
        assert crossings == read_crossings(cfg)
        expected = reference_conflict(fresh, cfg.witnessed)
        # check_sat's own scan follows and marks `cfg.witnessed`.
        info = _find_conflict(cfg, set(cfg.witnessed))
        assert info == expected
        for (dest, t), (blocked, _) in cfg.default_steps.items():
            crossed = _walk(cfg, dest, t)[1]
            assert blocked == {cfg.values[k] for k in crossed}
        rules[info.rule if info else "none"] += 1

    with watch_saturations(gate):
        return check_sat(m, assertions)


@pytest.mark.parametrize("first_seed", [0, 500])
def test_fuzz_matches_reference(first_seed):
    # gen_fuzz asserts every array disequality at the top level, where
    # its witness goes in before the first candidate; the same instance
    # with each one under an `or` keeps conflict kind 3 under the gate.
    plain: Counter = Counter()
    lazy: Counter = Counter()
    for seed in range(first_seed, first_seed + 500):
        m, assertions = gen_fuzz(seed)
        _gated_check_sat(m, assertions, plain)
        weakened = lazy_witnesses(m, assertions)
        if weakened != assertions:
            _gated_check_sat(m, weakened, lazy)
    assert "extensionality" not in plain and "extensionality" in lazy
    # Every conflict kind and saturation without a conflict occurred.
    assert set(plain + lazy) == {"read_over_const", "read_congruence",
                                 "extensionality", "const_congruence",
                                 "none"}


def test_structured_shapes_match_reference():
    # ites, Boolean terms in term positions, reads as indices and
    # depth-3 stores, which gen_fuzz never makes
    rules: Counter = Counter()
    for seed in range(200):
        m, assertions = structured_instance(seed)
        _gated_check_sat(m, assertions, rules)
    assert set(rules) == {"read_over_const", "read_congruence",
                          "extensionality", "const_congruence", "none"}


@pytest.mark.parametrize("sort", ["(_ BitVec 1)", "Bool"])
def test_lazy_witness_named_like_an_input_constant(sort):
    # The conflict scan's witness index for `(= a b)` would be named
    # __ext_k_5, the name of an input constant; both scans take the
    # same other name.
    script = caext.parse(witness_name_text(5, sort, lazy=True))
    rules: Counter = Counter()
    res = _gated_check_sat(script.manager, script.assertions, rules)
    assert res.verdict == "sat"
    assert rules["extensionality"] == 1


@pytest.mark.parametrize("seed", [1001, 7])
def test_crafted_ladder_matches_reference(seed):
    rules: Counter = Counter()
    rungs = 0
    for script in benchmark_crafted(seed):
        _gated_check_sat(script.manager, script.assertions, rules)
        rungs += 1
    assert rungs == 15
    assert set(rules) == {"read_over_const", "const_congruence", "none"}


@pytest.mark.parametrize("width", [12, 64])
def test_wide_shape_matches_reference(width):
    # a != b and store(a, i, false) = const(false) over width-bit indices
    m = TermManager()
    asort = m.array_sort(m.bv_sort(width), m.bool_sort)
    a, b = m.mk_const("a", asort), m.mk_const("b", asort)
    i = m.mk_const("i", m.bv_sort(width))
    false = m.mk_value(m.bool_sort, 0)
    assertions = [m.mk_not(m.mk_eq(a, b)),
                  m.mk_eq(m.mk_store(a, i, false),
                          m.mk_const_array(asort, false))]
    rules: Counter = Counter()
    assert _gated_check_sat(m, assertions, rules).verdict == "sat"
    assert rules["none"] == 1


def test_default_stops_where_two_stores_cover_the_domain():
    # Over 1-bit indices with i != j, the two stores update every cell:
    # the default crosses the first store down from the top but not the
    # second, so it never reaches `a`.
    m = TermManager()
    idx = m.bv_sort(1)
    asort = m.array_sort(idx, m.bool_sort)
    a, b = m.mk_const("a", asort), m.mk_const("b", asort)
    i, j = m.mk_const("i", idx), m.mk_const("j", idx)
    false = m.mk_value(m.bool_sort, 0)
    below = m.mk_store(a, i, false)
    c = m.mk_const_array(asort, false)
    assertions = [m.mk_not(m.mk_eq(a, b)), m.mk_not(m.mk_eq(i, j)),
                  m.mk_eq(m.mk_store(below, j, false), c)]
    reached = []

    def note_reach(cfg):
        reached.append(((below, c) in cfg.steps, (a, c) in cfg.steps))

    rules: Counter = Counter()
    with watch_saturations(note_reach):
        assert _gated_check_sat(m, assertions, rules).verdict == "sat"
    assert reached and set(reached) == {(True, False)}
