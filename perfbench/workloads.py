"""The three workloads of the caext benchmark.

Each workload turns a seed into a list of instances.  An instance
drives caext only through its public calls, held in an ``api``
namespace so that a traced round can substitute wrappers, checks its own
result against an answer that does not come from the refinement loop,
and returns the solver result (or another summary) for the determinism
check.  A wrong answer raises :class:`CheckFailed`.

* ``fuzz`` — the ``caext fuzz`` operation over ``gen_fuzz`` seeds
  ``seed .. seed+1999``: generate, solve, compare with ``oracle_solve``,
  validate sat models.  Many tiny instances; the per-candidate ground
  rebuild dominates.
* ``crafted`` — the ``caext solve --check-model`` path with
  ``(get-model)`` over a ladder of ``gen_crafted`` chains with
  ``v != w``: parse, solve, validate, print the model and re-read it
  through the ``caext validate`` path.  The expected verdict is the
  store-cover law.  Propagation and ground encoding share the time.
* ``wide`` — the same path on ``a != b and store(a,i,false) =
  const(false)`` with 12- to 17-bit indices, known sat.  Model
  construction over every cell dominates.

The seed sets the first ``gen_fuzz`` seed; for the other workloads it
renames the constants and shuffles the assertion order, which leaves
every verdict unchanged.  Set-up (importing caext and numpy and
generating the input texts) is :func:`setup`; ``terms`` and
``benchgen`` are used there only, except that each fuzz instance
generates its own formula, as ``caext fuzz`` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

WORKLOADS = ("fuzz", "crafted", "wide")

# 2000 instances: drawn from 10,000 timed instances, the p98 of 1000
# spreads by 0.18 of its median (quartile distance) from draw to draw,
# of 2000 by 0.12, and wall_s by 0.09 and 0.05.
FUZZ_COUNT = 2000

# (z, update counts, index width).  Sat rungs reach the store-cover
# bound; unsat rungs fall one store short of it.  Only rungs whose
# refinement path (iterations, propagation entries, ground conflicts)
# stays the same under every disguise are used: the sat rungs with two
# or more middle arrays, z=3 (3,3,3,3,3) among them, take 5 to 10
# iterations depending on the assertion order, which would make the
# seed, not the code, set the run-to-run spread.
CRAFTED_LADDER = (
    (1, (2, 2, 2), 3), (1, (1, 2, 2), 3),
    (0, (4, 4), 3), (0, (4, 3), 3),
    (1, (0, 4, 0), 3), (1, (3, 2, 0), 3),
    (0, (5, 3), 3), (0, (6, 2), 3), (0, (7, 1), 3), (0, (8, 0), 3),
    (0, (5, 5), 3), (0, (6, 6), 3),
    (1, (4, 4, 4), 3),
    (2, (1, 1, 2, 0), 3), (3, (0, 1, 1, 1, 1), 3),
)

WIDE_WIDTHS = (12, 13, 14, 15, 16, 17)

# Entry points each workload exists to stress; a traced round that
# records no call to one of them fails the run.
REQUIRED_SPANS = {
    "fuzz": ("gen_fuzz", "check_sat", "flatten", "solve_ground",
             "SatSolver.solve", "init_steps", "propagate_fixpoint",
             "check_conflicts", "build_model", "validate_model",
             "oracle_solve"),
    "crafted": ("parse", "check_sat", "solve_ground", "SatSolver.solve",
                "propagate_fixpoint", "check_conflicts", "build_model",
                "validate_model", "print_model", "eval_term"),
    "wide": ("parse", "check_sat", "build_model", "validate_model",
             "print_model", "eval_term", "complete_model"),
}


class CheckFailed(Exception):
    """An operation produced a wrong answer."""


@dataclass
class Op:
    """One checked instance.  Latency is reported per ``group``, the
    operation a user waits for: a fuzz instance, a climb of the crafted
    ladder, a climb of the wide ladder."""
    name: str
    run: Callable
    group: str


def cover_law(z: int, counts: tuple[int, ...], width: int) -> str:
    """Verdict of a crafted chain with ``v != w``: the stores must be able
    to cover every index, ``c0 + c_last + 2 * sum(middle) >= |index|``
    (each middle array heads two chains)."""
    stores = counts[0] + counts[-1] + 2 * sum(counts[1:-1])
    return "sat" if stores >= 2 ** width else "unsat"


# -- set-up ----------------------------------------------------------------


def _disguise(manager, assertions, rng) -> list:
    """Rename every constant to a seeded name and shuffle the order."""
    from caext import free_constants, substitute
    consts = free_constants(assertions)
    names = [f"k{n}" for n in rng.sample(range(len(consts)), len(consts))]
    mapping = {c: manager.mk_const(n, c.sort) for c, n in zip(consts, names)}
    out = [substitute(manager, a, mapping) for a in assertions]
    rng.shuffle(out)
    return out


def _crafted(z, counts, width, rng) -> list:
    from caext import TermManager
    from caext.benchgen import CraftedParams, gen_crafted
    m = TermManager()
    params = CraftedParams(z, counts, m.bv_sort(width), m.bool_sort)
    assertions = gen_crafted(m, params)
    assertions.append(m.mk_not(m.mk_eq(m.lookup_const("v"),
                                       m.lookup_const("w"))))
    return _disguise(m, assertions, rng)


def _wide_text(width, rng) -> str:
    from caext import TermManager, print_script
    m = TermManager()
    asort = m.array_sort(m.bv_sort(width), m.bool_sort)
    a, b = m.mk_const("a", asort), m.mk_const("b", asort)
    false = m.mk_value(m.bool_sort, 0)
    assertions = [
        m.mk_not(m.mk_eq(a, b)),
        m.mk_eq(m.mk_store(a, m.mk_const("i", m.bv_sort(width)), false),
                m.mk_const_array(asort, false)),
    ]
    return print_script(_disguise(m, assertions, rng), get_model=True)


def setup(workload: str, seed: int) -> list[Op]:
    """Import caext and numpy and build the workload's operations."""
    import numpy  # noqa: F401  (its import is part of set-up time)
    from caext import print_script

    if workload == "fuzz":
        return [Op(f"fuzz/{s}", partial(fuzz_op, seed=s), f"fuzz/{s}")
                for s in range(seed, seed + FUZZ_COUNT)]
    if workload == "crafted":
        ops = []
        for k, (z, counts, width) in enumerate(CRAFTED_LADDER):
            rng = random.Random(f"crafted/{seed}/{k}")
            text = print_script(_crafted(z, counts, width, rng),
                                get_model=True)
            name = f"crafted/z{z}/{','.join(map(str, counts))}/bv{width}"
            ops.append(Op(name, partial(solve_op, text=text,
                                        expected=cover_law(z, counts, width)),
                          "crafted"))
        return ops
    if workload == "wide":
        return [Op(f"wide/bv{w}",
                   partial(solve_op, text=_wide_text(w, random.Random(
                       f"wide/{seed}/{w}")), expected="sat"), "wide")
                for w in WIDE_WIDTHS]
    raise ValueError(f"unknown workload {workload!r}")


# -- operations --------------------------------------------------------------


def fuzz_op(api, seed: int):
    """``caext fuzz`` on one seed."""
    manager, assertions = api.gen_fuzz(seed)
    result = api.check_sat(manager, assertions)
    expected = api.oracle_solve(assertions).verdict
    if result.verdict != expected:
        raise CheckFailed(f"solver says {result.verdict}, oracle says "
                          f"{expected}")
    if result.verdict == "sat" and not api.validate_model(result.model,
                                                          assertions):
        raise CheckFailed("sat model fails an assertion")
    return result


def validate_path(api, script, model_text: str):
    """``caext validate FILE MODELFILE`` once FILE is parsed into
    ``script``: returns the model read back and its validation result."""
    from caext import Model
    model_script = api.parse(model_text, manager=script.manager)
    model = Model()
    for constant, body in model_script.defined.items():
        model.set(constant, api.eval_term(model, body))
    model = api.complete_model(model, script.assertions)
    return model, api.validate_model(model, script.assertions)


def solve_op(api, text: str, expected: str):
    """``caext solve --check-model`` on a file with ``(get-model)``, then
    the printed model re-read through ``caext validate``."""
    from caext import zero_value
    script = api.parse(text)
    result = api.check_sat(script.manager, script.assertions)
    if result.verdict != expected:
        raise CheckFailed(f"solver says {result.verdict}, expected "
                          f"{expected}")
    if result.verdict == "sat":
        model = result.model
        if not api.validate_model(model, script.assertions):
            raise CheckFailed("sat model fails an assertion")
        for c in script.declared:
            if c not in model:
                model.set(c, zero_value(c.sort))
        model_text = api.print_model(script.manager, model, script.declared)
        _, outcome = validate_path(api, api.parse(text), model_text)
        if not outcome:
            raise CheckFailed("printed model reads back invalid")
    return result


def fingerprint(result) -> tuple:
    """What must repeat exactly between rounds: the verdict and the
    solver statistics, or another operation's summary."""
    stats = getattr(result, "stats", None)
    if stats is None:
        return result
    return (result.verdict, stats.refinements, stats.iterations,
            tuple(sorted(stats.lemma_counts.items())), stats.pi_size,
            stats.ground_conflicts,
            tuple((rule, repr(lemma)) for rule, lemma in stats.lemma_history))
