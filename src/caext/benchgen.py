"""Benchmark instance generators.

Two families:

* **Crafted** — a parameterized chain of array equalities.  Two
  constant arrays with distinct default constants sit at the ends; ``z``
  free middle arrays sit between them; every term in the chain is a
  store chain of configurable length over its base, with all indices
  and stored elements fresh constants.  Satisfiability of such an
  instance hinges on whether the stores can cover the whole index
  domain, which exercises default-value propagation end to end.

* **Fuzz** — small random well-sorted assertion sets, deterministic per
  seed and sized to stay within the brute-force checker's enumeration
  bounds by construction, for differential testing.

The crafted family can be emitted in two encodings: the native one
using ``(as const ...)`` terms, and a quantified one for solvers
without constant arrays, where each constant array becomes a fresh
array constant pinned by a universal read axiom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import BoundsExceeded, CaextError
from .oracle import DEFAULT_BOUNDS, OracleBounds, check_bounds
from .printer import print_script, print_sort, print_term
from .terms import (Kind, Sort, SortKind, Term, TermManager, domain_size,
                    free_constants, iter_subterms, substitute)


@dataclass(frozen=True)
class CraftedParams:
    """Shape of one crafted instance.

    ``update_counts`` holds ``z + 2`` store-chain lengths: one for the
    leading constant-array chain, one per middle array, one for the
    trailing constant-array chain.  Each middle array heads *two*
    chains of its stated length — one facing each neighbouring
    equality — so the middle arrays are shared between equalities
    without the equalities sharing store terms.
    """

    z: int
    update_counts: tuple[int, ...]
    index_sort: Sort
    element_sort: Sort
    seed: int = 0

    def __post_init__(self) -> None:
        if self.z < 0:
            raise CaextError(f"need z >= 0, got {self.z}")
        counts = tuple(self.update_counts)
        object.__setattr__(self, "update_counts", counts)
        if len(counts) != self.z + 2:
            raise CaextError(
                f"need {self.z + 2} update counts for z={self.z}, "
                f"got {len(counts)}")
        if any(c < 0 for c in counts):
            raise CaextError(f"update counts must be >= 0, got {counts}")
        for which, sort in (("index", self.index_sort),
                            ("element", self.element_sort)):
            if sort.is_array:
                raise CaextError(f"{which} sort must be scalar, got {sort!r}")


def gen_crafted(manager: TermManager, params: CraftedParams) -> list[Term]:
    """The chained-equality assertions for ``params``.

    Returns ``z + 1`` equalities linking, in order: a store chain over
    a constant array with default ``v``, two store chains over each of
    ``a1 .. az``, and a store chain over a constant array with default
    ``w``.  All indices (``i1, i2, ...``) and stored elements
    (``e1, e2, ...``) are fresh constants, so instance status is left
    to the solver.
    """
    m = manager
    asort = m.array_sort(params.index_sort, params.element_sort)
    v = m.mk_const("v", params.element_sort)
    w = m.mk_const("w", params.element_sort)
    bases = ([m.mk_const_array(asort, v)]
             + [m.mk_const(f"a{k + 1}", asort) for k in range(params.z)]
             + [m.mk_const_array(asort, w)])
    fresh = iter(range(1, 2 * sum(params.update_counts) + 1))

    def chain(base: Term, count: int) -> Term:
        t = base
        for _ in range(count):
            k = next(fresh)
            t = m.mk_store(t,
                           m.mk_const(f"i{k}", params.index_sort),
                           m.mk_const(f"e{k}", params.element_sort))
        return t

    assertions = []
    right = chain(bases[0], params.update_counts[0])
    for k in range(1, len(bases)):
        left = chain(bases[k], params.update_counts[k])
        assertions.append(m.mk_eq(right, left))
        if k < len(bases) - 1:
            right = chain(bases[k], params.update_counts[k])
    return assertions


def _sort_slug(sort: Sort) -> str:
    if sort.is_array:
        raise CaextError(f"no file-name form for array sort {sort!r}")
    return "bool" if sort.kind is SortKind.BOOL else f"bv{sort.width}"


def crafted_filename(params: CraftedParams, *, quantified: bool = False) -> str:
    counts = "-".join(str(c) for c in params.update_counts)
    stem = (f"crafted_z{params.z}_{counts}_{_sort_slug(params.index_sort)}"
            f"_{_sort_slug(params.element_sort)}_{params.seed}")
    if quantified:
        stem += "_quantified"
    return stem + ".smt2"


def write_crafted(params: CraftedParams, directory: Path | str, *,
                  quantified: bool = False) -> Path:
    """Generate one crafted instance and write it under ``directory``.

    Returns the path written.  ``quantified`` selects the encoding for
    solvers without constant arrays.
    """
    manager = TermManager()
    assertions = gen_crafted(manager, params)
    if quantified:
        text = emit_quantified(manager, assertions)
    else:
        text = print_script(assertions)
    path = Path(directory) / crafted_filename(params, quantified=quantified)
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Quantified encoding
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    k = 0
    while f"{base}{k}" in taken:
        k += 1
    taken.add(f"{base}{k}")
    return f"{base}{k}"


def emit_quantified(manager: TermManager, assertions: Sequence[Term],
                    *, logic: str = "ALL") -> str:
    """SMT-LIB text with constant arrays axiomatized away.

    Every constant-array term becomes a fresh array constant plus one
    asserted read axiom ``(forall ((i idx)) (= (select c i) default))``.
    The output never contains an ``as const`` term, so it can be fed to
    solvers that lack the construct; it is emission-only and is not
    read back by this package's own parser.
    """
    const_arrays = [t for t in iter_subterms(assertions)
                    if t.kind is Kind.CONST_ARRAY]
    taken = {c.name for c in free_constants(assertions)}
    mapping: dict[Term, Term] = {}
    for k, ca in enumerate(const_arrays):
        mapping[ca] = manager.mk_const(_fresh_name(f"ca{k}", taken), ca.sort)
    rewritten = [substitute(manager, a, mapping) for a in assertions]

    lines = [f"(set-logic {logic})"]
    declared = free_constants(rewritten)
    axioms = []
    bound = _fresh_name("qi", taken)
    for ca in const_arrays:
        c = mapping[ca]
        default = substitute(manager, ca.default, mapping)
        for extra in free_constants([default]):
            if extra not in declared:
                declared.append(extra)
        axioms.append(
            f"(assert (forall (({bound} {print_sort(ca.sort.index)})) "
            f"(= (select {c.name} {bound}) {print_term(default)})))")
    for c in declared:
        lines.append(f"(declare-const {c.name} {print_sort(c.sort)})")
    lines.extend(axioms)
    for a in rewritten:
        lines.append(f"(assert {print_term(a)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def gen_fuzz(seed: int, bounds: OracleBounds = DEFAULT_BOUNDS,
             ) -> tuple[TermManager, list[Term]]:
    """A small random assertion set, deterministic per seed.

    Instances are constructed to stay within ``bounds`` (and within the
    default enumeration ceiling): scalar sorts are capped at four
    values, index and element domains never exceed four values jointly,
    and at most two array constants and four scalar constants are used.
    Half of all instances are steered toward an equality touching at
    least one constant array, which random uniform choice would rarely
    produce.

    Bounds that admit no instance (an index or element domain under two
    values, no array constant, fewer than two scalar constants) raise
    :class:`CaextError`; an instance that needs more interpretations
    than ``bounds.max_interpretations`` raises :class:`BoundsExceeded`.
    """
    if min(bounds.max_index_domain, bounds.max_element_domain) < 2 \
            or bounds.max_array_constants < 1 \
            or bounds.max_free_constants < 2:
        raise CaextError("bounds leave no room for a usable instance")
    rng = random.Random(seed)
    m = TermManager()
    scalar_sorts = [m.bool_sort, m.bv_sort(1), m.bv_sort(2)]

    def fits(sort: Sort, limit: int) -> bool:
        return domain_size(sort) <= limit

    index_sort = rng.choice(
        [s for s in scalar_sorts if fits(s, bounds.max_index_domain)])
    elem_limit = bounds.max_element_domain
    if domain_size(index_sort) >= 4:
        elem_limit = min(elem_limit, 2)
    element_sort = rng.choice(
        [s for s in scalar_sorts if fits(s, elem_limit)])
    asort = m.array_sort(index_sort, element_sort)

    n_arrays = rng.randint(1, min(2, bounds.max_array_constants))
    arrays = [m.mk_const(f"a{k}", asort) for k in range(n_arrays)]
    n_scalars = min(4, bounds.max_free_constants)
    n_idx = rng.randint(1, max(1, n_scalars // 2))
    idx_consts = [m.mk_const(f"i{k}", index_sort) for k in range(n_idx)]
    elem_consts = [m.mk_const(f"e{k}", element_sort)
                   for k in range(n_scalars - n_idx)]

    def idx_term() -> Term:
        if not elem_consts or rng.random() < 0.7:
            pool = idx_consts + [
                m.mk_value(index_sort,
                           rng.randrange(domain_size(index_sort)))]
            return rng.choice(pool)
        return rng.choice(idx_consts)

    def elem_term() -> Term:
        if elem_consts and rng.random() < 0.6:
            return rng.choice(elem_consts)
        return m.mk_value(element_sort,
                          rng.randrange(domain_size(element_sort)))

    def array_term(*, force_const_base: bool = False) -> Term:
        if force_const_base or rng.random() < 0.4:
            base = m.mk_const_array(asort, elem_term())
        else:
            base = rng.choice(arrays)
        for _ in range(rng.randint(0, 2)):
            base = m.mk_store(base, idx_term(), elem_term())
        return base

    def maybe_negate(atom: Term) -> Term:
        return m.mk_not(atom) if rng.random() < 0.4 else atom

    def atom(*, force_const: bool = False) -> Term:
        roll = rng.random()
        if force_const or roll < 0.35:
            return m.mk_eq(array_term(force_const_base=force_const),
                           array_term())
        if roll < 0.7:
            return m.mk_eq(m.mk_select(array_term(), idx_term()),
                           elem_term())
        if roll < 0.85 and len(idx_consts) >= 2:
            a, b = rng.sample(idx_consts, 2)
            return m.mk_eq(a, b)
        return m.mk_eq(idx_term(), idx_term())

    assertions = []
    want_const_bias = rng.random() < 0.5
    for k in range(rng.randint(2, 4)):
        assertions.append(
            maybe_negate(atom(force_const=want_const_bias and k == 0)))
    try:
        check_bounds(assertions, bounds)
    except BoundsExceeded as exc:
        raise BoundsExceeded(
            f"the fuzz instance of seed {seed} exceeds its bounds: {exc}"
        ) from None
    return m, assertions
