"""Ground model finder: T_E completeness, read freeness, determinism."""

import pytest

import random

import caext
from caext import (InternalError, OracleBounds, TermManager,
                   UnassignedConstant, oracle_solve)
from caext.flatten import flatten
from caext.ground import _eliminate, solve_ground
from caext.terms import Kind, postorder

from helpers import (DEEP_CHAINS, deep_chain_text, dense_equalities_instance,
                     ground_session, random_instance, table_eval)

LOOSE = OracleBounds(max_free_constants=16, max_array_constants=6)


@pytest.fixture
def m():
    return TermManager()


class TestScalarCore:
    def test_equality_chain_sat(self, m):
        x, y, z = (m.mk_const(s, m.bv_sort(1)) for s in "xyz")
        res = solve_ground(ground_session(m, [m.mk_eq(x, y), m.mk_eq(y, z)]))
        assert res.verdict == "sat"
        vals = res.values
        assert vals[x] == vals[y] == vals[z]

    def test_contradiction_unsat(self, m):
        x, y = (m.mk_const(s, m.bv_sort(2)) for s in "xy")
        eq = m.mk_eq(x, y)
        res = solve_ground(ground_session(m, [eq, m.mk_not(eq)]))
        assert res.verdict == "unsat"

    def test_three_distinct_values_do_not_fit_one_bit(self, m):
        ts = [m.mk_const(s, m.bv_sort(1)) for s in "xyz"]
        res = solve_ground(ground_session(m, [m.mk_distinct_n(3, ts)]))
        assert res.verdict == "unsat"

    def test_distinct_n_reified_negatively(self, m):
        ts = [m.mk_const(s, m.bv_sort(2)) for s in "xyz"]
        atom = m.mk_distinct_n(2, ts)
        res = solve_ground(ground_session(m, [m.mk_not(atom)]))
        assert res.verdict == "sat"
        vals = {res.values[t] for t in ts}
        assert len(vals) == 1

    def test_distinct_n_counting(self, m):
        ts = [m.mk_const(s, m.bv_sort(2)) for s in "xyzw"]
        res = solve_ground(ground_session(m, [m.mk_distinct_n(3, ts),
                                              m.mk_eq(ts[0], ts[1])]))
        assert res.verdict == "sat"
        vals = [res.values[t] for t in ts]
        assert len(set(vals)) >= 3 and vals[0] == vals[1]

    def test_values_fixed(self, m):
        x = m.mk_const("x", m.bv_sort(3))
        five = m.mk_value(m.bv_sort(3), 5)
        res = solve_ground(ground_session(m, [m.mk_eq(x, five)]))
        assert res.values[x] == 5


class TestReadsAreFree:
    """The ground level enforces neither select congruence nor array
    axioms beyond the three read axioms; those violations are the array
    engine's job to repair."""

    def test_congruence_not_enforced(self, m):
        a = m.mk_const("a", m.array_sort(m.bv_sort(2), m.bool_sort))
        i, j = (m.mk_const(s, m.bv_sort(2)) for s in "ij")
        ri, rj = m.mk_select(a, i), m.mk_select(a, j)
        res = solve_ground(ground_session(m, [m.mk_eq(i, j),
                                              m.mk_not(m.mk_eq(ri, rj))]))
        assert res.verdict == "sat"

    def test_virtual_read_is_enforced(self, m):
        a = m.mk_const("a", m.array_sort(m.bv_sort(2), m.bool_sort))
        i = m.mk_const("i", m.bv_sort(2))
        u = m.mk_const("u", m.bool_sort)
        read = m.mk_select(m.mk_store(a, i, u), i)
        res = solve_ground(ground_session(m, [m.mk_not(m.mk_eq(read, u))]))
        assert res.verdict == "unsat"

    def _read_hits_its_store(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        a = m.mk_const("a", asort)
        i, j = (m.mk_const(s, asort.index) for s in "ij")
        u = m.mk_const("u", asort.element)
        read = m.mk_select(m.mk_store(a, i, u), j)
        return [m.mk_eq(i, j), m.mk_not(m.mk_eq(read, u))]

    def test_read_on_a_store_at_its_index_is_the_stored_value(self, m):
        res = solve_ground(ground_session(m, self._read_hits_its_store(m)))
        assert res.verdict == "unsat"

    def test_read_over_write_hit_costs_no_lemma(self, m):
        res = caext.check_sat(m, self._read_hits_its_store(m))
        assert res.verdict == "unsat"
        assert res.stats.iterations == 1
        assert res.stats.lemmas == []

    def test_read_on_a_const_array_is_its_default(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bv_sort(2))
        d, i = m.mk_const("d", asort.element), m.mk_const("i", asort.index)
        c = m.mk_const_array(asort, d)
        direct = m.mk_select(c, i)
        res = solve_ground(ground_session(m, [m.mk_not(m.mk_eq(direct, d))]))
        assert res.verdict == "unsat"
        # across a store the read stays free
        j = m.mk_const("j", asort.index)
        across = m.mk_select(m.mk_store(c, j, d), i)
        res = solve_ground(ground_session(m, [m.mk_not(m.mk_eq(across, d))]))
        assert res.verdict == "sat"

    def test_array_equality_does_not_bind_reads(self, m):
        asort = m.array_sort(m.bv_sort(2), m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i = m.mk_const("i", m.bv_sort(2))
        res = solve_ground(ground_session(m, [
            m.mk_eq(a, b),
            m.mk_not(m.mk_eq(m.mk_select(a, i), m.mk_select(b, i)))]))
        assert res.verdict == "sat"

    def test_virtual_read_terms_enumerated(self, m):
        a = m.mk_const("a", m.array_sort(m.bool_sort, m.bool_sort))
        i = m.mk_const("i", m.bool_sort)
        u = m.mk_const("u", m.bool_sort)
        s = m.mk_store(a, i, u)
        res = solve_ground(ground_session(m, [
            m.mk_eq(s, a),
            m.mk_not(m.mk_eq(m.mk_select(s, i), u))]))
        assert res.verdict == "unsat"


class TestArrayPartition:
    def test_transitivity_enforced(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b, c = (m.mk_const(s, asort) for s in "abc")
        res = solve_ground(ground_session(m, [m.mk_eq(a, b), m.mk_eq(b, c),
                                              m.mk_not(m.mk_eq(a, c))]))
        assert res.verdict == "unsat"

    def test_representatives_follow_truth(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b, c = (m.mk_const(s, asort) for s in "abc")
        res = solve_ground(ground_session(m, [m.mk_eq(a, b),
                                              m.mk_not(m.mk_eq(b, c))]))
        assert res.verdict == "sat"
        assert table_eval(res.values, m.mk_eq(a, b))
        assert not table_eval(res.values, m.mk_eq(b, c))

    def test_store_nodes_participate(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b = m.mk_const("a", asort), m.mk_const("b", asort)
        i = m.mk_const("i", m.bool_sort)
        u = m.mk_const("u", m.bool_sort)
        s = m.mk_store(a, i, u)
        res = solve_ground(ground_session(m, [m.mk_eq(s, b)]))
        assert res.verdict == "sat"
        assert table_eval(res.values, m.mk_eq(s, b))


class TestSparseTransitivity:
    def test_four_cycle_needs_a_fill_edge(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b, c, d = (m.mk_const(s, asort) for s in "abcd")
        res = solve_ground(ground_session(m, [m.mk_eq(a, b), m.mk_eq(b, c),
                                              m.mk_eq(c, d),
                                              m.mk_not(m.mk_eq(a, d))]))
        assert res.verdict == "unsat"

    def test_unrelated_arrays_get_no_pair(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b, c, d = (m.mk_const(s, asort) for s in "abcd")
        session = ground_session(m, [m.mk_eq(a, b), m.mk_not(m.mk_eq(c, d))])
        res = solve_ground(session)
        assert res.verdict == "sat"
        assert {k for k in session.eq_lits if k[0].sort.is_array} == \
            {(a, b), (c, d)}
        assert table_eval(res.values, m.mk_eq(a, b))
        assert not table_eval(res.values, m.mk_eq(c, d))
        with pytest.raises(UnassignedConstant):
            table_eval(res.values, m.mk_eq(a, c))

    @pytest.mark.parametrize("seed", range(40))
    def test_true_atoms_are_closed_under_paths(self, seed):
        # Transitivity on the chordal completion makes the true pair
        # literals a partition: in every candidate an atom holds exactly
        # when a path of true atoms joins its two sides.  Candidates are
        # enumerated by blocking each one found.
        rng = random.Random(seed)
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        arrays = [m.mk_const(f"a{k}", asort)
                  for k in range(rng.randint(3, 8))]
        atoms = [m.mk_eq(x, y) for k, x in enumerate(arrays)
                 for y in arrays[k + 1:] if rng.random() < 0.5]
        if len(atoms) < 2:
            atoms = [m.mk_eq(arrays[0], arrays[1]),
                     m.mk_eq(arrays[1], arrays[2])]
        fs = []
        for e in atoms:
            other = rng.choice(atoms)
            fs.append(rng.choice([e, m.mk_not(e), m.mk_or([e, other]),
                                  m.mk_or([m.mk_not(e), other])]))
        session = ground_session(m, fs)
        for _ in range(30):
            res = solve_ground(session)
            if res.verdict == "unsat":
                break
            truth = {e: table_eval(res.values, e) for e in atoms}
            parent = {a: a for a in arrays}

            def find(x):
                while parent[x] is not x:
                    x = parent[x]
                return x

            for e, holds in truth.items():
                if holds:
                    parent[find(e.args[0])] = find(e.args[1])
            for e, holds in truth.items():
                joined = find(e.args[0]) is find(e.args[1])
                assert holds == joined, (seed, e)
            session.index.add_formula(m.mk_or(
                [m.mk_not(e) if holds else e for e, holds in truth.items()]))

    def test_dense_equalities_are_decided_by_the_first_candidate(self):
        # Every instance's atom graph is full of cycles, and the
        # transitivity clauses make its first ground call unsat; without
        # the triangle clauses the loop takes 7-56 candidates on these
        # seeds.  No benchmark instance has such a cycle.
        for seed in range(30):
            m, assertions = dense_equalities_instance(seed)
            res = caext.check_sat(m, assertions)
            assert res.verdict == "unsat", seed
            assert res.stats.iterations == 1, seed

    @pytest.mark.parametrize("seed", range(60))
    def test_heap_eliminates_in_the_order_of_a_min_scan(self, seed):
        # The elimination order fixes the fill edges, the pair variables
        # and the transitivity clauses, so the heap must pick the vertex
        # that a scan of every remaining vertex for the least (degree,
        # term id) picks, after every fill-in.
        rng = random.Random(seed)
        m = TermManager()
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        # ids out of name order, so ties are not broken by creation order
        arrays = [m.mk_const(f"a{k}", asort) for k in range(rng.randint(2, 24))]
        rng.shuffle(arrays)
        p = rng.uniform(0.05, 0.6)
        edges = [(x, y) for k, x in enumerate(arrays)
                 for y in arrays[k + 1:] if rng.random() < p]
        adj: dict = {}
        for x, y in edges:
            adj.setdefault(x, set()).add(y)
            adj.setdefault(y, set()).add(x)

        expected = []
        scan = {v: set(nbrs) for v, nbrs in adj.items()}
        while scan:
            v = min(scan, key=lambda t: (len(scan[t]), t.id))
            nbrs = sorted(scan.pop(v), key=lambda t: t.id)
            for x in nbrs:
                scan[x].discard(v)
            for k, x in enumerate(nbrs):
                for y in nbrs[k + 1:]:
                    scan[x].add(y)
                    scan[y].add(x)
            expected.append((v, nbrs))

        assert list(_eliminate(adj)) == expected
        assert adj == {}


def _has_array_eq(f):
    return any(t.kind is Kind.EQ and t.args[0].sort.is_array
               for t in postorder([f]))


class TestSession:
    """A session encodes each formula once, across calls."""

    @pytest.mark.parametrize("seed", range(60))
    def test_two_batches_match_one_shot(self, seed):
        m, assertions = random_instance(seed)
        flat = flatten(m, assertions).formulas
        # Array-equality atoms must all come with the first batch.
        flat.sort(key=lambda f: not _has_array_eq(f))
        cut = max(sum(map(_has_array_eq, flat)), len(flat) // 2)
        session = ground_session(m, flat[:cut])
        for batch in (flat[:cut], flat):
            for f in batch[len(session.index.formulas):]:
                session.index.add_formula(f)
            res = solve_ground(session)
            one_shot = solve_ground(ground_session(m, batch))
            assert res.verdict == one_shot.verdict, seed
            if res.verdict == "sat":
                assert all(table_eval(res.values, f) for f in batch), seed

    def test_new_array_atom_after_first_encode_raises(self, m):
        asort = m.array_sort(m.bool_sort, m.bool_sort)
        a, b, c = (m.mk_const(s, asort) for s in "abc")
        session = ground_session(m, [m.mk_eq(a, b)])
        assert solve_ground(session).verdict == "sat"
        session.index.add_formula(m.mk_eq(b, c))
        with pytest.raises(InternalError, match="unregistered array pair"):
            solve_ground(session)

    def test_conflicts_and_budget_per_call(self, m):
        # Eight distinct 3-bit values: sat, but not within one conflict.
        xs = [m.mk_const(f"x{k}", m.bv_sort(3)) for k in range(8)]
        fs = [m.mk_distinct_n(8, xs)]
        session = ground_session(m, fs, budget=1)
        calls, conflicts = [], []
        while not calls or calls[-1].verdict == "unknown":
            before = session.sat.conflicts
            calls.append(solve_ground(session))
            conflicts.append(session.sat.conflicts - before)
            assert len(calls) < 500
        assert len(calls) > 1 and calls[-1].verdict == "sat"
        assert all(n == 2 for n in conflicts[:-1])
        assert sum(conflicts) == session.sat.conflicts


def _reference_eval(values, f):
    """Recursive evaluation that reads every operand of a connective."""
    k, args = f.kind, f.args
    if k in (Kind.NOT, Kind.AND, Kind.OR, Kind.IMPLIES, Kind.ITE):
        ops = [_reference_eval(values, a) for a in args]
        if k is Kind.NOT:
            return not ops[0]
        if k is Kind.AND:
            return all(ops)
        if k is Kind.OR:
            return any(ops)
        if k is Kind.IMPLIES:
            return ops[1] or not ops[0]
        return ops[1] if ops[0] else ops[2]
    if k is Kind.EQ and args[0].sort.is_scalar:
        return values[args[0]] == values[args[1]]
    if k is Kind.DISTINCT_N:
        return len({values[a] for a in args}) >= (f.n or 1)
    return bool(values[f])


class TestEvalAndInvariants:
    def test_eval_matches_a_recursive_reference(self, m):
        # Random nestings of every connective over every atom kind, with
        # some leaves unassigned: the same truth, and an unassigned leaf
        # raises wherever it sits, even under an operand that decides.
        bv = m.bv_sort(2)
        ps = [m.mk_const(f"p{k}", m.bool_sort) for k in range(3)]
        xs = [m.mk_const(f"x{k}", bv) for k in range(3)]
        a, b = (m.mk_const(s, m.array_sort(bv, bv)) for s in "ab")
        atoms = ps + [m.mk_eq(xs[0], xs[1]), m.mk_distinct_n(2, xs),
                      m.mk_eq(a, b)]
        rng = random.Random(5)

        def formula(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(atoms)
            sub = [formula(depth - 1) for _ in range(rng.randrange(2, 4))]
            return rng.choice([
                lambda: m.mk_not(sub[0]), lambda: m.mk_and(sub),
                lambda: m.mk_or(sub), lambda: m.mk_implies(sub[0], sub[1]),
                lambda: m.mk_ite(sub[0], sub[1], sub[-1])])()

        missing = 0
        for _ in range(3000):
            f = formula(rng.randrange(1, 6))
            values = {t: rng.randrange(2 if t.sort.is_bool else 4)
                      for t in ps + xs if rng.random() < 0.85}
            if rng.random() < 0.85:
                values[atoms[-1]] = rng.randrange(2)
            try:
                want = _reference_eval(values, f)
            except KeyError:
                want = None
            try:
                got = table_eval(values, f)
            except UnassignedConstant:
                got = None
            assert got is want, f
            missing += want is None
        assert 0 < missing < 3000

    def test_model_satisfies_all_inputs(self):
        for seed in range(40):
            m, assertions = random_instance(seed)
            flat = flatten(m, assertions).formulas
            res = solve_ground(ground_session(m, flat))
            if res.verdict == "sat":
                assert all(table_eval(res.values, f) for f in flat), seed

    @pytest.mark.parametrize("kind", sorted(DEEP_CHAINS))
    def test_eval_of_a_deep_chain(self, kind):
        script = caext.parse(deep_chain_text(kind))
        f, = script.assertions
        p, q = script.declared
        for value, truth in ((1, True), (0, False)):
            assert table_eval({p: value, q: 1}, f) is truth

    def test_eval_reads_every_operand(self, m):
        # An operand that does not decide the formula is still read.
        p, x = (m.mk_const(name, m.bool_sort) for name in "px")
        for f in (m.mk_or([p, x]), m.mk_and([m.mk_not(p), x]),
                  m.mk_implies(x, p), m.mk_ite(p, p, x),
                  m.mk_implies(p, x)):
            with pytest.raises(UnassignedConstant):
                table_eval({p: 1}, f)

    def test_eval_decides_an_array_equality_off_the_table(self, m):
        # An array equality without a table entry is decided from its
        # operands' array values: extensionally over constant arrays of
        # literals, and not at all over an array constant.
        bit = m.bv_sort(1)
        asort = m.array_sort(bit, m.bool_sort)
        no, yes = m.mk_value(m.bool_sort, 0), m.mk_value(m.bool_sort, 1)
        zero, one = m.mk_value(bit, 0), m.mk_value(bit, 1)
        falses = m.mk_const_array(asort, no)
        trues = m.mk_const_array(asort, yes)
        both = m.mk_store(m.mk_store(falses, zero, yes), one, yes)
        assert table_eval({}, m.mk_eq(both, trues))
        assert table_eval({}, m.mk_eq(m.mk_store(falses, one, no), falses))
        assert not table_eval({},
                              m.mk_eq(m.mk_store(falses, one, yes), falses))
        with pytest.raises(UnassignedConstant):
            table_eval({}, m.mk_eq(m.mk_const("a", asort), trues))

    def test_deterministic(self):
        m, assertions = random_instance(11)
        r1 = solve_ground(ground_session(m, assertions))
        r2 = solve_ground(ground_session(m, assertions))
        assert r1.verdict == r2.verdict
        if r1.verdict == "sat":
            assert r1.values == r2.values

    def test_oracle_sat_implies_ground_sat(self):
        for seed in range(30):
            m, assertions = random_instance(seed)
            if oracle_solve(assertions, LOOSE).verdict == "sat":
                res = solve_ground(ground_session(m, assertions))
                assert res.verdict == "sat", seed

    def test_scalar_only_formulas_match_oracle(self):
        import random as _r
        for seed in range(30):
            rng = _r.Random(seed)
            m = TermManager()
            xs = [m.mk_const(f"x{k}", m.bv_sort(2)) for k in range(3)]
            fs = []
            for _ in range(4):
                l, r = rng.choice(xs), rng.choice(xs)
                f = m.mk_eq(l, r)
                if rng.random() < 0.5:
                    f = m.mk_not(f)
                fs.append(f)
            fs.append(m.mk_distinct_n(rng.randint(1, 3), xs))
            assert (solve_ground(ground_session(m, fs)).verdict
                    == oracle_solve(fs, LOOSE).verdict), seed

    def test_budget_returns_none(self, m):
        xs = [m.mk_const(f"x{k}", m.bv_sort(3)) for k in range(8)]
        fs = [m.mk_distinct_n(8, xs)]
        res = solve_ground(ground_session(m, fs, budget=0))
        assert res.verdict == "unknown"
