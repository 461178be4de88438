"""CDCL core: cross-checked against brute-force enumeration."""

import copy
import itertools
import random
import time
from collections import Counter

import pytest

from caext.sat import SatSolver, _luby


def brute_force(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def random_cnf(rng, num_vars, num_clauses, width=3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        vs = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def run(num_vars, clauses, seed=0, budget=None):
    s = SatSolver(seed=seed, conflict_budget=budget)
    for _ in range(num_vars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


def satisfies(s, clauses):
    return all(any((s.assignment[abs(l)] > 0) == (l > 0) for l in c)
               for c in clauses)


def pigeonhole(n, h):
    var = lambda i, k: i * h + k + 1
    clauses = [[var(i, k) for k in range(h)] for i in range(n)]
    for k in range(h):
        for i in range(n):
            for j in range(i + 1, n):
                clauses.append([-var(i, k), -var(j, k)])
    return clauses


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert run(0, []).solve() is True

    def test_unit_and_contradiction(self):
        assert run(1, [[1]]).solve() is True
        assert run(1, [[1], [-1]]).solve() is False

    def test_empty_clause(self):
        assert run(1, [[]]).solve() is False

    def test_tautology_dropped(self):
        s = run(2, [[1, -1]])
        assert s.solve() is True

    def test_model_satisfies_clauses(self):
        clauses = [[1, 2], [-1, 3], [-2, -3], [2, 3]]
        s = run(3, clauses)
        assert s.solve() is True
        model = {v: s.assignment[v] > 0 for v in (1, 2, 3)}
        assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)

    def test_pigeonhole_3_into_2(self):
        # p[i][h]: pigeon i in hole h; 3 pigeons, 2 holes.
        var = lambda i, h: 2 * i + h + 1
        clauses = [[var(i, 0), var(i, 1)] for i in range(3)]
        for h in range(2):
            for i in range(3):
                for j in range(i + 1, 3):
                    clauses.append([-var(i, h), -var(j, h)])
        assert run(6, clauses).solve() is False


class TestDifferential:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 40))
        expected = brute_force(num_vars, clauses)
        for solver_seed in (0, 7):
            s = run(num_vars, clauses, seed=solver_seed)
            got = s.solve()
            assert got is expected
            if got:
                model = {v: s.assignment[v] > 0
                         for v in range(1, num_vars + 1)}
                assert all(any(model[abs(l)] == (l > 0) for l in c)
                           for c in clauses)

    def test_deterministic_per_seed(self):
        rng = random.Random(6)
        clauses = random_cnf(rng, 12, 30)  # satisfiable instance

        def model_with(seed):
            s = run(12, clauses, seed=seed)
            assert s.solve() is True
            return tuple(s.assignment[v] > 0 for v in range(1, 13))

        assert model_with(3) == model_with(3)
        assert model_with(0) == model_with(0)


class TestBudget:
    def test_budget_returns_none(self):
        # A hard instance: pigeonhole 5 into 4.
        clauses = pigeonhole(5, 4)
        s = run(20, clauses, budget=3)
        assert s.solve() is None
        assert run(20, clauses).solve() is False


class TestIncremental:
    """Clauses added between `solve` calls."""

    def test_blocking_clause_gives_a_new_model(self):
        clauses = [[1, 2], [-1, 3], [2, 3, 4]]
        s = run(4, clauses)
        assert s.solve() is True
        first = [v if s.assignment[v] > 0 else -v for v in range(1, 5)]
        s.add_clause([-lit for lit in first])
        assert s.solve() is True
        second = [v if s.assignment[v] > 0 else -v for v in range(1, 5)]
        assert second != first
        assert satisfies(s, clauses + [[-lit for lit in first]])

    def test_contradicting_units_stay_unsat(self):
        s = run(3, [[1, 2], [-2, 3]])
        assert s.solve() is True
        s.add_clause([2])
        assert s.solve() is True and s.assignment[3] > 0
        s.add_clause([-3])
        assert s.solve() is False
        assert s.solve() is False
        s.add_clause([1])
        assert s.solve() is False

    def test_new_variables_between_calls(self):
        s = run(2, [[1, 2]])
        assert s.solve() is True
        x = s.new_var()
        s.add_clause([-1, x])
        s.add_clause([-2, x])
        s.add_clause([-x, -1])
        assert s.solve() is True
        assert satisfies(s, [[1, 2], [-1, x], [-2, x], [-x, -1]])

    def test_budget_counts_per_call(self):
        clauses = pigeonhole(5, 4)
        s = run(20, clauses, budget=3)
        assert s.solve() is None
        spent = s.conflicts
        assert spent == 4
        assert s.solve() is None
        assert s.conflicts == 2 * spent

    @pytest.mark.parametrize("seed", range(40))
    def test_two_batches_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        num_vars = rng.randint(2, 10)
        clauses = random_cnf(rng, num_vars, rng.randint(2, 40))
        cut = rng.randint(0, len(clauses))
        for solver_seed in (0, 7):
            s = run(num_vars, clauses[:cut], seed=solver_seed)
            assert s.solve() is brute_force(num_vars, clauses[:cut])
            for c in clauses[cut:]:
                s.add_clause(c)
            got = s.solve()
            assert got is brute_force(num_vars, clauses)
            if got:
                assert satisfies(s, clauses)


class ScanCheckedSolver(SatSolver):
    """Checks every decision against a linear scan of the variables."""

    decisions = 0

    def _decide(self):
        var = super()._decide()
        best, best_act = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if self._assign[v] == 0 and self._activity[v] > best_act:
                best, best_act = v, self._activity[v]
        assert var == best, (var, best)
        self.decisions += 1
        return var


class TestDecisionOrder:
    """The heap picks the unassigned variable of highest activity, the
    lowest index on ties, exactly as a scan would."""

    @staticmethod
    def solve_in_batches(rng, s, num_vars, batches, per_batch):
        """Random 3-clauses in batches, one `solve` and one new variable
        after each."""
        for _ in range(num_vars):
            s.new_var()
        for _ in range(batches):
            for _ in range(per_batch):
                vs = rng.sample(range(1, s.num_vars + 1), 3)
                s.add_clause([v if rng.random() < 0.5 else -v for v in vs])
            s.solve()
            s.new_var()

    @pytest.mark.parametrize("seed", range(20))
    def test_decisions_match_a_scan(self, seed):
        rng = random.Random(2000 + seed)
        s = ScanCheckedSolver(seed=seed % 3)
        num_vars = rng.randint(10, 30)
        self.solve_in_batches(rng, s, num_vars, 3, 3 * num_vars // 2)
        assert s.decisions > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_decisions_match_a_scan_across_rescales(self, seed):
        rng = random.Random(3000 + seed)
        s = ScanCheckedSolver()
        s._act_inc = 5e99  # a variable bumped twice passes 1e100
        self.solve_in_batches(rng, s, 60, 3, 85)
        assert s._act_inc < 1e99  # activities were rescaled
        assert s.decisions > 0


def reference_add_clause(s, lits):
    """Adds one clause the way the solver did before clauses came in
    batches: the reference `add_clauses` must agree with.  Returns what
    happened to the clause: "skipped", "watched", "unit", "propagated"
    (a unit that set more than itself), "conflict" (a unit whose
    propagation failed), "refuted" (every literal false at level 0) or
    "empty"."""
    if s._unsat:
        return "skipped"
    if s._trail_lim:
        s._backtrack(0)
    seen, clause = set(), []
    for lit in lits:
        assert lit != 0 and abs(lit) <= s.num_vars, f"bad literal {lit}"
        val = s._assign[abs(lit)] if lit > 0 else -s._assign[abs(lit)]
        if val > 0 or -lit in seen:
            return "skipped"
        if val == 0 and lit not in seen:
            seen.add(lit)
            clause.append(lit)
    if not clause:
        s._unsat = True
        return "refuted" if lits else "empty"
    if len(clause) > 1:
        s._watch(clause)
        return "watched"
    before = len(s._trail)
    s._enqueue(clause[0], None)
    if s._propagate() is not None:
        s._unsat = True
        return "conflict"
    return "propagated" if len(s._trail) > before + 1 else "unit"


def batch_scenario(seed):
    """A solver's clauses and settings, and a clause stream to add to
    it: duplicate literals, tautologies, units, literals fixed at level
    0 by earlier units, and now and then an empty clause."""
    rng = random.Random(seed)
    num_vars = rng.randint(3, 9)
    prefix = random_cnf(rng, num_vars, rng.randint(0, num_vars))
    settings = {"seed": rng.choice((0, seed)), "num_vars": num_vars,
                "prefix": prefix, "solve_first": rng.random() < 0.6,
                "extra_vars": rng.randint(0, 2)}
    size = num_vars + settings["extra_vars"]
    stream = []
    for _ in range(rng.randint(1, 4 * size)):
        width = rng.choice((1, 2, 2, 2, 3, 4))
        clause = [rng.choice((1, -1)) * rng.randint(1, size)
                  for _ in range(width)]
        if rng.random() < 0.3:
            clause.insert(rng.randint(0, width), rng.choice(clause))
        if rng.random() < 0.1:
            clause.insert(rng.randint(0, width), -rng.choice(clause))
        stream.append(clause)
    if rng.random() < 0.3:
        # u forces x and -x: a unit whose propagation fails
        u, x = rng.sample(range(1, size + 1), 2)
        at = 0
        for c in ([-u, x], [-u, -x], [u]):
            at = rng.randint(at, len(stream))
            stream.insert(at, c)
            at += 1
    if rng.random() < 0.2:
        stream.insert(rng.randint(0, len(stream)), [])
    return settings, stream


def prepared_solver(settings):
    s = SatSolver(seed=settings["seed"])
    for _ in range(settings["num_vars"]):
        s.new_var()
    for c in settings["prefix"]:
        reference_add_clause(s, c)
    if settings["solve_first"]:
        s.solve()
    for _ in range(settings["extra_vars"]):
        s.new_var()
    return s


def check_batch_add(seed):
    """`add_clauses(stream)`, `add_clause` clause by clause and the
    reference clause by clause leave the same watch lists (clauses and
    their order), trail, assignment and verdict, and the next `solve`
    gives the same result and model, which brute force confirms.
    Returns the reference's outcome for each clause, and
    "above level 0" when the stream came after a `solve` that left the
    solver there."""
    settings, stream = batch_scenario(seed)
    batch, single, ref = (prepared_solver(settings) for _ in range(3))
    outcomes = Counter()
    if ref._trail_lim:
        outcomes["above level 0"] += 1
    given = copy.deepcopy(stream)
    batch.add_clauses(given)
    assert given == stream, "add_clauses changed its input"
    for c in stream:
        single.add_clause(c)
        outcomes[reference_add_clause(ref, c)] += 1

    def state(s):
        return s._watches, s._trail, s._assign, s._unsat, s._qhead

    assert state(batch) == state(ref), f"seed {seed}: batch"
    assert state(single) == state(ref), f"seed {seed}: clause by clause"
    results = [s.solve() for s in (batch, single, ref)]
    assert results[0] is results[1] is results[2], f"seed {seed}"
    clauses = settings["prefix"] + stream
    assert results[0] is brute_force(ref.num_vars, clauses), f"seed {seed}"
    if results[0]:
        assert batch._assign == single._assign == ref._assign, f"seed {seed}"
        assert satisfies(batch, clauses)
    return outcomes


class TestBatchAdd:
    """A batch of clauses leaves the solver as adding them one at a
    time does."""

    @pytest.mark.parametrize("seed", range(200))
    def test_batch_matches_clause_at_a_time(self, seed):
        check_batch_add(seed)

    def test_streams_reach_every_case(self):
        outcomes = Counter()
        for seed in range(200):
            outcomes += check_batch_add(seed)
        for case in ("above level 0", "skipped", "watched", "unit",
                     "propagated", "conflict", "refuted", "empty"):
            assert outcomes[case] >= 10, (case, outcomes)

    def test_a_unit_propagates_where_it_falls(self):
        # the unit sets 1, so [-1, 2] comes in as the unit 2; the two
        # clauses after it are true at level 0 only if 1 and 2 are set
        # before they come in
        s = SatSolver()
        for _ in range(3):
            s.new_var()
        s.add_clauses([[1], [-1, 2], [2, 3], [-3, -2, 1]])
        assert s._trail == [1, 2]
        assert all(not w for w in s._watches)

    def test_batch_stops_at_the_first_conflict(self):
        s = SatSolver()
        for _ in range(2):
            s.new_var()
        s.add_clauses([[1], [-1], [1, 2]])
        assert s._unsat and s._trail == [1]
        assert all(not w for w in s._watches)
        assert s.solve() is False

    @pytest.mark.parametrize("twist", ["duplicates", "tautology"])
    def test_a_long_clause_is_simplified_in_linear_time(self, twist):
        n = 15_000
        s = SatSolver()
        for _ in range(2 * n):
            s.new_var()
        lits = [v if v % 3 else -v for v in range(1, 2 * n + 1)]
        clause = lits + lits[::-1]  # every literal twice
        if twist == "tautology":
            clause.append(-lits[n])
        start = time.perf_counter()
        s.add_clause(clause)
        # about 0.01 s; a scan of the kept literals per literal takes
        # over 10 s here
        assert time.perf_counter() - start < 2.0
        watched = [c for w in s._watches for c in w]
        if twist == "tautology":
            assert watched == []
        else:
            # stored once, first occurrences in order, under two watches
            assert len(watched) == 2 and watched[0] is watched[1]
            assert watched[0] == lits


def check_solver_invariants(s):
    """Every stored clause of two or more literals sits in exactly the
    watch lists of its first two literals, and every unassigned variable
    has a live heap entry at its current activity."""
    def code(lit):  # the list of a clause watching `lit`
        return 2 * lit + 1 if lit > 0 else -2 * lit
    where = {}
    for c, watch_list in enumerate(s._watches):
        for clause in watch_list:
            where.setdefault(id(clause), (clause, []))[1].append(c)
    for clause, codes in where.values():
        assert len(clause) >= 2, clause
        assert sorted(codes) == sorted((code(clause[0]), code(clause[1]))), \
            (clause, codes)
    entries = set(s._heap)
    for v in range(1, s.num_vars + 1):
        if s._assign[v] == 0:
            assert s._heaped[v] == s._activity[v], v
            assert (-s._activity[v], v) in entries, v


class TestInvariants:
    """The watch lists and the decision heap stay consistent across
    batches of clauses and `solve` calls."""

    @pytest.mark.parametrize("seed", range(200))
    def test_watches_and_heap_after_every_call(self, seed):
        settings, stream = batch_scenario(seed)
        s = prepared_solver(settings)
        check_solver_invariants(s)
        rng = random.Random(seed)
        while stream:
            cut = rng.randint(1, len(stream))
            s.add_clauses(stream[:cut])
            check_solver_invariants(s)
            del stream[:cut]
            s.solve()
            check_solver_invariants(s)


def _luby_at(i):
    """The i-th element (1-based) of the Luby sequence, in closed form."""
    k = 1
    while (1 << (k + 1)) - 1 <= i:
        k += 1
    while i != (1 << k) - 1:
        i -= (1 << k) - 1
        k = 1
        while (1 << (k + 1)) - 1 <= i:
            k += 1
    return 1 << (k - 1)


def test_luby_prefix():
    assert list(itertools.islice(_luby(), 15)) == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert list(itertools.islice(_luby(), 5000)) == [
        _luby_at(i) for i in range(1, 5001)]
