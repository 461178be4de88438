"""A small incremental CDCL SAT solver.

Clauses are lists of non-zero integers in the DIMACS convention
(``v`` / ``-v``).  The solver does watched-literal unit propagation,
first-UIP clause learning with activity-driven branching, phase saving,
and restarts: the k-th restart of a `solve` call waits for 100 *
luby(k) conflicts, where luby is 1, 1, 2, 1, 1, 2, 4, ..., made term
by term by Knuth's reluctant doubling.  Runs are deterministic for a
fixed seed; seed 0 (the default) starts every variable with a negative
phase, any other seed randomizes the initial phases.

Decisions take the unassigned variable of highest activity, the lowest
index on ties.  As in MiniSat (Een & Sorensson, "An Extensible
SAT-solver", SAT 2003), a binary heap keeps that order, so a decision
costs O(log n) rather than a scan of every variable.  Here the heap
holds (-activity, variable) pairs and deletes lazily: a variable is
pushed when it is made and again whenever a backtrack unassigns it,
and entries of assigned variables are dropped when they reach the top.
Activities grow only while their variable is assigned, so an
unassigned variable's newest entry always sorts before its older ones.
When activities are rescaled, or the heap holds more than twice as
many entries as there are variables, it is rebuilt from the unassigned
variables.

Variables and clauses may be added between `solve` calls, in the style
of the same paper: learned clauses, activities and saved phases carry
over from one call to the next.  `solve` returns True (satisfiable),
False (unsatisfiable, for good), or None if that call's conflict budget
ran out first.

Clauses arrive in batches (`add_clauses`; `add_clause` is a batch of
one).  A batch returns to level 0 once; then each clause is checked
against the level-0 assignment, read in place, and a unit is propagated
where it falls in the batch.  The solver ends in the state, watch-list
order included, that adding the clauses one at a time would leave, at a
fraction of the per-clause cost.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Iterable, Iterator, Optional, Sequence

_RESTART_UNIT = 100


def _luby() -> Iterator[int]:
    """The Luby sequence 1, 1, 2, 1, 1, 2, 4, ... without end."""
    u = v = 1
    while True:
        yield v
        u, v = (u + 1, 1) if u & -u == v else (u, 2 * v)


def _unfixed(lits: Sequence[int], assign: list[int]) -> Optional[list[int]]:
    """The literals of ``lits`` unassigned under ``assign``, in order,
    or None if one of them is true."""
    clause: list[int] = []
    for lit in lits:
        val = assign[lit] if lit > 0 else -assign[-lit]
        if val > 0:
            return None
        if not val:
            clause.append(lit)
    return clause


class SatSolver:
    """Incremental CDCL solver over integer literals.

    ``conflict_budget`` caps the conflicts of each `solve` call;
    ``conflicts`` counts them over all calls.
    """

    def __init__(self, seed: int = 0,
                 conflict_budget: Optional[int] = None):
        self._budget = conflict_budget
        self.num_vars = 0
        self.conflicts = 0
        # Indexed by literal code 2*v (positive) / 2*v+1 (negative).
        self._watches: list[list[list[int]]] = [[], []]
        self._assign: list[int] = [0]    # var -> 0 unset, 1 true, -1 false
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._seen: list[bool] = [False]   # conflict-analysis marks
        self._act_inc = 1.0
        self._heap: list[tuple[float, int]] = []   # (-activity, var)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._unsat = False
        self._rng = random.Random(seed) if seed else None

    # ------------------------------------------------------------------
    # Problem construction

    def new_var(self) -> int:
        self.num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        phase = self._rng.random() < 0.5 if self._rng else False
        self._phase.append(phase)
        self._activity.append(0.0)
        self._seen.append(False)
        self._watches.append([])
        self._watches.append([])
        heappush(self._heap, (-0.0, self.num_vars))
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add one clause: `add_clauses` with a batch of one."""
        self.add_clauses((list(lits),))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses in order, also between `solve` calls; the result
        is that of adding them one at a time.

        The solver first returns to level 0, once for the batch.  In
        each clause, duplicate literals are merged (first occurrence
        kept) and literals false at level 0 dropped; a tautology or a
        clause already true at level 0 is skipped.  A unit is propagated
        where it falls, so the clauses after it see its consequences.
        An empty clause or a level-0 conflict makes the solver
        unsatisfiable for good, and the rest of the batch is ignored.
        The solver stores copies: the caller keeps its lists."""
        if self._unsat:
            return
        if self._trail_lim:
            self._backtrack(0)
        assign, watches = self._assign, self._watches
        for lits in clauses:
            assert 0 not in lits, f"bad literal 0 in {lits}"
            # A literal past the last variable raises IndexError.
            for lit in lits:
                if assign[lit if lit > 0 else -lit]:
                    clause = _unfixed(lits, assign)
                    break
            else:
                clause = list(lits)
            if clause is None:
                continue  # true at level 0
            # Are its variables distinct?  Without a set when short.
            n = len(clause)
            if n == 3:
                a, b, c = clause
                distinct = abs(a) != abs(b) != abs(c) != abs(a)
            elif n == 2:
                distinct = abs(clause[0]) != abs(clause[1])
            else:
                distinct = n < 2 or len(set(map(abs, clause))) == n
            if not distinct:
                held = set(clause)
                if not held.isdisjoint(map(neg, held)):
                    continue  # a tautology
                clause = list(dict.fromkeys(clause))
            if len(clause) > 1:
                # _watch(clause), inline in this loop
                a, b = clause[0], clause[1]
                watches[2 * a + 1 if a > 0 else -2 * a].append(clause)
                watches[2 * b + 1 if b > 0 else -2 * b].append(clause)
            elif clause:
                self._enqueue(clause[0], None)
                if self._propagate() is not None:
                    self._unsat = True
                    return
            else:
                self._unsat = True
                return

    def _watch(self, clause: list[int]) -> None:
        # Watched under the codes of -clause[0] and -clause[1].
        a, b = clause[0], clause[1]
        self._watches[2 * a + 1 if a > 0 else -2 * a].append(clause)
        self._watches[2 * b + 1 if b > 0 else -2 * b].append(clause)

    # ------------------------------------------------------------------
    # Trail

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; return a conflicting clause or None."""
        trail, watches, assign = self._trail, self._watches, self._assign
        levels, reasons, level = self._level, self._reason, len(self._trail_lim)
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            code = 2 * lit if lit > 0 else -2 * lit + 1
            watch_list = watches[code]
            kept: list[list[int]] = []
            for ci, clause in enumerate(watch_list):
                # Ensure the falsified literal sits at position 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_val = assign[first] if first > 0 else -assign[-first]
                if first_val > 0:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if (assign[q] if q > 0 else -assign[-q]) >= 0:
                        clause[1], clause[k] = q, clause[1]
                        watches[2 * q + 1 if q > 0 else -2 * q].append(clause)
                        break
                else:
                    kept.append(clause)
                    if first_val < 0:
                        kept.extend(watch_list[ci + 1:])
                        watches[code] = kept
                        return clause
                    # _enqueue(first, clause), inline in this hot loop
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    levels[var] = level
                    reasons[var] = clause
                    trail.append(first)
            watches[code] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis

    def _bump(self, var: int) -> None:
        self._activity[var] += self._act_inc
        if self._activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._act_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One entry per unassigned variable, at its current activity."""
        activity = self._activity
        self._heap = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                      if self._assign[v] == 0]
        heapify(self._heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level).

        The marks in ``_seen`` are all clear between calls: the trail
        walk clears those of the current level, and the learned
        literals' marks are cleared before returning."""
        level = len(self._trail_lim)
        seen = self._seen
        learned: list[int] = [0]  # slot 0 for the asserting literal
        counter = 0
        lit = None
        reason: Optional[list[int]] = conflict
        idx = len(self._trail) - 1
        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] == level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            lit = self._trail[idx]
            var = abs(lit)
            seen[var] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                learned[0] = -lit
                break
            reason = self._reason[var]
        for q in learned[1:]:
            seen[abs(q)] = False
        if len(learned) == 1:
            return learned, 0
        back = max(self._level[abs(q)] for q in learned[1:])
        pos = max(range(1, len(learned)),
                  key=lambda k: self._level[abs(learned[k])])
        learned[1], learned[pos] = learned[pos], learned[1]
        return learned, back

    def _backtrack(self, level: int) -> None:
        trail, trail_lim = self._trail, self._trail_lim
        if len(trail_lim) > level:
            mark = trail_lim[level]
            del trail_lim[level:]
            phase, assign, reason = self._phase, self._assign, self._reason
            heap, activity = self._heap, self._activity
            for lit in reversed(trail[mark:]):
                var = abs(lit)
                phase[var] = lit > 0
                assign[var] = 0
                reason[var] = None
                heappush(heap, (-activity[var], var))
            del trail[mark:]
            if len(heap) > 2 * self.num_vars:
                self._rebuild_heap()
        self._qhead = min(self._qhead, len(trail))

    # ------------------------------------------------------------------
    # Search

    def _decide(self) -> int:
        """The unassigned variable of highest activity, the lowest index
        on ties; 0 when every variable is assigned."""
        heap, assign = self._heap, self._assign
        while heap:
            var = heappop(heap)[1]
            if assign[var] == 0:
                return var
        return 0

    def solve(self) -> Optional[bool]:
        if self._unsat:
            return False
        self._backtrack(0)
        start = self.conflicts
        luby = _luby()
        limit = next(luby) * _RESTART_UNIT
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if self._budget is not None \
                        and self.conflicts - start > self._budget:
                    return None
                if not self._trail_lim:
                    self._unsat = True
                    return False
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learned) > 1:
                    self._watch(learned)
                self._enqueue(learned[0], learned if len(learned) > 1 else None)
                self._act_inc /= 0.95
                continue
            if since_restart >= limit and self._trail_lim:
                since_restart = 0
                limit = next(luby) * _RESTART_UNIT
                self._backtrack(0)
                continue
            var = self._decide()
            if var == 0:
                return True
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)

    @property
    def assignment(self) -> list[int]:
        """The value of each variable, by index: 1 true, -1 false, 0
        unassigned (index 0 is unused).  The solver's own list, to be
        read, not written; after a True `solve` no variable is 0."""
        return self._assign
