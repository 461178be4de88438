"""Outside-in layer trace for the caext benchmark.

Spans are recorded from the benchmark's side of each layer boundary:
the benchmark's own calls into caext go through traced wrappers, and
the names :func:`caext.engine.check_sat` looks up in ``caext.engine``
(plus ``SatSolver.solve`` and ``SatSolver.add_clause``) are replaced by
traced wrappers for the duration of a traced round, then restored.  No
file of caext is changed.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the index of the
benchmark operation (instance) it belongs to.  Spans are kept in memory
and written out once, when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from types import SimpleNamespace
from typing import Callable, Optional, TextIO

# Which per-layer time metric each span's self time is charged to.
SPAN_LAYER = {
    "parse": "parser.s",
    "flatten": "flatten.s",
    "solve_ground": "ground.encode_s",
    "SatSolver.solve": "sat.s",
    "init_steps": "engine.propagate_s",
    "propagate_fixpoint": "engine.propagate_s",
    "check_conflicts": "engine.conflicts_s",
    "build_model": "engine.model_s",
    "complete_model": "model.complete_s",
    "validate_model": "model.validate_s",
    "eval_term": "model.eval_s",
    "print_model": "printer.s",
    "oracle_solve": "oracle.s",
    "check_sat": "loop.s",
    "gen_fuzz": "benchgen.s",
}
TIME_METRICS = tuple(dict.fromkeys(SPAN_LAYER.values())) + ("other_s",)

# The lemma rules of caext.engine.LEMMA_RULES, one counter each.
LEMMA_RULES = ("read_over_const", "read_congruence", "extensionality",
               "const_congruence")

# Names check_sat resolves in caext.engine's globals at call time.
ENGINE_NAMES = ("flatten", "solve_ground", "init_steps", "propagate_fixpoint",
                "check_conflicts", "build_model", "complete_model",
                "validate_model")

# The public calls the benchmark itself makes, by module.
API_NAMES = {
    "caext.parser": ("parse",),
    "caext.printer": ("print_model",),
    "caext.engine": ("check_sat",),
    "caext.model": ("validate_model", "complete_model", "eval_term"),
    "caext.oracle": ("oracle_solve",),
    "caext.benchgen": ("gen_fuzz",),
}


def plain_api() -> SimpleNamespace:
    """The benchmark's calls into caext, untraced."""
    import importlib
    ns = SimpleNamespace()
    for module, names in API_NAMES.items():
        mod = importlib.import_module(module)
        for name in names:
            setattr(ns, name, getattr(mod, name))
    return ns


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(counts, args, result)``
        runs outside the span to update counters."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Per-layer self time, summed over the round."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[SPAN_LAYER[name]] += (end - start) - child[k]
        return out

    def write(self, fh: TextIO, round_no: int) -> None:
        """One JSON line per span: round, op, name, start, end, parent."""
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps([round_no, op, name, start, end, parent])
                     + "\n")


# -- counters taken at the boundaries -----------------------------------


def _after_flatten(counts, args, flat):
    counts["flatten.definitions"] += len(flat.definitions)


def _after_propagate(counts, args, cfg):
    counts["engine.steps"] += len(cfg.steps)


def _after_conflicts(counts, args, info):
    counts["loop.candidates"] += 1
    if info is None:
        counts["loop.accepted"] += 1
    else:
        counts["engine.lemmas." + info.rule] += 1


def _after_build_model(counts, args, model):
    counts["engine.model_cells"] += sum(
        len(v) for _, v in model.items() if isinstance(v, tuple))


def _after_check_sat(counts, args, result):
    counts["loop.iterations"] += result.stats.iterations


def _after_parse(counts, args, script):
    counts["parser.bytes"] += len(args[0])


def _after_print(counts, args, text):
    counts["printer.bytes"] += len(text)


def _after_oracle(counts, args, result):
    counts["oracle.interpretations"] += result.interpretations


API_AFTER = {
    "parse": _after_parse,
    "print_model": _after_print,
    "check_sat": _after_check_sat,
    "oracle_solve": _after_oracle,
}
ENGINE_AFTER = {
    "flatten": _after_flatten,
    "propagate_fixpoint": _after_propagate,
    "check_conflicts": _after_conflicts,
    "build_model": _after_build_model,
}


class Patched:
    """Context manager that installs ``tracer``'s wrappers inside caext
    and restores the originals on exit, also on error."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _swap(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> SimpleNamespace:
        import caext.engine as engine
        from caext.sat import SatSolver
        tr = self.tracer
        for name in ENGINE_NAMES:
            self._swap(engine, name, tr.wrap(name, getattr(engine, name),
                                             ENGINE_AFTER.get(name)))
        add_clause = SatSolver.add_clause
        counts = tr.counts
        traced_solve = tr.wrap("SatSolver.solve", SatSolver.solve)

        def solve_wrapper(solver, *args, **kwargs):
            before = solver.conflicts
            result = traced_solve(solver, *args, **kwargs)
            counts["sat.vars"] += solver.num_vars
            counts["sat.conflicts"] += solver.conflicts - before
            return result

        def add_clause_wrapper(solver, lits):
            counts["sat.clauses"] += 1
            return add_clause(solver, lits)

        self._swap(SatSolver, "solve", solve_wrapper)
        self._swap(SatSolver, "add_clause", add_clause_wrapper)

        api = plain_api()
        for name, fn in vars(api).items():
            setattr(api, name, tr.wrap(name, fn, API_AFTER.get(name)))
        return api

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round whose operations took
    ``wall`` seconds in total."""
    out = tracer.self_times()
    out["other_s"] = wall - sum(out.values())
    c = tracer.counts
    out["ground.calls"] = c["solve_ground.calls"]
    for key in ("sat.conflicts", "sat.clauses", "sat.vars", "engine.steps",
                "loop.iterations", "engine.model_cells", "printer.bytes",
                "oracle.interpretations", "flatten.definitions"):
        out[key] = c[key]
    for rule in LEMMA_RULES:
        out["engine.lemmas." + rule] = c["engine.lemmas." + rule]
    out["loop.accept_ratio"] = (c["loop.accepted"] / c["loop.candidates"]
                                if c["loop.candidates"] else 0.0)
    out["parser.bytes_per_s"] = (c["parser.bytes"] / out["parser.s"]
                                 if out["parser.s"] > 0 else 0.0)
    return out
