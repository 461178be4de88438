"""Command-line driver.

Four subcommands: ``solve`` decides an SMT-LIB file, ``validate``
checks a model file against a formula file, ``fuzz`` runs the
differential suite against the brute-force checker, and ``gen`` writes
crafted benchmark files.

Stream discipline: verdicts and generated output go to standard
output; statistics and diagnostics go to the error stream.  Exit
codes: 0 a verdict was produced (including ``unknown``), 1 usage or
input error, 2 internal invariant violation, 3 resource limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .benchgen import CraftedParams, gen_fuzz, write_crafted
from .engine import check_sat
from .errors import (CaextError, IllDefinedModel, InternalError, ParseError,
                     ResourceLimit)
from .model import Model, complete_model, eval_term, validate_model, zero_value
from .oracle import DEFAULT_BOUNDS, OracleBounds, oracle_solve
from .parser import parse
from .printer import print_model, print_script, print_term
from .terms import Sort, TermManager


class _UsageError(CaextError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CAEXT_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"CAEXT_SEED must be an integer, got {env!r}")


def _natural(text: str) -> int:
    """An argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _parse_scalar_sort(manager: TermManager, slug: str) -> Sort:
    if slug == "bool":
        return manager.bool_sort
    if slug.startswith("bv") and slug[2:].isdecimal() and int(slug[2:]) > 0:
        return manager.bv_sort(int(slug[2:]))
    raise _UsageError(f"unknown sort {slug!r}; use bool or bv<width>")


def _parse_bounds(text: Optional[str]) -> OracleBounds:
    if not text:
        return DEFAULT_BOUNDS
    fields = {f.name for f in dataclasses.fields(OracleBounds)}
    updates = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        if not sep or key not in fields or not val.isdecimal():
            raise _UsageError(
                f"bad bounds entry {part!r}; use field=n with n >= 0 and "
                "fields " + ", ".join(sorted(fields)))
        updates[key] = int(val)
    return dataclasses.replace(DEFAULT_BOUNDS, **updates)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    script = parse(Path(args.file).read_text())
    result = check_sat(script.manager, script.assertions,
                       seed=_resolve_seed(args),
                       budget=args.budget)
    print(result.verdict)
    if args.stats:
        print(result.stats, file=sys.stderr)
    if result.verdict == "sat":
        model = result.model
        if args.check_model:
            outcome = validate_model(model, script.assertions)
            if not outcome:
                raise InternalError(
                    "model fails asserted formula "
                    f"{print_term(outcome.failing_assertion)}")
        if script.wants_model:
            for c in script.declared:
                if c not in model:
                    model.set(c, zero_value(c.sort))
            print(print_model(script.manager, model, script.declared))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    script = parse(Path(args.file).read_text())
    model_script = parse(Path(args.modelfile).read_text(),
                         manager=script.manager)
    model = Model()
    for constant, body in model_script.defined.items():
        model.set(constant, eval_term(model, body))
    model = complete_model(model, script.assertions)
    outcome = validate_model(model, script.assertions)
    if outcome:
        print("valid")
    else:
        print(f"invalid {print_term(outcome.failing_assertion)}")
    return 0


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def _cmd_fuzz(args: argparse.Namespace) -> int:
    bounds = _parse_bounds(args.bounds)
    base = _resolve_seed(args)
    verdicts = {"sat": 0, "unsat": 0, "unknown": 0}
    disagreements = 0
    for k in range(args.count):
        seed = base + k
        manager, assertions = gen_fuzz(seed, bounds)
        result = check_sat(manager, assertions)
        expected = oracle_solve(assertions, bounds).verdict
        verdicts[result.verdict] += 1
        bad = result.verdict != expected
        if result.verdict == "sat" and not bad:
            bad = not validate_model(result.model, assertions)
            label = "model fails assert-back"
        else:
            label = f"solver says {result.verdict}, reference says {expected}"
        if bad:
            disagreements += 1
            print(f"disagreement at seed {seed}: {label}", file=sys.stderr)
            print(print_script(assertions), file=sys.stderr)
    print(f"{args.count} instances: {args.count - disagreements} agree, "
          f"{disagreements} disagree "
          f"(sat {verdicts['sat']}, unsat {verdicts['unsat']}, "
          f"unknown {verdicts['unknown']})")
    return 2 if disagreements else 0


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    raw = args.crafted.split(",")
    if not all(p.lstrip("-").isdecimal() for p in raw) or len(raw) < 3:
        raise _UsageError(
            "--crafted wants z,count,...: z followed by z+2 chain lengths")
    z, counts = int(raw[0]), tuple(int(p) for p in raw[1:])
    manager = TermManager()
    params = CraftedParams(z, counts,
                           _parse_scalar_sort(manager, args.index_sort),
                           _parse_scalar_sort(manager, args.element_sort),
                           seed=_resolve_seed(args))
    path = write_crafted(params, args.out, quantified=args.quantified)
    print(path)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="caext",
        description="SMT solver for extensional constant arrays over "
                    "finite index and element sorts")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an SMT-LIB file")
    solve.add_argument("file")
    solve.add_argument("--check-model", action="store_true",
                       help="re-validate the model on every sat verdict")
    solve.add_argument("--stats", action="store_true",
                       help="print solver statistics to the error stream")
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--budget", type=_natural, default=None,
                       help="ground-solver conflict budget per candidate")
    solve.set_defaults(run=_cmd_solve)

    validate = sub.add_parser(
        "validate", help="check a model file against a formula file")
    validate.add_argument("file")
    validate.add_argument("modelfile")
    validate.set_defaults(run=_cmd_validate)

    fuzz = sub.add_parser(
        "fuzz", help="differential suite against the brute-force checker")
    fuzz.add_argument("--count", type=_natural, default=100)
    fuzz.add_argument("--seed", type=int, default=None)
    fuzz.add_argument("--bounds", default=None,
                      help="comma-separated field=value overrides")
    fuzz.set_defaults(run=_cmd_fuzz)

    gen = sub.add_parser("gen", help="write crafted benchmark files")
    gen.add_argument("--crafted", required=True,
                     help="z,count,...: z then z+2 store-chain lengths")
    gen.add_argument("--quantified", action="store_true",
                     help="emit the quantified encoding instead of "
                          "constant-array terms")
    gen.add_argument("--index-sort", default="bv2")
    gen.add_argument("--element-sort", default="bool")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=".")
    gen.set_defaults(run=_cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (InternalError, IllDefinedModel) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, CaextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply to process",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
