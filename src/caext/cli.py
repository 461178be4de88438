"""Command-line driver.

Four subcommands: ``solve`` decides an SMT-LIB file, ``validate``
checks a model file against a formula file, ``fuzz`` runs the
differential suite against the brute-force checker, and ``gen`` writes
crafted benchmark files.

Stream discipline: verdicts and generated output go to standard
output; statistics and diagnostics go to the error stream.  ``solve``
prints a verdict only for a script that reaches ``check-sat``.  Exit
codes: 0 a verdict was produced (including ``unknown``) or none was
asked for, 1 usage or input error, 2 internal invariant violation, 3
resource limit.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence

from .benchgen import CraftedParams, gen_fuzz, write_crafted
from .engine import check_sat
from .errors import CaextError, InternalError, ParseError, ResourceLimit
from .model import Model, complete_model, eval_term, validate_model
from .oracle import DEFAULT_BOUNDS, OracleBounds, oracle_solve
from .parser import Script, parse
from .printer import print_model, print_script, print_term
from .terms import Sort, TermManager, parse_width


class _UsageError(CaextError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _digits(text: str) -> Optional[int]:
    """The non-negative integer that ``text`` spells in ASCII digits, or
    None if it spells none or has more digits than int() reads."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:
            pass
    return None


def _natural(text: str) -> int:
    """An argparse type: a non-negative integer."""
    n = _digits(text)
    if n is None:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


def _parse_scalar_sort(manager: TermManager, slug: str) -> Sort:
    if slug == "bool":
        return manager.bool_sort
    digits = slug[2:]
    if slug.startswith("bv") and digits.isascii() and digits.isdecimal() \
            and parse_width(digits) > 0:
        try:
            return manager.bv_sort(parse_width(digits))
        except CaextError as e:
            raise _UsageError(f"sort {slug!r}: {e}") from None
    raise _UsageError(f"unknown sort {slug!r}; use bool or bv<width>")


def _parse_file(path: str, manager: Optional[TermManager] = None) -> Script:
    """The script in ``path``, which must be UTF-8.  A diagnostic names
    the file: ``FILE: not UTF-8 text …`` or ``FILE:LINE:COL: …``."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), manager=manager)
    except UnicodeDecodeError as exc:
        raise CaextError(f"{path}: not UTF-8 text (byte offset "
                         f"{exc.start})") from None
    except ParseError as exc:
        raise CaextError(f"{path}:{exc}") from None


def _parse_bounds(text: Optional[str]) -> OracleBounds:
    if not text:
        return DEFAULT_BOUNDS
    fields = {f.name for f in dataclasses.fields(OracleBounds)}
    updates = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        n = _digits(val)
        if not sep or key not in fields or n is None:
            raise _UsageError(
                f"bad bounds entry {part!r}; use field=n with n >= 0 and "
                "fields " + ", ".join(sorted(fields)))
        updates[key] = n
    return dataclasses.replace(DEFAULT_BOUNDS, **updates)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    script = _parse_file(args.file)
    if not script.has_check_sat:
        return 0
    result = check_sat(script.manager, script.assertions,
                       seed=args.seed, budget=args.budget)
    print(result.verdict)
    if args.stats:
        print(result.stats, file=sys.stderr)
    if result.verdict == "sat" and script.wants_model:
        shown = script.declared + list(script.defined)
        model = complete_model(result.model, shown)
        print(print_model(script.manager, model, shown))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    script = _parse_file(args.file)
    model_script = _parse_file(args.modelfile, manager=script.manager)
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
    verdicts = {"sat": 0, "unsat": 0, "unknown": 0}
    disagreements = 0
    for k in range(args.count):
        seed = args.seed + k
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
    parts = [_digits(p) for p in args.crafted.split(",")]
    if None in parts or len(parts) < 3:
        raise _UsageError(
            "--crafted wants z,count,...: z followed by z+2 chain lengths, "
            "each a non-negative integer")
    z, *counts = parts
    manager = TermManager()
    params = CraftedParams(z, counts,
                           _parse_scalar_sort(manager, args.index_sort),
                           _parse_scalar_sort(manager, args.element_sort))
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
    solve.add_argument("--stats", action="store_true",
                       help="print solver statistics to the error stream")
    solve.add_argument("--seed", type=int, default=0)
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
    fuzz.add_argument("--seed", type=int, default=0)
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
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError, CaextError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
