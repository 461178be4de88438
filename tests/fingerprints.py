"""Behaviour fingerprints of the refinement loop, for comparing commits.

Runs ``check_sat`` on ``gen_fuzz`` instances, on the benchmark's
crafted ladder and on the test suite's ``structured_instance`` shapes,
whose ites and Boolean terms in term positions ``flatten`` names, and
prints one line per run: its name and a SHA-256 of
the verdict, the ``SolveStats`` counters with every lemma's repr, the
model tables and the ``print_model`` text.  Two commits behave the same
on these runs when their outputs are identical::

    python tests/fingerprints.py > before.txt   # at one commit
    python tests/fingerprints.py > after.txt    # at the other
    diff before.txt after.txt

By default the runs are ``gen_fuzz`` seeds 0-2999, the 15 crafted
rungs under seeds 1001 and 7 and ``structured_instance`` seeds 0-499.
``--fuzz START:STOP``, ``--crafted SEED,...`` and ``--structured
START:STOP`` choose others (an empty ``--crafted ''`` skips the ladder).
The script imports caext from the ``src`` directory next to it, so it
measures the checkout it lives in.  It is not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from caext import check_sat, parse, print_model  # noqa: E402
from caext.benchgen import gen_fuzz  # noqa: E402
from helpers import structured_instance  # noqa: E402


def fingerprint(manager, assertions) -> str:
    """SHA-256 of everything one ``check_sat`` run reports."""
    result = check_sat(manager, assertions)
    stats = result.stats
    parts = [result.verdict, repr((stats.iterations, stats.pi_size,
                                   stats.ground_conflicts))]
    parts += [f"{rule} {lemma!r}" for rule, lemma in stats.lemma_history]
    if result.model is not None:
        constants = [c for c, _ in result.model.items()]
        parts += [f"{c!r} {v!r}" for c, v in result.model.items()]
        parts.append(print_model(manager, result.model, constants))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def runs(fuzz: range, crafted_seeds: list[int], structured: range):
    """``(name, manager, assertions)`` for every run, in output order."""
    for seed in fuzz:
        manager, assertions = gen_fuzz(seed)
        yield f"fuzz/{seed}", manager, assertions
    if crafted_seeds:
        from perfbench.workloads import setup
    for seed in crafted_seeds:
        for op in setup("crafted", seed):
            script = parse(op.run.keywords["text"])
            yield f"{op.name}/seed{seed}", script.manager, script.assertions
    for seed in structured:
        manager, assertions = structured_instance(seed)
        yield f"structured/{seed}", manager, assertions


def _seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fuzz", type=_seed_range, default=range(3000),
                    metavar="START:STOP",
                    help="gen_fuzz seeds, STOP excluded (default 0:3000)")
    ap.add_argument("--crafted", default="1001,7", metavar="SEED,...",
                    help="seeds of the crafted ladder (default 1001,7)")
    ap.add_argument("--structured", type=_seed_range, default=range(500),
                    metavar="START:STOP",
                    help="structured_instance seeds, STOP excluded "
                         "(default 0:500)")
    args = ap.parse_args(argv)
    crafted = [int(s) for s in args.crafted.split(",") if s]
    for name, manager, assertions in runs(args.fuzz, crafted,
                                          args.structured):
        print(name, fingerprint(manager, assertions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
