"""Behaviour fingerprints against a committed golden file.

``tests/data/fingerprints.txt`` is the output of::

    python tests/fingerprints.py --fuzz 0:200 --crafted 7 --structured 0:50

A change that alters a verdict, a ``SolveStats`` counter, a lemma or a
model on these 265 runs fails here.  A change that does so on purpose
regenerates the file with that command and says so in ``CHANGES.md``.
"""

import os
import subprocess
import sys
from pathlib import Path

from fingerprints import fingerprint, runs

GOLDEN = Path(__file__).parent / "data" / "fingerprints.txt"


def test_fingerprints_match_the_golden_file():
    expected = GOLDEN.read_text().splitlines()
    assert len(expected) == 265
    got = [f"{name} {fingerprint(manager, assertions)}"
           for name, manager, assertions in runs(range(200), [7],
                                                 range(50))]
    assert got == expected


def test_script_command_line_matches_the_golden_file():
    # Run as a script, without PYTHONPATH: its own sys.path set-up must
    # find caext and the helpers, and its options pick the runs.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "fingerprints.py"),
         "--fuzz", "0:3", "--crafted", "7", "--structured", "0:2"],
        env=env, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 3 + 15 + 2
    assert set(lines) <= set(GOLDEN.read_text().splitlines())
