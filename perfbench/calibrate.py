"""Host-speed calibration for the caext benchmark.

The benchmark's host is shared, and its speed for single-threaded Python
changes by up to a factor of two in spells that last minutes: one
process solving the same crafted ladder over and over took 2.6 s per
climb for half a minute and 5.0 s for the three minutes before.  CPU
time equals wall time throughout, so the process is not descheduled; it
runs slower.  No median inside a run of tens of seconds removes that.

So a timed run measures the host as it goes.  Between operations it
times a fixed pure-Python :func:`kernel` and scales each operation's
time by the kernel's median over the samples taken around it, giving
seconds at the reference speed at which the kernel takes
:data:`REFERENCE_S`.  The kernel calls nothing in caext, so a change to
caext moves the scaled times as it moves the raw ones.

The kernel mixes dict, tuple and sort work, an arithmetic loop and
recursive calls.  Each alone tracked some slow spells and not others;
over three five-minute recordings of the crafted ladder the mix brought
the spread of 30-second medians (quartile distance over median) from
0.37, 0.13 and 0.07 raw to 0.05, 0.03 and 0.04.  Across whole runs
with different seeds the gain is smaller (see README.md).
"""

from __future__ import annotations

import gc
import statistics
import time

# Seconds the kernel takes at the reference speed (close to its median
# on the host described in README.md), so scaled times read as seconds.
REFERENCE_S = 0.008

# A sample is taken before an operation when this long has passed since
# the last one: before nearly every operation on crafted and wide,
# before every few dozen fuzz instances; a few per cent of the run.
EVERY_S = 0.25

# An operation's time is scaled by the samples taken up to this many
# before and after it: the host's speed within about two seconds.
WINDOW = 4


def _calls(n: int) -> int:
    return n if n < 2 else _calls(n - 1) + _calls(n - 2)


def kernel() -> int:
    """A fixed amount of dict, tuple, sort, arithmetic and call work."""
    groups: dict = {}
    for i in range(1500):
        key = (i * 7919) % 1251, i & 15
        groups[key] = groups.get(key, ()) + (i,)
    total = 0
    for key, members in sorted(groups.items()):
        total += len(members) + key[0]
    rows = [[j, str(j)] for j in range(1000)]
    rows.sort(key=lambda row: row[1])
    for i in range(30000):
        total += i * i % 7
    return total + _calls(20)


def sample() -> float:
    """Seconds one run of the kernel takes now.  The garbage collector is
    off meanwhile: a collection would scan the workload's live objects,
    and the kernel would then time the heap rather than the host."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_now(samples: int = 5) -> float:
    """Reference seconds per second now: after one warm-up run, the
    median of a few samples."""
    kernel()
    return REFERENCE_S / statistics.median(sample() for _ in range(samples))


class Timeline:
    """Kernel samples taken between the operations of a timed run."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.marks: list[int] = []
        self._last = float("-inf")

    def mark(self) -> int:
        """Take a sample if one is due; call right before an operation.
        Returns the number of samples taken before the operation."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.close()
        return len(self.speeds)

    def close(self) -> None:
        """Take a sample now, as after the last operation."""
        self.speeds.append(sample())
        self._last = time.perf_counter()

    def scale(self, seconds: float, mark: int) -> float:
        """``seconds`` measured at ``mark``, in reference seconds: scaled
        by the median of the :data:`WINDOW` samples before and after."""
        near = self.speeds[max(0, mark - WINDOW):mark + WINDOW]
        return seconds * REFERENCE_S / statistics.median(near)
