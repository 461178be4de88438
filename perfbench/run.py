"""Benchmark runner for caext.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the caext sources are taken from ``src/`` next
to this directory, never from an installed copy.  One client, one
process, one instance at a time (a closed loop).  A run repeats rounds
of the workload's instances while another round still fits in
``--seconds`` (at least one); every round runs the same instances on the
same inputs.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the time to
run every instance once, summed from each instance's median over the
rounds), ``latency_p50_ms``/``latency_p98_ms`` (quantiles over the
workload's operations, see ``workloads.Op``, of those medians summed per
operation), ``setup_s`` (median of five set-ups: one here, four in
child processes) and ``peak_rss_mb``.  Times are in reference seconds:
each is scaled by the host's speed measured next to it with a fixed
kernel (``calibrate.py``), because a shared host's speed can drift by
up to a factor of two over minutes.

``--trace 1`` takes at most the first 500 instances (``TRACED_OPS``),
runs one untraced round of them and then at least two traced rounds,
and prints per-layer metrics: self times and counters taken at
the layer boundaries (see ``tracing.py``).  Times are means over the
traced rounds, so the layers' self times plus ``other_s`` add up to
``trace.wall_s``; ``trace.overhead_s`` is that minus the untraced
round's time.  The spans are written to ``.bench_build/perfbench/``
when the run ends.

Every instance's answer is checked.  A failed check, an exception, a
result or statistic that differs between rounds (traced or not), a
counter that differs between traced rounds, or a required entry point
that a traced round never called counts as a failure.  The last line of
standard output is one JSON object; the exit code is 1 if anything
failed, 2 if caext cannot be found.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 4
MIN_ROUNDS = 1
MIN_TRACED_ROUNDS = 2
# A traced run takes the first operations only (fuzz seeds seed ..
# seed+499), so that its untraced and two traced rounds end well within
# three minutes on a slow host.
TRACED_OPS = 500


def _time_setup(workload: str, seed: int):
    """Set-up time in reference seconds (see ``calibrate.py``), and the
    operations."""
    from calibrate import speed_now
    from workloads import setup
    t0 = time.perf_counter()
    ops = setup(workload, seed)
    return (time.perf_counter() - t0) * speed_now(), ops


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _run_round(ops, api, tracer=None, timeline=None):
    """Run every instance once; returns the seconds and the fingerprint
    of each instance, and the failures.  With a ``timeline``, a kernel
    sample is due before each instance (see ``calibrate.py``) and the
    timeline's mark is kept in ``timeline.marks``."""
    from workloads import fingerprint
    clock = time.perf_counter
    times, prints, failures = [], [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        if timeline is not None:
            timeline.marks.append(timeline.mark())
        t0 = clock()
        try:
            result = op.run(api)
        except Exception as exc:  # one bad instance must not stop the run
            times.append(clock() - t0)
            prints.append(("failed", type(exc).__name__))
            failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(limit=-3, file=sys.stderr)
            continue
        times.append(clock() - t0)
        prints.append(fingerprint(result))
    return times, prints, failures


def _time_for_another(started: float, rounds: int, seconds: float) -> bool:
    """Whether a round of average length still ends within ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds <= seconds


def _quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _compare_rounds(ops, rounds_prints, failures) -> None:
    first = rounds_prints[0]
    for later in rounds_prints[1:]:
        for op, a, b in zip(ops, first, later):
            if a != b:
                failures.append(f"{op.name}: result or statistics differ "
                                "between rounds")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _summary(ops, rounds):
    """wall_s, p50 and p98 in seconds, and the number of operations, from
    per-round instance times: each instance's median over the rounds,
    summed over the instances and, for the quantiles, per operation."""
    per_op = [statistics.median(ts) for ts in zip(*rounds)]
    per_group: dict[str, float] = {}
    for op, t in zip(ops, per_op):
        per_group[op.group] = per_group.get(op.group, 0.0) + t
    latencies = list(per_group.values())
    return (sum(per_op), _quantile(latencies, 50), _quantile(latencies, 98),
            len(latencies))


def measure(workload: str, seed: int, seconds: float, failures: list):
    """--trace 0: end-to-end metrics."""
    from calibrate import REFERENCE_S, Timeline
    from tracing import plain_api
    setup_s, ops = _time_setup(workload, seed)
    setups = [setup_s] + [_probe_setup(workload, seed)
                          for _ in range(SETUP_PROBES)]
    api = plain_api()
    _, warm, bad = _run_round(ops[:1], api)     # lazy set-up, not timed
    failures += bad
    attempted = 1
    rounds, prints = [], []
    timeline = Timeline()
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or _time_for_another(
            started, len(rounds), seconds):
        times, round_prints, bad = _run_round(ops, api, timeline=timeline)
        rounds.append(times)
        prints.append(round_prints)
        failures += bad
        attempted += len(ops)
    timeline.close()
    _compare_rounds(ops, prints, failures)
    _compare_rounds(ops[:1], [warm, prints[0][:1]], failures)
    marks = iter(timeline.marks)
    scaled = [[timeline.scale(t, next(marks)) for t in times]
              for times in rounds]
    wall, p50, p98, groups = _summary(ops, scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": _metric(wall, "s"),
        "latency_p50_ms": _metric(p50 * 1e3, "ms"),
        "latency_p98_ms": _metric(p98 * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    raw_wall, raw_p50, raw_p98, _ = _summary(ops, rounds)
    kernel = timeline.speeds
    print(f"{workload}: {len(ops)} instances x {len(rounds)} rounds; "
          f"latency quantiles over {groups} operations; "
          f"set-up samples {[round(s, 4) for s in setups]}; "
          f"{len(kernel)} kernel samples, median "
          f"{statistics.median(kernel) * 1e3:.2f} ms "
          f"(reference {REFERENCE_S * 1e3:.2f} ms); unscaled wall_s "
          f"{raw_wall:.4f}, p50 {raw_p50 * 1e3:.4f} ms, "
          f"p98 {raw_p98 * 1e3:.4f} ms", file=sys.stderr)
    return attempted, metrics


def trace(workload: str, seed: int, seconds: float, failures: list):
    """--trace 1: per-layer metrics from traced rounds."""
    from tracing import Patched, Tracer, layer_metrics, plain_api
    from workloads import REQUIRED_SPANS
    ops = _time_setup(workload, seed)[1][:TRACED_OPS]
    api = plain_api()
    started = time.perf_counter()
    plain_times, plain_prints, bad = _run_round(ops, api)
    failures += bad
    attempted = len(ops)
    prints, per_round, counts = [plain_prints], [], []
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{workload}-{seed}.jsonl"
    tracers = []
    while len(per_round) < MIN_TRACED_ROUNDS or _time_for_another(
            started, len(per_round) + 1, seconds):
        tracer = Tracer()
        with Patched(tracer) as traced_api:
            times, round_prints, bad = _run_round(ops, traced_api, tracer)
        failures += bad
        attempted += len(ops)
        prints.append(round_prints)
        wall = sum(times)
        layers = layer_metrics(tracer, wall)
        layers["trace.wall_s"] = wall
        per_round.append(layers)
        counts.append(dict(tracer.counts))
        tracers.append(tracer)
        missing = [name for name in REQUIRED_SPANS[workload]
                   if not tracer.counts[name + ".calls"]]
        if missing:
            failures.append(f"traced round recorded no call to "
                            f"{', '.join(missing)}")
    _compare_rounds(ops, prints, failures)
    if any(c != counts[0] for c in counts[1:]):
        failures.append("counters differ between traced rounds")
    with span_file.open("w") as fh:
        for k, tracer in enumerate(tracers):
            tracer.write(fh, k)
    # Counters repeat exactly; times are means over the traced rounds, so
    # that the layers' self times and other_s add up to trace.wall_s.
    metrics = {name: value if isinstance(value, int)
               else statistics.fmean(r[name] for r in per_round)
               for name, value in per_round[0].items()}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(plain_times)
    print(f"{workload}: 1 untraced and {len(per_round)} traced rounds of "
          f"{len(ops)} operations; spans in {span_file}", file=sys.stderr)
    return attempted, {k: _metric(v, _unit(k)) for k, v in metrics.items()}


def _unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "caext" / "__init__.py").is_file():
        print(f"error: caext sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = importlib.util.find_spec("caext")
    if Path(spec.origin).resolve().parent != SRC / "caext":
        print(f"error: caext resolves to {spec.origin}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.probe_setup:
        print(_time_setup(args.workload, args.seed)[0])
        return 0

    failures: list[str] = []
    run = trace if args.trace else measure
    attempted, metrics = run(args.workload, args.seed, args.seconds, failures)
    import numpy
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"{os.cpu_count()} CPUs, {platform.machine()}", file=sys.stderr)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed = min(len(failures), attempted)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
