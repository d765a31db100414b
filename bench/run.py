"""Benchmark of graphalg's certificates and span engine.

    python3 bench/run.py --workload certify_teardrops --seed 1 --seconds 20 --trace 0

Imports graphalg from the checkout's own src/, builds the workload's
operations from the seed, and repeats whole passes over them until the timed
operations add up to --seconds.  Each output is checked outside the timed
section; an operation that raises or fails its check counts as failed.  The
last line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics: ops_per_s, setup_s and
peak_rss_mb.  --trace 1 runs the same passes untraced and then traced,
reports the per-layer metrics of the traced part and its overhead, and dumps
the spans to bench/out/.

The machine this was written on changes speed by up to 1.6x within a run
and from one minute to the next.  After every operation, outside the timed
section, and after every set-up, the benchmark therefore times a fixed
stdlib reference loop.  ops_per_s and setup_s are given at reference speed,
scaled to a machine on which that loop takes REF_SECONDS.  Speed drift moves
both alike, so the scaled figures hold still where the wall-clock ones, which
go to standard error, do not.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
# median time of reference() on an idle 2-vCPU Xeon with Python 3.11.7
REF_SECONDS = 0.008


def load_graphalg():
    """A fresh import of graphalg from this checkout's src/."""
    for name in [m for m in sys.modules if m == "graphalg" or m.startswith("graphalg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ga = importlib.import_module("graphalg")
    importlib.import_module("graphalg.io")
    if not Path(ga.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"graphalg was imported from {ga.__file__}, not from {SRC}")
    return ga


def setup(workload: str, seed: int):
    """Import and build the inputs SETUP_REPEATS times; the last build is used.

    Returns the median set-up time at reference speed (each sample scaled by
    the reference loop timed right after it) and the wall-clock median."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        ga = load_graphalg()
        ops = workloads.build(ga, workload, seed)
        times.append((perf_counter() - t0, reference()))
    return ga, ops, statistics.median(t * REF_SECONDS / r for t, r in times), statistics.median(t for t, _ in times)


def reference() -> float:
    """A fixed mix of tuple keys, dict updates and Fraction sums; returns
    its duration.  The garbage collector is off meanwhile, so the size of
    graphalg's heap does not change the figure."""
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict[tuple, int] = {}
        acc = Fraction(0)
        for i in range(6000):
            key = (i % 97, i * 7 % 13, "x" + str(i % 50))
            counts[key] = counts.get(key, 0) + 1
            if i % 10 == 0:
                acc += Fraction(i % 7 + 1, i % 11 + 1)
        return perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    ref_seconds: float = 0.0
    ref_runs: int = 0

    @property
    def wall_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.seconds

    @property
    def ops_per_s(self) -> float:
        """The rate on a machine where reference() takes REF_SECONDS."""
        return self.wall_ops_per_s * self.ref_seconds / self.ref_runs / REF_SECONDS


RUN_RAISED = "the operation raised:\n"
CHECK_RAISED = "the check raised:\n"


def execute(op: workloads.Op, tally: Tally, tracer=None, corrupt=None) -> list[str]:
    """Run one operation timed and check it untimed; returns its problems.

    `corrupt` (for the self-test) damages the output before the check.  It
    runs outside any try, so a corruption that breaks raises instead of
    passing for a failed operation."""
    tally.attempted += 1
    scope = tracer.root_span if tracer else (lambda kind, name: nullcontext())
    try:
        with scope("op", op.name):
            t0 = perf_counter()
            try:
                out = op.run()
            finally:
                tally.seconds += perf_counter() - t0
    except Exception:
        problems = [RUN_RAISED + traceback.format_exc()]
    else:
        if corrupt is not None:
            out = corrupt(out)
        try:
            with scope("check", op.name):
                problems = op.check(out)
        except Exception:
            problems = [CHECK_RAISED + traceback.format_exc()]
    if problems:
        tally.failed += 1
    tally.ref_seconds += reference()
    tally.ref_runs += 1
    return problems


def run_passes(ops: list[workloads.Op], seconds: float, tracer=None) -> Tally:
    tally = Tally()
    while tally.seconds < seconds:
        for op in ops:
            problems = execute(op, tally, tracer)
            for problem in problems:
                print(f"FAILED {op.name}: {problem}", file=sys.stderr)
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed operation seconds per measured part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ga, ops, setup_s, wall_setup_s = setup(args.workload, args.seed)
    except ImportError as err:
        print(f"cannot import graphalg from {SRC}: {err}", file=sys.stderr)
        return 2
    plain = run_passes(ops, args.seconds)
    print(f"wall clock: {plain.wall_ops_per_s:.4f} op/s, set-up {wall_setup_s:.4f} s,"
          f" reference loop {plain.ref_seconds / plain.ref_runs * 1000:.3f} ms", file=sys.stderr)
    if not args.trace:
        metrics = {
            "ops_per_s": (plain.ops_per_s, "op/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        tallies = [plain]
    else:
        tracer = tracing.Tracer()
        uninstall = tracing.install(ga, tracer)
        try:
            traced = run_passes(ops, args.seconds, tracer)
        finally:
            uninstall()
        tracer.finish()
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
        values = tracing.per_layer(tracer, traced.attempted, plain.ops_per_s / traced.ops_per_s)
        metrics = {name: (values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        tallies = [plain, traced]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
