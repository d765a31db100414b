"""Steadiness of the end-to-end metrics: run one workload N times, one
process after another, each with its own seed, and print the median and
quartiles of every metric.

    python3 bench/steady.py --workload certify_balls --runs 10 --seconds 20

The spread is (q3 - q1) / median, with the quartiles of
statistics.quantiles(values, n=4); the bounds in BENCHMARK.json are set from
it.  Runs go one at a time, so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        line = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} {line}", flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {args.seconds:g} s, failed share {sorted(set(shares))}")
    print(f"{'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40} {units[name]:6} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
