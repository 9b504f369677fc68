"""Steadiness check: run one workload k times and report the spread.

Usage, from the root of a checkout::

    python3 layerbench/steady.py --workload service-hit --runs 5 \
        [--first-seed 1]

Each run gets its own seed and lasts ``run_seconds`` from
``BENCHMARK.json``, the run length the bounds are set for.  For every end-to-end metric the report
gives the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``; a spread should stay below a third of its bound.
The report also records the core count, the Python version and the
load average before and after, and times a fixed pure-Python loop
before each run (``ref``): a neighbour that slows the machine's cores
without raising its load average shows there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_seconds() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    started = time.perf_counter()
    table = {}
    for i in range(200_000):
        table[i] = hashlib.blake2b(
            i.to_bytes(4, "little"), digest_size=16
        ).digest()
    sorted(table.values())
    return time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    load_start = os.getloadavg()
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for run in range(args.runs):
        seed = args.first_seed + run
        values.setdefault("ref", []).append(reference_seconds())
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: ref={values['ref'][-1]:.4g}, " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)
    load_end = os.getloadavg()
    print(f"\n{args.workload}: {args.runs} runs of {seconds}s, "
          f"{failed} failed of {attempted} attempted")
    print(f"nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"loadavg start {load_start[0]:.2f} end {load_end[0]:.2f}")
    print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}  ok")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "yes" if spread < bound / 3 else "NO"
        )
        print(f"{name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.2%}{bound if bound is not None else '-':>8}  "
              f"{verdict}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
