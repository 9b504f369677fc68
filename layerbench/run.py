"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 layerbench/run.py --workload explore-dedup --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, every per-layer metric with ``--trace 1``.  Progress and
failures go to standard error.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys

WORKLOADS = ("explore-dedup", "explore-sleep", "service-cold", "service-hit")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"no repro package under {src}: run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    if args.workload.startswith("service-"):
        import service_load as workload
    else:
        import explore_load as workload
    from common import emit

    tally, metrics = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    emit(tally, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
