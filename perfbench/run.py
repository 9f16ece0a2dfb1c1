"""triderive benchmark: seeded workloads, exact checks, calibrated timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload group-decompose --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` runs the workload's rounds until ``--seconds`` have passed
and at least 100 latency samples are taken, with a calibration slice
after each batch of operations, and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds three times -- untraced, then
twice with every layer wrapped -- checks that both traced passes record
the same counts and that all three print the same results, and prints
the per-layer metrics.  The last line of stdout is one JSON object; the
lines before it are for people.  Workloads and metrics are described in
DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "triderive", "__init__.py")):
        print(f"perfbench: no triderive sources in {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    import harness
    import triderive
    if not os.path.abspath(triderive.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported triderive from {triderive.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.workloads.WORKLOADS)}")

    if args.trace:
        line = harness.trace(args.workload, args.seed)
    else:
        line = harness.measure(args.workload, args.seed, args.seconds)
        for key, entry in line["metrics"].items():
            print(f"  {key:12s} {entry['value']} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
