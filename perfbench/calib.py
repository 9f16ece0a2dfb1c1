"""Calibration kernel: a fixed amount of exact rational arithmetic.

Wall time on a shared host drifts with the host's speed.  The benchmark
therefore times a fixed piece of stdlib-only work between its operations
and reports operation times as ratios to it.  The kernel multiplies two
sparse polynomials held as dicts of exponent tuples to Fractions, the
same kind of work as the program's hot path, but it imports nothing from
the program: a change to the program cannot move the yardstick.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

_LEFT = {(i, j, k): Fraction(i - 2 * j + 1, k + 2)
         for i in range(3) for j in range(3) for k in range(2)}
_RIGHT = {(j, k, i): Fraction(3 * k - i - 1, j + 3)
          for i in range(2) for j in range(3) for k in range(3)}


def unit() -> int:
    """One unit of work: an 18 x 18 term product; returns a checksum."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            acc[key] = acc.get(key, 0) + c1 * c2
    return len(acc) + sum(c.denominator for c in acc.values())


def timed_slice(units: int, fresh_process: bool = False) -> float:
    """Seconds taken by ``units`` units of work, optionally in a fresh
    interpreter (started the way a command line tool is started)."""
    start = time.perf_counter()
    if fresh_process:
        # Pipes, like the operations': the parent then wakes when the child
        # closes them, not on a polling interval.
        subprocess.run([sys.executable, __file__, str(units)], check=True,
                       capture_output=True, timeout=60)
        return time.perf_counter() - start
    check = 0
    for _ in range(units):
        check += unit()
    elapsed = time.perf_counter() - start
    if check != units * _CHECKSUM:
        raise RuntimeError("calibration kernel returned a wrong checksum")
    return elapsed


_CHECKSUM = unit()

if __name__ == "__main__":
    # The stdlib modules a cold triderive command imports besides itself.
    import argparse  # noqa: F401
    import json  # noqa: F401
    import random  # noqa: F401

    timed_slice(int(sys.argv[1]))
