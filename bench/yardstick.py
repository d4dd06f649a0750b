"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The benchmark was defined on a shared host that runs the same code at speeds
up to 2x apart, switching every few seconds to minutes, for CPU time as
much as for wall time.  `run.py` times this loop just before and
just after every op, and scales the op's wall time by
`NOMINAL_S / local yardstick time`: the op's time on a machine that runs
the yardstick in `NOMINAL_S`.  The loop mixes the work the program does
(integer arithmetic, dict stores, exact fractions) and keeps no object
alive past its call, so the program's heap does not change its cost.

    python3 bench/yardstick.py     # prints the median of 200 timings
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# The loop's median time on the machine the benchmark was defined on
# (2 vCPUs of a shared host, Python 3.11.7) in its faster state.
NOMINAL_S = 0.0004

_TABLE = list(range(1, 4097))
random.Random(1).shuffle(_TABLE)


def measure() -> float:
    """Seconds one pass of the loop takes."""
    table = _TABLE
    start = perf_counter()
    total, store, frac = 0, {}, Fraction(0)
    for i in range(1500):
        value = table[(i * 97) & 4095]
        total = (total * 31 + value) % 1000003
        store[value & 255] = total
    for i in range(60):
        frac += Fraction(table[i], table[i + 1])
    return perf_counter() - start


if __name__ == "__main__":
    print(f"{statistics.median(measure() for _ in range(200)):.6g} s")
