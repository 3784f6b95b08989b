"""A fixed reference kernel that gauges how fast the machine runs right now.

Usage: ``python3 bench/reference.py RUNS``

Runs the kernel once small and untimed (warm-up: bytecode, allocator), then
``RUNS`` times timed, and prints the total seconds of the timed runs.

The benchmark runs it in a fresh interpreter before and after every
iteration of a calibrated workload.  Its code never changes with the
program, so the ratio of the workload's time to the kernel's time cancels
the swings in CPU speed of a shared host (another tenant on the core, a
lower clock), which otherwise move whole runs by a quarter and more.  The
kernel is a depth-first enumeration of +-1 words that avoid two forbidden
triples, keeping one small validated dataclass per word: the same kind of
interpreter-bound, allocation-heavy work as the charge grammar.
"""

import sys
import time
from dataclasses import dataclass

FORBIDDEN = frozenset({(1, 1, 1), (-1, -1, -1)})


@dataclass(frozen=True)
class _Word:
    sites: tuple
    values: tuple

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise ValueError("sites and values differ in length")
        if any(v not in (-1, 1) for v in self.values):
            raise ValueError("values must be -1 or +1")


def python_kernel(n: int) -> int:
    sites = tuple(range(n))
    values = [0] * n
    out = []

    def extend(q):
        if q == n:
            out.append(_Word(sites, tuple(values)))
            return
        for v in (-1, 1):
            if q >= 2 and (values[q - 2], values[q - 1], v) in FORBIDDEN:
                continue
            values[q] = v
            extend(q + 1)

    extend(0)
    return len(out)


# Median seconds of one timed run on the machine the baseline was taken on
# (2 vCPUs of an Intel Xeon under KVM, Python 3.11).  A calibrated time is a
# workload's time scaled to that machine's speed.
NOMINAL_S = 1.2


def main() -> int:
    runs = int(sys.argv[1])
    python_kernel(18)
    t0 = time.perf_counter()
    for _ in range(runs):
        python_kernel(25)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
