"""The yardstick: this host's speed at the moment a pass runs.

Every timed pass is bracketed by :func:`reference_time`, two fixed
pure-Python loops that do not depend on the program, and its time is
scaled to a host whose reference time is ``REFERENCE_S``.
"""

from __future__ import annotations

import math
import time

#: Iterations of the two reference loops (about 10 ms and 5 ms on a
#: 2.1 GHz x86-64 host), and the reference time every reported duration
#: is scaled to: the geometric mean of those two times.
ARITHMETIC_LOOPS = 150_000
TABLE_LOOPS = 13_000
REFERENCE_S = 0.007


def arithmetic_loop() -> int:
    total = 0
    for i in range(ARITHMETIC_LOOPS):
        total += i * i
    return total


def table_loop() -> list:
    table = {}
    for i in range(TABLE_LOOPS):
        key = f"k{i % 257}"
        row = table.get(key)
        if row is None:
            row = table[key] = [0, 0.0, []]
        row[0] += 1
        row[1] += i * 0.5
        row[2].append(i)
    return sorted((key, row[0], row[1], len(row[2]))
                  for key, row in table.items())


def reference_time() -> float:
    """This host's speed at this moment: the geometric mean of the times
    of two fixed pure-Python loops, independent of the program.  The
    host's slowdowns hit arithmetic and allocation-heavy code to
    different degrees; the program mixes both, and the mean of the two
    yardsticks tracks it better than either one."""
    return math.sqrt(timed(arithmetic_loop)[1] * timed(table_loop)[1])


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def worker_reference_time(_index: int) -> float:
    """:func:`reference_time` as a pool task, measured in the worker."""
    return reference_time()


def pooled_reference_time(workers: int) -> float:
    """The reference time of this process and of the warm pool's
    workers, which run on the other CPUs: the geometric mean of all of
    them.  For passes whose work is spread over the pool."""
    from repro.runtime.pmap import ParallelMap

    times = [reference_time()]
    times += ParallelMap(workers=workers, backend="process").map(
        worker_reference_time, range(workers), chunk_size=1)
    return math.exp(sum(math.log(t) for t in times) / len(times))
