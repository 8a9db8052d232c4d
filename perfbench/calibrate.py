"""A fixed pure-Python loop that measures how fast the machine runs Python now.

On a shared VM the speed of the same code swings by up to a factor of two
from one second to the next, and a slow spell can last minutes: on a shared
2-core Xeon VM at 2.0 GHz, one E8 verdict took 2.0 ms or 4.0 ms depending on
the moment, with CPU time equal to wall time.  The loop below slows down in
step, so each latency is scaled by ``REFERENCE_NS`` over the loop's duration
measured around it.  The scaled figures are milliseconds at
the speed where the loop takes ``REFERENCE_NS``; they no longer depend on the
moment, and a change to nilorb cannot move the loop.
"""

from __future__ import annotations

import time

# about the loop's fastest time on that VM, so scaled figures read close to
# its unloaded milliseconds
REFERENCE_NS = 170_000
# loop runs whose median scales one latency: a single run is as noisy as a
# short op
WINDOW = 9


def loop_ns() -> int:
    start = time.perf_counter_ns()
    acc, table = 0, {}
    for i in range(1000):
        acc += i * i % 7
        table[i & 63] = (acc, i)
    return time.perf_counter_ns() - start


def factors(loops_ns: list) -> list:
    """Scale for each of the ops run between consecutive loop runs, from
    the median of the WINDOW loop runs nearest to it."""
    half = WINDOW // 2
    out = []
    for i in range(len(loops_ns) - 1):
        near = sorted(loops_ns[max(0, i + 1 - half): i + 1 + half])
        out.append(REFERENCE_NS / near[len(near) // 2])
    return out

