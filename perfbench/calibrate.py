"""The reference job: a fixed piece of pure Python that shows how fast the
host runs the interpreter at this moment.

The benchmark's host shares its cores with other tenants, whose load slows
the same code by up to a factor of two, in bursts from a second to minutes.
A plain pass runs this job between stretches of library work and scales
each stretch by ``REFERENCE_S`` over the job's time around it, so a time is
reported in seconds at reference speed.  The job does not touch the
library, so a faster or slower library moves the scaled times just as much
as the raw ones.

    python3 perfbench/calibrate.py     # prints the job's time, five runs
"""

from __future__ import annotations

import gc
import time

# the job's median time inside oracle passes over seven minutes on the host
# the benchmark was written on (two shared vCPUs of an Intel Xeon at
# 2.1 GHz, Python 3.11.7); it only sets the scale of the reported times
REFERENCE_S = 0.08
JOB_N = 26


def _partitions(n: int, most: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k, *rest)


def reference_job() -> int:
    """Tuples, generators, small dicts and integer arithmetic, as in the
    library's enumerators; returns a checksum so nothing is skipped."""
    tally: dict[tuple[int, int, int], int] = {}
    for n in range(1, JOB_N + 1):
        for part in _partitions(n, n):
            key = (len(part), part[0], sum(i * x for i, x in enumerate(part)))
            tally[key] = tally.get(key, 0) + 1
    return len(tally) + sum(tally.values())


def reference_s(runs: int = 1) -> float:
    """Mean seconds of one reference job over ``runs`` jobs run now.  The
    cyclic garbage collector is off meanwhile, so the objects the library
    keeps alive do not slow the job down."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(runs):
            reference_job()
        return (time.perf_counter() - start) / runs
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    for _ in range(5):
        print(f"{reference_s():.4f}")
