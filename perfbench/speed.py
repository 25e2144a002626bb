"""The machine's current speed, read from a fixed pure-Python kernel.

On a shared host the same code can run at half speed for a minute or more,
in CPU time as in wall time, because other tenants contend for the core. A
run that falls in such a spell reads slower although the program did not
change. The benchmark therefore times this kernel next to every request and
reports request times scaled to a machine on which the kernel takes
``REFERENCE_MS``: ``time * REFERENCE_MS / kernel time``.

The kernel does the kind of work the program does: intersections and unions
of small frozensets, hashing them and counting them in a dict. Contention
slows it and the program alike: on all three workloads the log of request
time rose with slope 0.9-1.1 against the log of kernel time, where a kernel
of ``Fraction`` arithmetic gave 0.7-0.9 and one of int bit operations 0.6.
The kernel never touches the program, and the garbage collector is off while
it runs, so the program's heap cannot change the kernel's time.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# The kernel's time in ms on the 2-vCPU Xeon the bounds were set on, in its
# faster spells; it only sets the scale of the reported times.
REFERENCE_MS = 1.5


_SETS = [frozenset(random.Random(i).sample(range(40), 12)) for i in range(64)]


def _kernel() -> int:
    counts: dict[frozenset, int] = {}
    for a in _SETS:
        for b in _SETS[:20]:
            meet = a & b
            counts[meet] = counts.get(meet, 0) + len(a | b)
    return len(counts)


def kernel_seconds() -> float:
    """Seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured next to a kernel run of
    ``kernel_s`` seconds into a time at the reference speed."""
    return REFERENCE_MS / 1000 / kernel_s
