#!/usr/bin/env python3
"""Measure how belief evaluation scales with the number of evidence items.

Each allocator is timed on its own line. ``i`` and ``u`` fold the items in
one at a time, so their cost follows the number of distinct images. ``d``
works on bit planes over all 2^m evidence families, about (distinct
signatures)^2 operations on 2^m-bit ints, so each extra item still doubles
its cost, but in word-parallel steps; its lines from 18 to 24 items also
give the peak resident memory of the process so far. The last line checks
that the capacity cap turns 25 items into a clean error for ``d``.
"""

from __future__ import annotations

import resource
import sys
import time

from topobelief.errors import CapacityExceeded
from topobelief.fusion import (
    INTERSECTION,
    MIN_DENSE,
    UNION,
    belief_report,
    justification_frame,
)
from topobelief.verify import fixed_shape_frame


def _time_report(frame, alloc) -> float:
    props = [frame.universe.subset(["s0", "s1", "s2"])]
    start = time.perf_counter()
    belief_report(frame, [alloc], justification_frame(frame, "sd"), props)
    return time.perf_counter() - start


def main() -> int:
    states = 16
    for items in (5, 8, 10, 12, 14, 15, 16):
        frame = fixed_shape_frame(0, states, items)
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            print(f"items={items:2d}  {alloc.label}  {_time_report(frame, alloc):7.3f}s")

    for items in (18, 20, 22, 24):
        seconds = _time_report(fixed_shape_frame(0, states, items), MIN_DENSE)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"items={items:2d}  d  {seconds:7.3f}s  peak RSS {peak_mb:6.1f} MB")

    frame = fixed_shape_frame(0, states, 25)
    try:
        belief_report(frame, [MIN_DENSE], justification_frame(frame, "sd"), [])
    except CapacityExceeded as exc:
        print(f"items=25  rejected: {exc}")
        return 0
    print("items=25 unexpectedly ran")
    return 1


if __name__ == "__main__":
    sys.exit(main())
