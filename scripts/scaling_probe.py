#!/usr/bin/env python3
"""Measure how belief evaluation scales with the number of evidence items.

Each allocator is timed on its own line. ``i`` and ``u`` fold the items in
one at a time, so their cost follows the number of distinct images; ``d``
enumerates all 2^m evidence subsets, so each extra item doubles its cost.
The last line checks that the capacity cap turns 25 items into a clean
error for ``d``, which would need 2^25 subset evaluations.
"""

from __future__ import annotations

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


def main() -> int:
    states = 16
    for items in (5, 8, 10, 12, 14, 15, 16):
        frame = fixed_shape_frame(0, states, items)
        props = [frame.universe.subset(["s0", "s1", "s2"])]
        sd = justification_frame(frame, "sd")
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            start = time.perf_counter()
            belief_report(frame, [alloc], sd, props)
            print(f"items={items:2d}  {alloc.label}  "
                  f"{time.perf_counter() - start:7.3f}s")

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
