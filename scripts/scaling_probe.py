#!/usr/bin/env python3
"""Measure how belief evaluation scales with the number of evidence items.

Each allocator is timed on its own line. ``i`` and ``u`` fold the items in
one at a time, so their cost follows the number of distinct images. ``d``
works on bit planes over all 2^m evidence families, about (distinct
signatures)^2 operations on 2^m-bit ints, so each extra item still doubles
its cost, but in word-parallel steps. One ``belief(d, sd, P)`` call and a
``d`` report under the custom frame ``[S]`` read the same planes, and are
timed at 14, 16 and 18 items. The ``d image table`` lines time
``allocated_mass_table`` for ``d`` at 16, 18 and 20 items, which reads every
family's image off the planes and then sums the 2^m family masses once. They
and the ``d`` lines from 18 to 24 items also give the peak resident memory of
the process so far. The ``verify`` lines time every
checker on 30 x 3, 20 x 4, 16 x 6, 24 x 6, 16 x 12, 16 x 14 and 28 x 8
frames; the equivalence checks visit only the sets that generate their two
sides, the allocation laws are checked on family planes, the merged-mass
check lists all 2^m masses, and the minimum-dense-open check walks every
open of the materialised topology, judging denseness from the minimal
neighborhoods. The ``topology 24 x 7`` line times the ``topology --output
json`` command on a frame with 13,258 opens, and the ``topology 24 x 22``
line the refusal of a frame of 22 singleton items, whose 2^22 + 1 opens pass
the cap of 2^18. The last line checks that the capacity cap turns 25 items
into a clean error for ``d``.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import sys
import tempfile
import time
from fractions import Fraction

from topobelief.cli import main as cli_main
from topobelief.core import StateSet, make_universe
from topobelief.errors import CapacityExceeded
from topobelief.evidence import EvidenceItem, QuantitativeEvidenceFrame, serialize_frame
from topobelief.fusion import (
    INTERSECTION,
    MIN_DENSE,
    UNION,
    allocated_mass_table,
    belief,
    belief_report,
    justification_frame,
)
from topobelief.verify import fixed_shape_frame, run_all_checks


def _proposition(frame):
    return frame.universe.subset(["s0", "s1", "s2"])


def _time_report(frame, alloc, kind="sd", members=None) -> float:
    start = time.perf_counter()
    justification = justification_frame(frame, kind, members)
    belief_report(frame, [alloc], justification, [_proposition(frame)])
    return time.perf_counter() - start


def _peak_mb() -> float:
    """Peak resident memory of the process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _time_belief(frame) -> float:
    start = time.perf_counter()
    belief(frame, MIN_DENSE, justification_frame(frame, "sd"), _proposition(frame))
    return time.perf_counter() - start


def main() -> int:
    states = 16
    for items in (5, 8, 10, 12, 14, 15, 16):
        frame = fixed_shape_frame(0, states, items)
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            print(f"items={items:2d}  {alloc.label}  {_time_report(frame, alloc):7.3f}s")

    for items in (14, 16, 18):
        seconds = _time_belief(fixed_shape_frame(0, states, items))
        print(f"items={items:2d}  belief(d, sd, P)  {seconds:7.3f}s")
        frame = fixed_shape_frame(0, states, items)
        seconds = _time_report(frame, MIN_DENSE, "custom", [frame.universe.full_set()])
        print(f"items={items:2d}  d under custom [S]  {seconds:7.3f}s")

    for items in (16, 18, 20):
        frame = fixed_shape_frame(7, states, items)
        start = time.perf_counter()
        allocated_mass_table(frame, MIN_DENSE)
        seconds = time.perf_counter() - start
        print(f"items={items:2d}  d image table  {seconds:7.3f}s  peak RSS {_peak_mb():6.1f} MB")

    for items in (18, 20, 22, 24):
        seconds = _time_report(fixed_shape_frame(0, states, items), MIN_DENSE)
        print(f"items={items:2d}  d  {seconds:7.3f}s  peak RSS {_peak_mb():6.1f} MB")

    for seed, size, items in ((1, 30, 3), (1, 20, 4), (1, 16, 6), (1, 24, 6),
                              (1, 16, 12), (1, 16, 14), (5, 28, 8)):
        frame = fixed_shape_frame(seed, size, items)
        start = time.perf_counter()
        run_all_checks(frame)
        seconds = time.perf_counter() - start
        atoms = len(frame.point_signatures)
        print(f"verify {size} x {items}  atoms={atoms:2d}  {seconds:7.3f}s")

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frame.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_frame(fixed_shape_frame(4, 24, 7)))
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["topology", "--frame", path, "--output", "json"])
        print(f"topology 24 x 7  {time.perf_counter() - start:7.3f}s")

        universe = make_universe([f"s{k}" for k in range(24)])
        singletons = QuantitativeEvidenceFrame(universe, tuple(
            EvidenceItem(f"E{k + 1}", StateSet(universe, 1 << k), Fraction(1, 2))
            for k in range(22)))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_frame(singletons))
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(["topology", "--frame", path])
        print(f"topology 24 x 22  exit {code}  {time.perf_counter() - start:7.3f}s")

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
