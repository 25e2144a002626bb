#!/usr/bin/env python3
"""Replay the bundled car scenario end to end and print every pipeline stage."""

from __future__ import annotations

import sys

from topobelief.cli import render_report
from topobelief.core import render_decimal
from topobelief.demo import car_frame, car_reports
from topobelief.fusion import INTERSECTION, MIN_DENSE, UNION, allocate, mass_table
from topobelief.topology import generate_topology


def main() -> int:
    frame = car_frame()
    universe = frame.universe

    print("== evidential topology ==")
    topo = generate_topology(universe, frame.contents())
    for o in topo.opens:
        flag = "dense" if frame.dense_bits(o.bits) else ""
        print(f"  {{{','.join(o.members())}}} {flag}".rstrip())

    print("\n== merged masses over evidence subsets ==")
    for subset, value in mass_table(frame):
        print(f"  {{{','.join(subset.members())}}}  {value}  ~{render_decimal(value)}")

    print("\n== allocation matrix (i, u, d) ==")
    for subset, value in mass_table(frame):
        images = [
            "{" + ",".join(allocate(frame, a, subset).members()) + "}"
            for a in (INTERSECTION, UNION, MIN_DENSE)
        ]
        print(f"  {{{','.join(subset.members())}}}  " + "  ".join(images))

    report_a, report_b = car_reports()
    print("\n== car A (all arguments justify) ==")
    sys.stdout.write(render_report(report_a))
    print("\n== car B (only dense arguments justify) ==")
    sys.stdout.write(render_report(report_b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
