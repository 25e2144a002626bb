"""Literal, per-subset forms of the pipeline's definitions, which the fast
paths in the package are held to."""

from __future__ import annotations

from topobelief.core import StateSet, canonical_key
from topobelief.errors import Violation
from topobelief.evidence import EvidenceSubset, QuantitativeEvidenceFrame
from topobelief.fusion import YAGER, allocate, allocated_mass_table
from topobelief.topology import Topology


def generate_topology_by_intersections(universe, subbasis) -> Topology:
    """``topology.generate_topology`` from its definition: every finite
    intersection of subbasis members (the empty intersection is the full
    space) plus the empty set, closed under unions by a breadth-first
    frontier. Unions of intersections are already intersection-closed by
    distributivity, so the union fixpoint is the whole closure."""
    full = universe.full_bits
    basis: set[int] = {full}
    for s in subbasis:
        basis |= {b & s.bits for b in basis}
    opens: set[int] = set(basis) | {0}
    frontier = list(basis)
    basis_list = list(basis)
    while frontier:
        next_frontier = []
        for x in frontier:
            for b in basis_list:
                u = x | b
                if u not in opens:
                    opens.add(u)
                    next_frontier.append(u)
        frontier = next_frontier
    members = sorted((StateSet(universe, bits) for bits in opens), key=canonical_key)
    return Topology(universe, tuple(members))


def validate_allocators_by_sweep(frame, allocators) -> list[Violation]:
    """``fusion.validate_allocators`` as a sweep over all 2^m evidence
    subsets: each image comes from ``allocate``, and law (2) is judged in a
    frame of the subset's items alone."""
    report: list[Violation] = []
    for mask in range(1 << frame.arity):
        subset = EvidenceSubset(frame, mask)
        witness = list(subset.members())
        images = [(a, allocate(frame, a, subset)) for a in allocators]
        sub = QuantitativeEvidenceFrame(frame.universe, tuple(
            item for i, item in enumerate(frame.items) if mask >> i & 1))
        for a, img in images:
            if mask == 0:
                if img.is_full():
                    continue
                code, problem = ("EmptyFamilyImage", f"maps the empty evidence subset "
                                 f"to {img!r}, not the full space")
            elif not sub.open_bits(img.bits):
                code, problem = ("ImageNotOpen", f"image {img!r} is outside the "
                                 "topology generated by the evidence subset")
            elif img.bits and not sub.dense_bits(img.bits):
                code, problem = ("ImageNotDense", f"image {img!r} is neither empty "
                                 "nor dense for the evidence subset")
            else:
                continue
            report.append(Violation(code, f"allocator {a.label!r} {problem}",
                                    {"allocator": a.label, "evidence": witness,
                                     "image": list(img.members())}))
        for x in range(len(images)):
            for y in range(x + 1, len(images)):
                a, ia = images[x]
                b, ib = images[y]
                if ia.bits & ~ib.bits and ib.bits & ~ia.bits:
                    report.append(
                        Violation(
                            "IncomparableImages",
                            f"allocators {a.label!r} and {b.label!r} give "
                            f"incomparable images {ia!r} and {ib!r}",
                            {"allocators": [a.label, b.label], "evidence": witness,
                             "images": [list(ia.members()), list(ib.members())]},
                        )
                    )
    return report


def yager_column_by_table(frame, justification, propositions):
    """Yager's justified column as its own image table filtered by frame
    membership: the belief in each proposition, the normalisation factor,
    and the justified mass of each kept image."""
    kept = {s: v for s, v in allocated_mass_table(frame, YAGER).items()
            if justification.contains(s)}
    captured = sum(kept.values())
    beliefs = [sum(v for s, v in kept.items() if s.issubset(p)) / captured
               for p in propositions]
    return beliefs, captured, {s: v / captured for s, v in kept.items()}
