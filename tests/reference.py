"""Literal, per-subset forms of the pipeline's definitions, and closed forms
that share no code with it, which the fast paths in the package are held
to."""

from __future__ import annotations

import json
from fractions import Fraction

from topobelief.core import StateSet, canonical_key
from topobelief.errors import Violation
from topobelief.evidence import EvidenceSubset, QuantitativeEvidenceFrame
from topobelief.fusion import YAGER, allocate, allocated_mass_table, mass_table
from topobelief.topology import Topology, generate_topology, min_dense
from topobelief.verify import CheckOutcome, _fail, _ok, check_mass_axioms


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


def justification_members_by_listing(justification) -> tuple[StateSet, ...]:
    """The members of a ``ds`` or ``sd`` justification frame, by listing the
    generated topology and keeping the opens the frame contains."""
    frame = justification.frame
    topo = generate_topology(frame.universe, frame.contents())
    return tuple(o for o in topo.opens if justification.contains_bits(o.bits))


def minimum_dense_open_by_listing(frame) -> CheckOutcome:
    """``verify.check_minimum_dense_open`` by listing the generated topology:
    the candidate is one of its opens, dense, and inside every dense open,
    scanned in canonical order."""
    name = "minimum_dense_open"
    candidate = min_dense(frame.contents())
    topo = generate_topology(frame.universe, frame.contents())
    if candidate.bits not in {o.bits for o in topo.opens}:
        return _fail(name, frame, reason="candidate is not open",
                     candidate=list(candidate.members()))
    if not frame.dense_bits(candidate.bits):
        return _fail(name, frame, reason="candidate is not dense",
                     candidate=list(candidate.members()))
    for o in topo.opens:
        if frame.dense_bits(o.bits) and not candidate.issubset(o):
            return _fail(
                name,
                frame,
                reason="a dense open does not contain the candidate",
                candidate=list(candidate.members()),
                dense_open=list(o.members()),
            )
    return _ok(name, frame)


def mass_axioms_by_fraction_sum(values) -> CheckOutcome:
    """``verify.check_mass_axioms`` as a loop of ``Fraction`` comparisons
    and one running ``Fraction`` total."""
    name = "mass_axioms"
    total = Fraction(0)
    for key, value in values:
        if not 0 <= value <= 1:
            return _fail(name, key=repr(key), value=str(value),
                         reason="value outside [0, 1]")
        total += value
    if total != 1:
        return _fail(name, total=str(total), reason="values do not total 1")
    return _ok(name, total=str(total))


def merged_mass_axioms_by_listing(frame) -> CheckOutcome:
    """``verify.merged_mass_axioms`` by listing all 2^m merged masses."""
    return check_mass_axioms(mass_table(frame))


def outcomes_json_by_dumps(outcomes) -> str:
    """The ``verify --output json`` document, encoded in one piece."""
    return json.dumps([o.to_json() for o in outcomes], indent=2, ensure_ascii=True)


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


def evidence_mass(frame, subset) -> Fraction:
    """Merged certainty of exactly this combination of evidence items: the
    product of the certainties of the included items and the complements of
    the excluded ones."""
    value = Fraction(1)
    for i, item in enumerate(frame.items):
        value *= item.certainty if subset.mask >> i & 1 else 1 - item.certainty
    return value


def is_dense(p, topology) -> bool:
    """True iff ``p`` meets every non-empty open of the listed topology."""
    return all(p.bits & o.bits for o in topology.opens if o.bits)


def arguments_for(topology, proposition) -> tuple[StateSet, ...]:
    """All non-empty opens contained in the proposition, in canonical order."""
    return tuple(o for o in topology.opens if o.bits and o.bits & ~proposition.bits == 0)


def maximal_fip_families(evidence) -> tuple[tuple[StateSet, ...], ...]:
    """The subfamilies of ``evidence`` with a non-empty intersection that no
    strict superfamily with a non-empty intersection contains, from that
    definition: every index mask is tried. Families come back in ascending
    order of their index mask, members in input order."""
    full = evidence[0].universe.full_bits
    fip = []
    for mask in range(1, 1 << len(evidence)):
        meet = full
        for i, e in enumerate(evidence):
            if mask >> i & 1:
                meet &= e.bits
        if meet:
            fip.append(mask)
    maximal = [m for m in fip if not any(o != m and m & o == m for o in fip)]
    return tuple(tuple(e for i, e in enumerate(evidence) if mask >> i & 1)
                 for mask in maximal)


def union_belief_ds(frame, proposition) -> Fraction:
    """The union allocator's belief under ``ds`` in closed form,

        bel_u(P) = prod_{c_i not in P} (1 - p_i) - [P != S] prod_i (1 - p_i):

    the chance that every included item's content lies inside P, less the
    empty family (whose image is S) unless P = S. It assumes non-empty
    contents, so that every other family has a non-empty image and ``ds``
    keeps all the mass."""
    inside = everything = Fraction(1)
    for item in frame.items:
        everything *= 1 - item.certainty
        if item.content.bits & ~proposition.bits:
            inside *= 1 - item.certainty
    return inside if proposition.is_full() else inside - everything


def yager_belief_ds(frame, proposition) -> Fraction:
    """Yager's rule (Yager 1987) under ``ds``: the unnormalised conjunctive
    combination of the simple supports, folded as exact masses keyed by state
    bits, with the mass on the empty set moved to S. Every image is then a
    non-empty open, so ``ds`` keeps all the mass and the belief in P is the
    mass on the sets inside P."""
    full = frame.universe.full_bits
    masses = {full: Fraction(1)}
    for item in frame.items:
        grown: dict[int, Fraction] = {}
        for bits, mass in masses.items():
            for key, share in ((bits & item.content.bits, item.certainty),
                               (bits, 1 - item.certainty)):
                grown[key] = grown.get(key, 0) + mass * share
        masses = grown
    masses[full] += masses.pop(0, 0)
    return sum((mass for bits, mass in masses.items() if not bits & ~proposition.bits),
               Fraction(0))
