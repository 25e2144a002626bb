"""Executable checkers for the pipeline's laws, plus a seeded frame generator.

Checkers return data, never raise: a failing ``CheckOutcome`` carries a
self-contained witness (frame document plus the offending sets and values)
that can be replayed through the CLI. Capacity refusals are not outcomes:
``mass_table`` past its item cap raises ``CapacityExceeded`` through the
checkers. No checker lists the topology.

The two equivalence checks quantify over every proposition P but visit only
the empty set and the sets that generate their two sides, in ascending order.
The first proposition of the full sweep where the two sides differ is one of
those sets, so the reported witness is the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

from .core import StateSet, StateUniverse, make_universe
from .dst import belief_from_bpa, combine_evidence, topological_belief
from .evidence import (
    EvidenceItem,
    QuantitativeEvidenceFrame,
    frame_to_document,
)
from .fusion import (
    Allocator,
    INTERSECTION,
    JustificationFrame,
    MIN_DENSE,
    UNION,
    YAGER,
    allocated_mass_table,
    belief,
    justification_frame,
    mass_table,
    normalization_factor,
    validate_allocators,
)
# generate_topology is unused here; perfbench/tracing.py patches it by name
from .topology import generate_topology, min_dense

_MAX_CERTAINTY_DENOMINATOR = 32


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    passed: bool
    detail: dict = field(default_factory=dict)
    frame_document: dict | None = None

    def to_json(self) -> dict:
        return {"check": self.check, "frame": self.frame_document, "detail": self.detail}


def _ok(check: str, frame: QuantitativeEvidenceFrame | None = None, **detail) -> CheckOutcome:
    doc = frame_to_document(frame) if frame is not None else None
    return CheckOutcome(check, True, dict(detail), doc)


def _fail(check: str, frame: QuantitativeEvidenceFrame | None = None, **detail) -> CheckOutcome:
    doc = frame_to_document(frame) if frame is not None else None
    return CheckOutcome(check, False, dict(detail), doc)


def check_mass_axioms(values: Iterable[tuple[object, Fraction]]) -> CheckOutcome:
    """A mass function over any finite domain, given as ``(key, value)`` pairs:
    values in [0, 1], total exactly 1. Keys are only reported, never hashed."""
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


def check_bpa_axioms(values: Mapping[StateSet, Fraction]) -> CheckOutcome:
    """A basic probability assignment: mass axioms plus zero on the empty set."""
    name = "bpa_axioms"
    for s, value in values.items():
        if s.is_empty() and value != 0:
            return _fail(name, value=str(value), reason="non-zero mass on the empty set")
    inner = check_mass_axioms(values.items())
    if not inner.passed:
        return _fail(name, **inner.detail)
    return _ok(name)


def check_belief_axioms(
    evaluate: Callable[[StateSet], Fraction],
    universe: StateUniverse,
    n_max: int = 3,
    pool: Sequence[StateSet] | None = None,
) -> CheckOutcome:
    """Belief-function axioms: 0 at the empty set, 1 at the full set, and
    superadditivity over every union of up to ``n_max`` pool members.

    The inclusion-exclusion inequality is quantified over all n in the
    source definition; small n already catches non-monotone and pairwise
    failures, and anything larger is exponential.

    ``evaluate`` is called once per distinct proposition the inequalities
    name, and must return exact rationals (``Fraction`` or ``int``). The
    inequalities are then compared as integer sums of numerators over the
    lcm of those values' denominators, which is exact; a failure reports
    both sides as reduced fractions. Combinations are tried in the order of
    ``itertools.combinations``, smallest n first, so the first failing one
    is reported.
    """
    name = "belief_axioms"
    if pool is None:
        pool = [StateSet(universe, 1 << k) for k in range(universe.size)]
        pool.append(universe.full_set())
    empty = evaluate(StateSet(universe, 0))
    if empty != 0:
        return _fail(name, reason="belief in the empty set not 0", value=str(empty))
    full_bits = universe.full_bits
    total = evaluate(StateSet(universe, full_bits))
    if total != 1:
        return _fail(name, reason="belief in the full set not 1", value=str(total))

    combos = _inclusion_exclusion_terms([s.bits for s in pool], n_max)
    values = {0: empty, full_bits: total}
    for _, union, positive, negative in combos:
        for bits in (union, *positive, *negative):
            if bits not in values:
                values[bits] = evaluate(StateSet(universe, bits))
    denominator = math.lcm(*(v.denominator for v in values.values()))
    numerator = {bits: v.numerator * (denominator // v.denominator)
                 for bits, v in values.items()}
    at = numerator.__getitem__
    for indices, union, positive, negative in combos:
        lhs = numerator[union]
        rhs = sum(map(at, positive)) - sum(map(at, negative))
        if lhs < rhs:
            return _fail(
                name,
                reason="superadditivity fails",
                sets=[list(pool[k].members()) for k in indices],
                lhs=str(Fraction(lhs, denominator)),
                rhs=str(Fraction(rhs, denominator)),
            )
    return _ok(name)


def _inclusion_exclusion_terms(
    bits: Sequence[int], n_max: int
) -> list[tuple[tuple[int, ...], int, list[int], list[int]]]:
    """For every combination of 2..``n_max`` members of ``bits``, in the
    order of ``itertools.combinations`` by increasing size: its indices, its
    union, and the meets of its non-empty sub-combinations of odd and of even
    size, the positive and negative terms of inclusion-exclusion.

    Combinations of size n extend those of size n - 1 by one later member,
    so each meet is one ``&`` of a meet already built.
    """
    level = [((k,), b, [b], []) for k, b in enumerate(bits)]
    terms = []
    for _ in range(2, n_max + 1):
        level = [
            ((*indices, k), union | b,
             [*positive, b, *[m & b for m in negative]],
             [*negative, *[m & b for m in positive]])
            for indices, union, positive, negative in level
            for k, b in enumerate(bits[indices[-1] + 1:], indices[-1] + 1)
        ]
        terms += level
    return terms


def check_allocation_definition(
    frame: QuantitativeEvidenceFrame, allocators: Sequence[Allocator]
) -> CheckOutcome:
    """The three allocation laws, on every evidence subset, checked on the
    family planes of ``validate_allocators``."""
    name = "allocation_definition"
    report = validate_allocators(frame, allocators)
    if report:
        return _fail(
            name,
            frame,
            violations=[{"code": v.code, "message": v.message, **v.detail} for v in report],
        )
    return _ok(name, frame)


def check_drc_equivalence(frame: QuantitativeEvidenceFrame,
                          ds: JustificationFrame) -> CheckOutcome:
    """The intersection allocator under ``ds``, the frame's all-arguments
    frame, reproduces Dempster-combined belief exactly, on every proposition.

    Both sides are sums of masses on the intersection images and on the
    focal sets. Take the smallest of those sets, as an integer, where the two
    masses differ: a proposition below it contains only sets below it, so
    the beliefs first differ there. The check visits the empty set and those
    sets in ascending order, which finds the full sweep's first failure."""
    name = "drc_equivalence"
    combined = combine_evidence(frame)
    universe = frame.universe
    generators = {0, *(s.bits for s in allocated_mass_table(frame, INTERSECTION)),
                  *(s.bits for s in combined.focal)}
    for bits in sorted(generators):
        p = StateSet(universe, bits)
        lhs = belief(frame, INTERSECTION, ds, p)
        rhs = belief_from_bpa(combined, p)
        if lhs != rhs:
            return _fail(
                name,
                frame,
                proposition=list(p.members()),
                pipeline=str(lhs),
                combined=str(rhs),
            )
    return _ok(name, frame)


def check_topological_equivalence(frame: QuantitativeEvidenceFrame,
                                  sd: JustificationFrame) -> CheckOutcome:
    """Qualitative belief holds exactly where the min-dense allocator under
    ``sd``, the frame's dense-arguments frame, assigns positive belief, on
    every proposition.

    Both sides are up-sets: one is generated by the minimum dense open, the
    other by the kept min-dense images with positive mass. Take the smallest
    proposition, as an integer, in one up-set and not the other: any member
    of that up-set inside it lies outside the other up-set too, so it is
    minimal, that is a generator. The check visits the empty set, the minimum
    dense open and every min-dense image in ascending order, which finds the
    full sweep's first failure."""
    name = "topological_equivalence"
    universe = frame.universe
    generators = {0, min_dense(frame.contents()).bits,
                  *(s.bits for s in allocated_mass_table(frame, MIN_DENSE))}
    for bits in sorted(generators):
        p = StateSet(universe, bits)
        qualitative = topological_belief(frame, p)
        quantitative = belief(frame, MIN_DENSE, sd, p) > 0
        if qualitative != quantitative:
            return _fail(
                name,
                frame,
                proposition=list(p.members()),
                qualitative=qualitative,
                positive_belief=quantitative,
            )
    return _ok(name, frame)


def check_minimum_dense_open(frame: QuantitativeEvidenceFrame) -> CheckOutcome:
    """The computed minimum dense open is open, dense, and below every dense
    open of the generated topology. An open that meets a minimal neighborhood
    holds it, so every dense open holds their union U, which is open and
    dense: U is the first dense open in canonical order, and the first to miss
    a wrong candidate. The check visits the empty set and U, judged by
    ``frame.dense_bits``, so it reports what a scan of every open would."""
    name = "minimum_dense_open"
    candidate = min_dense(frame.contents())
    if not frame.open_bits(candidate.bits):
        return _fail(name, frame, reason="candidate is not open",
                     candidate=list(candidate.members()))
    if not frame.dense_bits(candidate.bits):
        return _fail(name, frame, reason="candidate is not dense",
                     candidate=list(candidate.members()))
    for bits in (0, reduce(or_, frame.minimal_neighborhood_bits, 0)):
        if frame.dense_bits(bits) and candidate.bits & ~bits:
            return _fail(
                name,
                frame,
                reason="a dense open does not contain the candidate",
                candidate=list(candidate.members()),
                dense_open=list(StateSet(frame.universe, bits).members()),
            )
    return _ok(name, frame)


def justified_bpa(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
) -> dict[StateSet, Fraction]:
    """The renormalised mass over justification-frame members, as a focal map."""
    table = allocated_mass_table(frame, allocator)
    factor = normalization_factor(frame, allocator, justification)
    return {s: v / factor for s, v in table.items() if v and justification.contains(s)}


def run_all_checks(frame: QuantitativeEvidenceFrame) -> list[CheckOutcome]:
    """Every checker against one frame; outcome names carry the combination
    checked, so CI output stays one stable line per check."""
    outcomes: list[CheckOutcome] = []
    document = frame_to_document(frame)

    outcome = check_mass_axioms(mass_table(frame))
    outcomes.append(CheckOutcome("mass_axioms:merged", outcome.passed,
                                 outcome.detail, document))

    outcomes.append(
        check_allocation_definition(frame, [INTERSECTION, UNION, MIN_DENSE, YAGER])
    )

    singletons = [StateSet(frame.universe, 1 << k)
                  for k in range(min(frame.universe.size, 3))]
    pool = list(dict.fromkeys([*frame.contents(), *singletons]))
    # one frame per kind, so one justified column per allocator, for every check
    justifications = {kind: justification_frame(frame, kind) for kind in ("ds", "sd")}
    for alloc in (INTERSECTION, UNION, MIN_DENSE):
        for kind, jf in justifications.items():
            tag = f"{alloc.label},{kind}"
            outcome = check_bpa_axioms(justified_bpa(frame, alloc, jf))
            outcomes.append(CheckOutcome(f"bpa_axioms:{tag}", outcome.passed,
                                         outcome.detail, document))
            outcome = check_belief_axioms(
                lambda p, a=alloc, j=jf: belief(frame, a, j, p),
                frame.universe,
                n_max=3,
                pool=pool,
            )
            outcomes.append(CheckOutcome(f"belief_axioms:{tag}", outcome.passed,
                                         outcome.detail, document))

    outcomes.append(check_drc_equivalence(frame, justifications["ds"]))
    outcomes.append(check_topological_equivalence(frame, justifications["sd"]))
    outcomes.append(check_minimum_dense_open(frame))
    return outcomes


def fixed_shape_frame(seed: int, states: int, items: int) -> QuantitativeEvidenceFrame:
    """Deterministic random frame with exactly ``states`` states and ``items``
    items, contents non-empty strict subsets, certainties with denominators
    <= 32."""
    return _draw_frame(random.Random(seed), states, items)


def random_frame(
    seed: int, max_states: int = 6, max_items: int = 5
) -> QuantitativeEvidenceFrame:
    """Deterministic random frame: 2..max_states states, 1..max_items items,
    otherwise drawn as in ``fixed_shape_frame``."""
    rng = random.Random(seed)
    n = rng.randint(2, max(2, max_states))
    m = rng.randint(1, max(1, max_items))
    return _draw_frame(rng, n, m)


def _draw_frame(rng: random.Random, states: int, items: int) -> QuantitativeEvidenceFrame:
    universe = make_universe([f"s{k}" for k in range(states)])
    full = universe.full_bits
    drawn = []
    for i in range(items):
        bits = rng.randrange(1, full)  # excludes 0 and the full set
        den = rng.randint(2, _MAX_CERTAINTY_DENOMINATOR)
        num = rng.randint(1, den - 1)
        drawn.append(
            EvidenceItem(f"E{i + 1}", StateSet(universe, bits), Fraction(num, den))
        )
    return QuantitativeEvidenceFrame(universe, tuple(drawn))
