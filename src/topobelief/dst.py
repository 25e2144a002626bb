"""Classical belief-function machinery and the qualitative belief operator.

These are deliberately independent of the fusion pipeline (nothing here
imports ``fusion``): combination works directly on basic probability
assignments, and the qualitative operator works directly on the evidence
sets. The test suite uses both as oracles against the pipeline.

``combine_evidence`` applies Dempster's rule to the simple supports of a
frame as the unnormalised conjunctive rule followed by one renormalisation:
it folds integer weights keyed by state bits and divides by their total once,
at the end. ``dempster_combine`` is the literal pairwise rule, renormalising
after every product, and the tests hold the fold to it. A bpa also keeps its
masses as integer weights over one denominator, so ``belief_from_bpa`` is one
integer sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping

from .core import StateSet, StateUniverse
from .errors import FrameMismatch, IndexOutOfRange, TotalConflict, UniverseMismatch
from .evidence import QuantitativeEvidenceFrame
from .topology import min_dense


@dataclass(frozen=True)
class BasicProbabilityAssignment:
    """Non-zero masses on focal sets; zero on the empty set, total exactly 1."""

    universe: StateUniverse
    focal: Mapping[StateSet, Fraction]

    def __post_init__(self) -> None:
        for s, v in self.focal.items():
            if s.universe != self.universe:
                raise UniverseMismatch("focal set lives in a different universe")
            if s.is_empty():
                raise ValueError("a basic probability assignment is zero on the empty set")
            if not 0 < v <= 1:
                raise ValueError(f"focal mass {v} outside (0, 1]")
        weights, den = self._weights
        total = sum(w for _, w in weights)
        if total != den:
            raise ValueError(f"focal masses total {Fraction(total, den)}, not 1")
        object.__setattr__(self, "focal", dict(self.focal))

    @cached_property
    def _weights(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """``(weights, den)``: each focal set's bits with its mass as an integer
        over ``den``, the lcm of the mass denominators."""
        den = lcm(*(v.denominator for v in self.focal.values()))
        return tuple((s.bits, v.numerator * (den // v.denominator))
                     for s, v in self.focal.items()), den

    def mass(self, s: StateSet) -> Fraction:
        return self.focal.get(s, Fraction(0))


def simple_support(
    frame: QuantitativeEvidenceFrame, index: int
) -> BasicProbabilityAssignment:
    """The bpa of one evidence item: its certainty on its content, the rest on S."""
    if not 0 <= index < frame.arity:
        raise IndexOutOfRange(f"no evidence item at index {index}")
    item = frame.items[index]
    return BasicProbabilityAssignment(
        frame.universe,
        {item.content: item.certainty, frame.universe.full_set(): 1 - item.certainty},
    )


def dempster_combine(
    m1: BasicProbabilityAssignment, m2: BasicProbabilityAssignment
) -> BasicProbabilityAssignment:
    """Conjunctive combination with conflict renormalisation, exactly.

    Raises ``TotalConflict`` when the whole product mass falls on disjoint
    pairs, which is the one case the rule leaves undefined.
    """
    if m1.universe != m2.universe:
        raise UniverseMismatch("operands live in different universes")
    joint: dict[StateSet, Fraction] = {}
    conflict = Fraction(0)
    for a, x in m1.focal.items():
        for b, y in m2.focal.items():
            c = a & b
            if c.is_empty():
                conflict += x * y
            else:
                joint[c] = joint.get(c, Fraction(0)) + x * y
    if conflict == 1:
        raise TotalConflict("all product mass falls on disjoint focal pairs")
    k = 1 - conflict
    return BasicProbabilityAssignment(
        m1.universe, {c: v / k for c, v in joint.items()}
    )


def combine_evidence(frame: QuantitativeEvidenceFrame) -> BasicProbabilityAssignment:
    """Dempster's combination of the simple supports of a frame, in item order.

    Each support's masses are scaled to integers over the lcm of their
    denominators, and the conjunctive products are folded into weights keyed
    by the raw bits of the intersection. Empty intersections are dropped as
    they appear, since the empty set absorbs every later product; the
    survivors are renormalised once, by their total. Raises ``TotalConflict``
    at the first item after which no non-empty product is left.
    """
    universe = frame.universe
    weights = {universe.full_bits: 1}
    for i in range(frame.arity):
        scaled, _ = simple_support(frame, i)._weights
        grown: dict[int, int] = {}
        for key, w in weights.items():
            for bits, x in scaled:
                meet = key & bits
                if meet:
                    grown[meet] = grown.get(meet, 0) + w * x
        if not grown:
            raise TotalConflict("all product mass falls on disjoint focal pairs")
        weights = grown
    total = sum(weights.values())
    return BasicProbabilityAssignment(
        universe,
        {StateSet(universe, bits): Fraction(w, total) for bits, w in weights.items()},
    )


def belief_from_bpa(m: BasicProbabilityAssignment, proposition: StateSet) -> Fraction:
    """Total focal mass inside the proposition."""
    if proposition.universe != m.universe:
        raise UniverseMismatch("proposition lives in a different universe")
    outside = ~proposition.bits
    weights, den = m._weights
    return Fraction(sum(w for bits, w in weights if not bits & outside), den)


def topological_belief(frame: QuantitativeEvidenceFrame, proposition: StateSet) -> bool:
    """All-or-nothing belief from the evidence sets alone: true iff some dense
    open of the evidential topology sits inside the proposition, which by the
    minimum-dense-open characterisation is one subset test."""
    if proposition.universe != frame.universe:
        raise FrameMismatch("proposition lives in a different universe")
    return min_dense(frame.contents()).issubset(proposition)
