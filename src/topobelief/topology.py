"""Topology generation from a subbasis, denseness, and minimum dense opens.

All spaces are finite, so a topology is fixed by its minimal open
neighborhoods, the smallest open around each state, which form its smallest
basis. ``minimal_open_neighborhoods`` answers openness/denseness queries
without materialising anything, which is what the fusion pipeline uses at
scale; ``generate_topology`` lists every open as a union of those
neighborhoods, up to ``MAX_OPENS`` opens.

States with the same evidence signature (the set of generators containing
them) lie in exactly the same opens. ``signature_atoms`` groups them into
atoms in one pass, and ``min_dense`` reads the maximal signatures from it.
Every open is a union of atoms, so whether an open lies inside a set depends
only on the largest union of atoms inside that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import StateSet, StateUniverse, canonical_key
from .errors import CapacityExceeded, EmptyEvidenceList, UniverseMismatch

# every topology on up to 18 states fits
MAX_OPENS = 1 << 18


@dataclass(frozen=True)
class Topology:
    """An explicit topology: deduplicated opens in canonical order."""

    universe: StateUniverse
    opens: tuple[StateSet, ...]

    @cached_property
    def _open_bits(self) -> frozenset[int]:
        return frozenset(o.bits for o in self.opens)

    def __contains__(self, s: StateSet) -> bool:
        return s.universe == self.universe and s.bits in self._open_bits

    def __len__(self) -> int:
        return len(self.opens)


def _check_universe(universe: StateUniverse, sets: Sequence[StateSet]) -> None:
    for s in sets:
        if s.universe != universe:
            raise UniverseMismatch("subbasis sets must live in the given universe")


def generate_topology(universe: StateUniverse, subbasis: Sequence[StateSet]) -> Topology:
    """Smallest topology containing ``subbasis``.

    Its opens are the unions of the distinct minimal open neighborhoods,
    starting from the empty union: each neighborhood is joined to every open
    found so far. The family only grows, so it passes ``MAX_OPENS`` exactly
    when the topology has more opens than that, in any neighborhood order,
    and the listing is then refused with ``CapacityExceeded``.
    """
    opens = {0}
    for nb in {s.bits for s in minimal_open_neighborhoods(universe, subbasis)}:
        opens |= {o | nb for o in opens}
        if len(opens) > MAX_OPENS:
            raise CapacityExceeded(
                f"the generated topology has more than the cap of {MAX_OPENS} opens"
            )
    members = sorted((StateSet(universe, bits) for bits in opens), key=canonical_key)
    return Topology(universe, tuple(members))


def signature_atoms(universe: StateUniverse, sets: Sequence[StateSet]) -> dict[int, int]:
    """The atoms of the generated topology: each membership signature (a mask
    over ``sets``) mapped to the bits of the states that carry it, in the
    order of each atom's first state. Uncovered states sit under signature 0.
    No open separates two states of one atom, so every open is a union of
    atoms."""
    atoms: dict[int, int] = {}
    for k in range(universe.size):
        sig = 0
        for i, s in enumerate(sets):
            if s.bits >> k & 1:
                sig |= 1 << i
        atoms[sig] = atoms.get(sig, 0) | 1 << k
    return atoms


def _maximal_signatures(atoms: dict[int, int]) -> list[int]:
    """The non-zero signatures that no other signature strictly contains."""
    sigs = [sig for sig in atoms if sig]
    return [s for s in sigs if not any(s != o and s & o == s for o in sigs)]


def min_dense(evidence: Sequence[StateSet]) -> StateSet:
    """The smallest dense open of the topology the evidence generates.

    Equals the union of the intersections of all maximal
    finite-intersection-property families, that is the union of the atoms
    whose signature is maximal among the non-zero signatures.
    """
    if not evidence:
        raise EmptyEvidenceList("need at least one evidence set")
    universe = evidence[0].universe
    _check_universe(universe, evidence)
    atoms = signature_atoms(universe, evidence)
    bits = 0
    for sig in _maximal_signatures(atoms):
        bits |= atoms[sig]
    return StateSet(universe, bits)


def minimal_open_neighborhoods(
    universe: StateUniverse, sets: Sequence[StateSet]
) -> tuple[StateSet, ...]:
    """Per state, the smallest open of the generated topology containing it.

    The neighborhood of x is the intersection of every generator containing
    x, or the full space when none does. These answer membership queries
    without materialising the topology: a set is open iff it contains the
    neighborhood of each of its states, and dense iff it meets every
    neighborhood.
    """
    _check_universe(universe, sets)
    full = universe.full_bits
    out = []
    for k in range(universe.size):
        nb = full
        for s in sets:
            if s.bits >> k & 1:
                nb &= s.bits
        out.append(StateSet(universe, nb))
    return tuple(out)
