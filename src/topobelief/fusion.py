"""The multi-layer fusion pipeline.

Quantitative layer: certainties of the basic evidence sets are merged into an
exact mass function over evidence subsets (independent-product form, so the
masses sum to 1 and the marginal of each item recovers its certainty).

Qualitative layer: a justification frame picks which opens of the evidential
topology may carry belief ("ds" admits every non-empty open, "sd" only the
dense ones, custom frames list their members explicitly).

Bridging layer: an allocation function maps each evidence subset to an open;
its mass lands there, is renormalised over the justification frame, and
belief in a proposition is the mass of the frame members inside it.

Cost: the intersection and union aggregations fold the items in one at a
time over a table keyed by the running intersection or union, so they take
O(m x distinct images) for m items; Yager's column is the intersection
column with the mass at the empty image moved to S. The min-dense allocator
works on bit planes: sets of evidence families held as 2^m-bit ints, one
plane per distinct evidence signature. Building them takes about (distinct
signatures)^2 Boolean operations on 2^m-bit ints; each belief, under ``ds``,
``sd`` or a custom frame, then needs one weight (a table lookup and a product
per byte of a plane), and the captured mass one more. At 16 states and 16
items a ``d`` report or a single ``d`` belief takes about 8 ms on a 2-vCPU
Xeon under Python 3.11 (``scripts/scaling_probe.py``). Beliefs, their
normalisation and the bpa are all read from one justified column per
(allocator, justification frame), ``_column``. ``validate_allocators``
checks the allocation laws on the same kind of planes, one per allocator and
atom, in about (atoms)^2 Boolean operations on 2^m-bit ints. Custom tables,
the ``d`` image table of ``allocated_mass_table`` (each family's image read
off the planes) and the per-subset listings (``mass_table``, ``allocate``
over every subset) enumerate all 2^m evidence subsets. Every path rejects
arities above ``MAX_ENUM_ITEMS`` up front with ``CapacityExceeded`` rather
than silently hanging.

Memory: the image tables (``_image_numerators``) and the half tables
(``_half_tables``) sit in lru caches sized to one request: ``verify`` builds
three image tables and one pair of half tables, an ``i,u,yager`` report two
image tables. A long-running process thus holds the tables of its last
request or two, not of hundreds of earlier frames.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import and_, mul, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import StateSet, canonical_key, render_decimal
from .errors import (
    CapacityExceeded,
    CustomFrameContainsEmpty,
    CustomFrameMissingTotalSet,
    CustomFrameNotOpen,
    FrameMismatch,
    MalformedDocument,
    TopobeliefError,
    UniverseMismatch,
    Violation,
)
from .evidence import EvidenceSubset, QuantitativeEvidenceFrame, check_same_frame
from .topology import generate_topology, min_dense

MAX_ENUM_ITEMS = 24


# what more than ``MAX_ENUM_ITEMS`` items would cost on each enumerating path
_SUBSETS = "2^{m} subset evaluations"
_PLANES = "2^{m}-bit family planes"


def _check_capacity(frame: QuantitativeEvidenceFrame, work: str | None = None) -> None:
    """Reject more than ``MAX_ENUM_ITEMS`` items. ``work`` names what the
    items would cost: ``_SUBSETS`` for custom tables and the per-subset
    listings, ``_PLANES`` for ``d`` and ``validate_allocators``, nothing for
    the folds of ``i``, ``u`` and ``yager``."""
    m = frame.arity
    if m <= MAX_ENUM_ITEMS:
        return
    if work is None:
        raise CapacityExceeded(f"{m} evidence items exceed the cap of {MAX_ENUM_ITEMS} items")
    raise CapacityExceeded(
        f"{m} evidence items need {work.format(m=m)}; the cap is {MAX_ENUM_ITEMS} items"
    )


# -- quantitative layer -------------------------------------------------------

def _common_denominator(frame: QuantitativeEvidenceFrame) -> int:
    """The product of all certainty denominators: every merged mass is an
    integer numerator over it."""
    denominator = 1
    for item in frame.items:
        denominator *= item.certainty.denominator
    return denominator


def _products(items) -> list[int]:
    """Mass numerators of every family of ``items``, indexed by item mask: with
    certainty p/q, the product of p over the included items and of q - p over
    the excluded ones."""
    out = [1]
    for item in items:
        p = item.certainty.numerator
        excluded = item.certainty.denominator - p
        out = [w * excluded for w in out] + [w * p for w in out]
    return out


@lru_cache(maxsize=2)
def _half_tables(frame: QuantitativeEvidenceFrame):
    """Meet-in-the-middle tables of mass numerators.

    Masses are integer numerators over the common denominator (the product of
    all certainty denominators), which keeps the hot loop in machine-int land.
    One request builds them for one frame; the cache holds two.
    """
    half = frame.arity // 2
    return (_products(frame.items[:half]), _products(frame.items[half:]), half,
            _common_denominator(frame))


def mass_table(frame: QuantitativeEvidenceFrame) -> list[tuple[EvidenceSubset, Fraction]]:
    """All 2^m merged masses, in canonical subset order (size, then index mask)."""
    _check_capacity(frame, _SUBSETS)
    lo, hi, half, den = _half_tables(frame)
    lomask = (1 << half) - 1
    order = sorted(range(1 << frame.arity), key=lambda k: (k.bit_count(), k))
    return [
        (EvidenceSubset(frame, k), Fraction(lo[k & lomask] * hi[k >> half], den))
        for k in order
    ]


# -- bridging layer: allocation ----------------------------------------------

class AllocatorKind(enum.Enum):
    INTERSECTION = "i"
    UNION = "u"
    MIN_DENSE = "d"
    YAGER = "yager"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class Allocator:
    """Maps evidence subsets to opens; see ``validate_allocators`` for the laws."""

    kind: AllocatorKind
    label: str
    table: Mapping[int, int] | None = None  # evidence mask -> state bits


INTERSECTION = Allocator(AllocatorKind.INTERSECTION, "i")
UNION = Allocator(AllocatorKind.UNION, "u")
MIN_DENSE = Allocator(AllocatorKind.MIN_DENSE, "d")
YAGER = Allocator(AllocatorKind.YAGER, "yager")

BUILTIN_ALLOCATORS = {
    "i": INTERSECTION,
    "u": UNION,
    "d": MIN_DENSE,
    "yager": YAGER,
}


def custom_allocator(
    frame: QuantitativeEvidenceFrame,
    mapping: Mapping,
    label: str = "custom",
) -> Allocator:
    """Explicit-table allocator; the table must cover every evidence subset."""
    table: dict[int, int] = {}
    for key, image in mapping.items():
        mask = key.mask if isinstance(key, EvidenceSubset) else int(key)
        if not 0 <= mask < (1 << frame.arity):
            raise MalformedDocument(f"table key {mask:#x} outside frame arity")
        if image.universe != frame.universe:
            raise UniverseMismatch("table image lives in a different universe")
        table[mask] = image.bits
    if len(table) != 1 << frame.arity:
        raise MalformedDocument(
            f"custom allocator table lists {len(table)} of {1 << frame.arity} "
            "evidence subsets; a total map is required"
        )
    return Allocator(AllocatorKind.CUSTOM, label, table)


def allocate(
    frame: QuantitativeEvidenceFrame, allocator: Allocator, subset: EvidenceSubset
) -> StateSet:
    """Image of one evidence subset; every builtin sends the empty subset to S."""
    check_same_frame(frame, subset)
    universe = frame.universe
    if allocator.kind is AllocatorKind.CUSTOM:
        return StateSet(universe, allocator.table[subset.mask])
    if subset.mask == 0:
        return universe.full_set()
    contents = subset.contents()
    if allocator.kind is AllocatorKind.MIN_DENSE:
        return min_dense(contents)
    if allocator.kind is AllocatorKind.UNION:
        bits = 0
        for c in contents:
            bits |= c.bits
        return StateSet(universe, bits)
    bits = universe.full_bits
    for c in contents:
        bits &= c.bits
    if not bits and allocator.kind is AllocatorKind.YAGER:
        bits = universe.full_bits
    return StateSet(universe, bits)


# stands for the union of the empty family, whose image is S; 0 would clash
# with a family whose contents are all empty
_NO_UNION = -1


def _fold_numerators(frame: QuantitativeEvidenceFrame, union: bool) -> dict[int, int]:
    """Mass numerators per running intersection (or union) of the included
    items, folding the items in one at a time. With certainty p/q, each item
    splits every entry into excluded (numerator times q - p, same key) and
    included (numerator times p, key met or joined with the item's content).
    Entries with equal keys merge, so the cost is O(m x distinct images)
    rather than 2^m."""
    full = frame.universe.full_bits
    acc = {_NO_UNION if union else full: 1}
    for item in frame.items:
        p = item.certainty.numerator
        excluded = item.certainty.denominator - p
        content = item.content.bits
        grown = {key: num * excluded for key, num in acc.items()}
        for key, num in acc.items():
            if not union:
                key &= content
            elif key == _NO_UNION:
                key = content
            else:
                key |= content
            if key in grown:
                grown[key] += num * p
            else:
                grown[key] = num * p
        acc = grown
    if union:
        acc[full] = acc.get(full, 0) + acc.pop(_NO_UNION)
    return acc


# -- min-dense allocator: bit planes over the evidence families -----------------
#
# A plane is a set of evidence families held as one 2^m-bit int: bit F stands
# for the family whose item mask is F. Every family set below is built from
# the per-item planes with word-parallel Boolean operations.

def _family_weigher(frame: QuantitativeEvidenceFrame):
    """``weigh(plane)``: the total mass numerator of the families in a plane.

    Each byte of the plane holds eight families that differ only in the lowest
    three items; a 256-entry table gives the byte's share of those items'
    weights, and the products over the other items scale it."""
    items = frame.items
    low = min(3, len(items))

    table = [0]
    for w in _products(items[:low]) + [0] * (8 - (1 << low)):
        table += [share + w for share in table]
    high_weights = _products(items[low:])
    size = len(high_weights)
    lookup = table.__getitem__

    def weigh(plane: int) -> int:
        return sum(map(mul, high_weights, map(lookup, plane.to_bytes(size, "little"))))

    return weigh


def _avoider(arity: int) -> Callable[[int], int]:
    """``avoid(mask)``: the families that miss every item of ``mask``, the
    meet of the per-item planes of the families without item i. It always
    holds bit 0, and ``avoid(0)`` is every family."""
    size = 1 << arity
    every = (1 << size) - 1
    without: list[int] = []  # families without item i
    for i in range(arity):
        run = 1 << i
        plane = (1 << run) - 1
        span = run << 1
        while span < size:
            plane |= plane << span
            span <<= 1
        without.append(plane)

    def avoid(mask: int) -> int:
        plane = every
        while mask:
            low = mask & -mask
            plane &= without[low.bit_length() - 1]
            mask ^= low
        return plane

    return avoid


def _set_bits(plane: int) -> list[int]:
    """The set bits of a plane, ascending."""
    return [k for k, bit in enumerate(reversed(format(plane, "b"))) if bit == "1"]


def _min_dense_planes(frame: QuantitativeEvidenceFrame) -> list[tuple[int, int]]:
    """``(states, plane)`` per atom of evidence signature σ: the states of
    signature σ, and the families whose min-dense image holds them.

    The empty family (bit 0) maps to S, so it lies in every plane. A
    non-empty family F maps a state to its image iff F meets σ and no other
    signature τ restricted to F strictly contains σ restricted to F, that is
    unless F misses σ - τ and meets τ - σ. With avoid(A) the families that
    miss the item mask A (``_avoider``), the plane is

        (¬avoid(σ) ∧ ⋀_{τ ⊄ σ} ¬(avoid(σ - τ) ∧ ¬avoid(τ - σ))) ∨ {0}.

    The plane of the uncovered states (σ = 0) is exactly {0}."""
    avoid = _avoider(frame.arity)
    every = avoid(0)
    atoms = frame.point_signatures
    planes = [every ^ avoid(sig) | 1 for _, sig in atoms]
    # each pair of signatures shares its two avoid planes
    for j, (_, sig) in enumerate(atoms):
        for k in range(j):
            other = atoms[k][1]
            only_sig, only_other = sig & ~other, other & ~sig
            a = avoid(only_sig)
            b = avoid(only_other)
            if only_other:
                planes[j] &= b | ~a
            if only_sig:
                planes[k] &= a | ~b
    return [(states, plane) for (states, _), plane in zip(atoms, planes)]


@lru_cache(maxsize=8)
def _image_numerators(frame: QuantitativeEvidenceFrame, allocator: Allocator):
    """Mass numerators gathered by each image, over the common denominator.

    Returns ``(acc, den)`` with ``acc`` mapping image bits to numerators; an
    image appears iff some evidence subset maps to it, even at zero mass.
    Intersection and union fold the items in; Yager is the intersection table
    with the mass on the empty set moved to S, a table that only
    ``allocated_mass_table`` asks for, since ``_column`` reads Yager off the
    intersection column. Min-dense reads each family's image off its
    signature planes, the union of the states of the planes that hold it;
    only ``allocated_mass_table`` needs that table, since ``_column`` reads
    the planes themselves. Min-dense and custom tables then enumerate all
    2^m subsets over the meet-in-the-middle half tables.

    The cache holds the four builtin tables of two frames, more than one
    request builds (``verify`` builds ``i``, ``u`` and ``d``), so a process
    keeps no tables of frames it is done with.
    """
    kind = allocator.kind
    _check_capacity(frame, _PLANES if kind is AllocatorKind.MIN_DENSE
                    else _SUBSETS if kind is AllocatorKind.CUSTOM else None)
    if kind is AllocatorKind.YAGER:
        acc, den = _image_numerators(frame, INTERSECTION)
        acc = dict(acc)
        if 0 in acc:
            acc[frame.universe.full_bits] += acc.pop(0)
        return acc, den
    if kind is AllocatorKind.INTERSECTION or kind is AllocatorKind.UNION:
        return (_fold_numerators(frame, kind is AllocatorKind.UNION),
                _common_denominator(frame))
    if kind is AllocatorKind.MIN_DENSE:
        table = [0] * (1 << frame.arity)
        for states, plane in _min_dense_planes(frame):
            for family in _set_bits(plane):
                table[family] |= states
    else:
        table = allocator.table
    lo, hi, half, den = _half_tables(frame)
    lomask = (1 << half) - 1
    acc: dict[int, int] = {}
    for mask in range(1 << frame.arity):
        num = lo[mask & lomask] * hi[mask >> half]
        image = table[mask]
        if image in acc:
            acc[image] += num
        else:
            acc[image] = num
    return acc, den


def allocated_mass_table(
    frame: QuantitativeEvidenceFrame, allocator: Allocator
) -> dict[StateSet, Fraction]:
    """Mass gathered by each allocator image; values sum to exactly 1."""
    acc, den = _image_numerators(frame, allocator)
    universe = frame.universe
    return {
        StateSet(universe, bits): Fraction(num, den)
        for bits, num in sorted(acc.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
    }


# -- qualitative layer: justification frames ----------------------------------

class JustificationKind(enum.Enum):
    DS = "ds"
    SD = "sd"
    CUSTOM = "custom"


@dataclass(frozen=True)
class JustificationFrame:
    """The opens an agent accepts as justification.

    "ds" admits every non-empty open (lowest demands), "sd" only the dense
    opens (consistency with every argument), custom frames an explicit,
    validated list, all opens of the topology of ``frame``. Membership tests
    never materialise the topology. The justified columns of ``_column``
    are kept here, one per allocator, for as long as the caller holds this
    frame.
    """

    kind: JustificationKind
    frame: QuantitativeEvidenceFrame
    custom_members: tuple[StateSet, ...] | None = None

    @cached_property
    def _member_bits(self) -> frozenset[int] | None:
        if self.custom_members is None:
            return None
        return frozenset(s.bits for s in self.custom_members)

    @cached_property
    def _columns(self) -> dict:
        """``_column`` values, by allocator."""
        return {}

    def contains_bits(self, bits: int) -> bool:
        """Membership of a raw bit set of the frame's universe."""
        if self.kind is JustificationKind.CUSTOM:
            return bits in self._member_bits
        if self.kind is JustificationKind.DS:
            return bits != 0 and self.frame.open_bits(bits)
        return self.frame.dense_bits(bits) and self.frame.open_bits(bits)

    def contains(self, s: StateSet) -> bool:
        if s.universe != self.frame.universe:
            raise UniverseMismatch("set lives in a different universe")
        return self.contains_bits(s.bits)

    def members(self) -> tuple[StateSet, ...]:
        """Explicit member list; ds/sd kinds list the generated topology, so
        they raise ``CapacityExceeded`` past ``topology.MAX_OPENS`` opens."""
        if self.kind is JustificationKind.CUSTOM:
            return self.custom_members
        topo = generate_topology(self.frame.universe, self.frame.contents())
        return tuple(o for o in topo.opens if self.contains_bits(o.bits))


def justification_frame(
    frame: QuantitativeEvidenceFrame,
    kind: str | JustificationKind,
    members: Iterable[StateSet] | None = None,
) -> JustificationFrame:
    """Build a justification frame; custom member lists are validated against
    the evidential topology and must contain S and exclude the empty set.

    Each call builds a new frame with no columns yet; callers that ask for
    several beliefs pass the same frame to each of them."""
    if not isinstance(kind, JustificationKind):
        kind = JustificationKind(str(kind).lower())
    if kind is not JustificationKind.CUSTOM:
        if members is not None:
            raise ValueError("member lists only apply to custom frames")
        return JustificationFrame(kind, frame)
    if members is None:
        raise ValueError("a custom frame needs an explicit member list")
    seen: dict[int, StateSet] = {}
    for m in members:
        if m.universe != frame.universe:
            raise UniverseMismatch("custom frame member lives in a different universe")
        if m.is_empty():
            raise CustomFrameContainsEmpty("the empty set can never justify belief")
        if not frame.is_open(m):
            raise CustomFrameNotOpen(
                f"{m!r} is not an element of the evidential topology"
            )
        seen[m.bits] = m
    if frame.universe.full_bits not in seen:
        raise CustomFrameMissingTotalSet(
            "every justification frame must contain the full state space"
        )
    ordered = tuple(sorted(seen.values(), key=canonical_key))
    return JustificationFrame(kind, frame, ordered)


# -- bridging layer: normalisation and belief ----------------------------------

class _Column(NamedTuple):
    """The justified column of one allocator under one justification frame,
    in mass numerators over the common denominator ``den``: ``captured`` is
    the mass of the images the frame keeps, ``inside(bits)`` the kept mass on
    images inside a proposition, and ``at(bits)`` the kept mass at exactly
    that image."""

    den: int
    captured: int
    inside: Callable[[int], int]
    at: Callable[[int], int]


def _column(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
) -> _Column:
    """The one column that ``belief``, ``normalization_factor``,
    ``justified_mass`` and ``belief_report`` read.

    A justification frame is a family of opens of its own evidence frame, so
    ``frame`` must be that frame or equal to it (``FrameMismatch``
    otherwise), and the column is kept on the justification frame.

    Builtin ``d`` reads the signature planes. With exact(I) the families
    whose image is exactly I, that is ⋀ M_σ over the signatures σ whose
    states lie in I and ⋀ ¬M_σ over the rest, and nothing unless those states
    make up I, the kept plane K holds the families with a non-empty image
    (``ds``), an image meeting every minimal neighborhood (``sd``), or
    ⋁ exact(T) over the members T of a custom frame. Then captured = w(K),
    inside(P) = w(K ∧ ⋀_{σ ⊄ P} ¬M_σ) and at(I) = w(K ∧ exact(I)). The empty
    family lies in every plane, so it counts only at S; only it reaches the
    uncovered states.

    Builtin ``yager`` is the ``i`` column of the same justification frame
    with the conflict, the ``i`` mass at the empty image, moved to S: no
    frame holds the empty set, every frame holds S, and S lies inside a
    proposition P only when P = S, so the conflict adds to ``captured``, to
    ``at(S)`` and to ``inside(S)`` and to nothing else.

    Every other column keeps the numerators of ``_image_numerators`` whose
    image the frame accepts. Builtin images are open (allocation law 2), so
    under ``ds`` or ``sd`` a builtin column skips the openness test: ``ds``
    keeps the non-empty images and ``sd`` the dense ones. Custom allocators
    and custom frames test membership with
    ``JustificationFrame.contains_bits``.

    The captured mass is strictly positive for every valid frame: the full
    space always belongs, and it gathers at least the all-items-uncertain
    product, which is positive because certainties are strictly below 1.
    """
    if frame is not justification.frame and frame != justification.frame:
        raise FrameMismatch("justification frame belongs to a different evidence frame")
    columns = justification._columns
    column = columns.get(allocator)
    if column is not None:
        return column
    if allocator.kind is AllocatorKind.MIN_DENSE:
        _check_capacity(frame, _PLANES)
        planes = _min_dense_planes(frame)

        def exact(families: int, image: int) -> int:
            union = 0
            for states, plane in planes:
                if states & ~image:
                    families &= ~plane
                else:
                    families &= plane
                    union |= states
            return families if union == image else 0

        kept = 0
        for _, plane in planes:
            kept |= plane
        if justification.kind is JustificationKind.SD:
            for nb in frame.minimal_neighborhood_bits:
                meets = 0
                for states, plane in planes:
                    if states & nb:
                        meets |= plane
                kept &= meets
        elif justification.kind is JustificationKind.CUSTOM:
            nonempty, kept = kept, 0
            for bits in justification._member_bits:
                kept |= exact(nonempty, bits)
        weigh = _family_weigher(frame)

        def inside(bits: int) -> int:
            families = kept
            for states, plane in planes:
                if states & ~bits and families:
                    families &= ~plane
            return weigh(families)

        column = _Column(_common_denominator(frame), weigh(kept), inside,
                         lambda bits: weigh(exact(kept, bits)))
    elif allocator.kind is AllocatorKind.YAGER:
        base = _column(frame, INTERSECTION, justification)
        conflict = _image_numerators(frame, INTERSECTION)[0].get(0, 0)
        full = frame.universe.full_bits

        def moved(bits: int) -> int:
            return conflict if bits == full else 0

        column = _Column(base.den, base.captured + conflict,
                         lambda bits: base.inside(bits) + moved(bits),
                         lambda bits: base.at(bits) + moved(bits))
    else:
        acc, den = _image_numerators(frame, allocator)
        if (allocator.kind is AllocatorKind.CUSTOM
                or justification.kind is JustificationKind.CUSTOM):
            keep = justification.contains_bits
            kept = {bits: num for bits, num in acc.items() if keep(bits)}
        elif justification.kind is JustificationKind.DS:
            # builtin images are open: keep the non-empty ones
            kept = dict(acc)
            kept.pop(0, None)
        else:
            dense = frame.dense_bits
            kept = {bits: num for bits, num in acc.items() if dense(bits)}

        def inside(bits: int) -> int:
            outside = ~bits
            return sum(num for image, num in kept.items() if not image & outside)

        column = _Column(den, sum(kept.values()), inside, lambda b: kept.get(b, 0))
    if column.captured == 0:
        raise TopobeliefError("justification frame captures no mass; belief is undefined")
    columns[allocator] = column
    return column


def normalization_factor(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
) -> Fraction:
    """Mass captured by the justification frame; the divisor of the bpa."""
    column = _column(frame, allocator, justification)
    return Fraction(column.captured, column.den)


def justified_mass(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
    target: StateSet,
) -> Fraction:
    """The bpa over states: allocated mass renormalised over the frame,
    zero outside the frame."""
    if target.universe != frame.universe:
        raise FrameMismatch("target set lives in a different universe")
    column = _column(frame, allocator, justification)
    return Fraction(column.at(target.bits), column.captured)


def belief(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
    proposition: StateSet,
) -> Fraction:
    """Degree of belief: total justified mass of frame members inside the
    proposition (only they carry mass, so this equals the sum over all
    subsets)."""
    if proposition.universe != frame.universe:
        raise FrameMismatch("proposition lives in a different universe")
    column = _column(frame, allocator, justification)
    return Fraction(column.inside(proposition.bits), column.captured)


# -- allocation-law validation -------------------------------------------------

def _allocation_planes(
    frame: QuantitativeEvidenceFrame, allocator: Allocator, avoid: Callable[[int], int]
) -> list[tuple[int, int]]:
    """``(states, plane)`` pairs that partition the universe: the families
    whose image holds those states. Builtin images are unions of atoms, so
    there is one pair per atom of evidence signature σ:

    - ``i``: the families inside σ, avoid(¬σ);
    - ``u``: the families that meet σ, and the empty family;
    - ``yager``: the ``i`` plane, plus the families whose contents have an
      empty intersection, which no ``i`` plane holds past bit 0;
    - ``d``: the plane of ``_min_dense_planes``.

    A custom table gets one pair per state, filled in one scan of the table.
    """
    kind = allocator.kind
    if kind is AllocatorKind.CUSTOM:
        rows = [bytearray(((1 << frame.arity) + 7) // 8)
                for _ in range(frame.universe.size)]
        for mask, image in allocator.table.items():
            byte, bit = mask >> 3, 1 << (mask & 7)
            while image:
                low = image & -image
                rows[low.bit_length() - 1][byte] |= bit
                image ^= low
        return [(1 << k, int.from_bytes(row, "little")) for k, row in enumerate(rows)]
    if kind is AllocatorKind.MIN_DENSE:
        return _min_dense_planes(frame)
    every = avoid(0)
    atoms = frame.point_signatures
    if kind is AllocatorKind.UNION:
        return [(states, every ^ avoid(sig) | 1) for states, sig in atoms]
    items = (1 << frame.arity) - 1
    planes = [avoid(items & ~sig) for _, sig in atoms]
    if kind is AllocatorKind.YAGER:
        empty = every
        for plane in planes:
            empty &= ~plane
        planes = [plane | empty for plane in planes]
    return [(states, plane) for (states, _), plane in zip(atoms, planes)]


_LAW_MESSAGES = {
    "EmptyFamilyImage": "maps the empty evidence subset to {!r}, not the full space",
    "ImageNotOpen": "image {!r} is outside the topology generated by the evidence subset",
    "ImageNotDense": "image {!r} is neither empty nor dense for the evidence subset",
}


def validate_allocators(
    frame: QuantitativeEvidenceFrame, allocators: Sequence[Allocator]
) -> list[Violation]:
    """Check the allocation laws on every evidence subset.

    (1) the empty subset maps to S; (2) each image belongs to the topology
    generated by the subset alone and is either empty or dense w.r.t. it;
    (3) any two allocators' images at the same subset are nested one way or
    the other. Violations carry the witness subset, in the order of a sweep
    over the subsets by ascending mask, then the allocators, then the pairs.

    The laws are checked on family planes: A_x holds the families whose
    image holds state x (``_allocation_planes``). In the topology that a
    family F generates, the smallest open around y holds the states x for
    which F misses σ(y) - σ(x), σ being the evidence signature. With
    avoid(A) the families that miss the item mask A, these families break
    the laws, past bit 0 for law (2):

    - law (1): bit 0, if it lies outside some A_x;
    - not open: ⋁_{x,y} A_x ∧ ¬A_y ∧ avoid(σ(x) - σ(y));
    - not dense: the open, non-empty images with, for some y,
      ⋀_x ¬(A_x ∧ avoid(σ(y) - σ(x)));
    - law (3), for allocators a and b: ⋁_x (A_x ∧ ¬B_x) ∧ ⋁_x (B_x ∧ ¬A_x).

    The states of an atom share σ, so law (2) runs over pairs of atoms with
    the join and the meet of each atom's planes: (atoms)^2 Boolean
    operations on 2^m-bit ints, one avoid plane per pair for all allocators.
    The images in the report are read back from the planes.
    """
    _check_capacity(frame, _PLANES)
    avoid = _avoider(frame.arity)
    every = avoid(0)
    atoms = frame.point_signatures
    classes = [_allocation_planes(frame, a, avoid) for a in allocators]
    count = len(classes)
    parts = [[[plane for states, plane in planes if states & atom] for atom, _ in atoms]
             for planes in classes]
    joins = [[reduce(or_, part) for part in per_atom] for per_atom in parts]
    outside = [[every ^ reduce(and_, part) for part in per_atom] for per_atom in parts]
    not_open, dense = [0] * count, [every] * count
    for j, (_, sig) in enumerate(atoms):
        # the families for which the smallest open around atom j leaves the
        # image, and those for which the image meets it
        escapes, reached = [0] * count, [0] * count
        for k, (_, other) in enumerate(atoms):
            near = avoid(sig & ~other)
            for n in range(count):
                escapes[n] |= near & outside[n][k]
                reached[n] |= near & joins[n][k]
        for n in range(count):
            not_open[n] |= joins[n][j] & escapes[n]
            dense[n] &= reached[n]

    found: list[tuple[int, int, str]] = []  # (mask, slot, code)
    for n in range(count):
        for code, plane in (("EmptyFamilyImage", reduce(or_, outside[n]) & 1),
                            ("ImageNotOpen", not_open[n] & ~1),
                            ("ImageNotDense",
                             reduce(or_, joins[n]) & ~not_open[n] & ~dense[n] & ~1)):
            found += [(mask, n, code) for mask in _set_bits(plane)]
    rows = [[next(plane for states, plane in planes if states >> k & 1)
             for k in range(frame.universe.size)] for planes in classes]
    pairs = [(x, y) for x in range(count) for y in range(x + 1, count)]
    for slot, (x, y) in enumerate(pairs, count):
        only_x = reduce(or_, [a & ~b for a, b in zip(rows[x], rows[y])])
        only_y = reduce(or_, [b & ~a for a, b in zip(rows[x], rows[y])])
        found += [(mask, slot, "IncomparableImages") for mask in _set_bits(only_x & only_y)]
    found.sort()

    def image(n: int, mask: int) -> StateSet:
        return StateSet(frame.universe, sum(states for states, plane in classes[n]
                                            if plane >> mask & 1))

    report: list[Violation] = []
    for mask, slot, code in found:
        witness = list(EvidenceSubset(frame, mask).members())
        if slot < count:
            a, img = allocators[slot], image(slot, mask)
            report.append(Violation(
                code, f"allocator {a.label!r} " + _LAW_MESSAGES[code].format(img),
                {"allocator": a.label, "evidence": witness, "image": list(img.members())}))
            continue
        x, y = pairs[slot - count]
        a, b = allocators[x], allocators[y]
        ia, ib = image(x, mask), image(y, mask)
        report.append(Violation(
            code,
            f"allocators {a.label!r} and {b.label!r} give "
            f"incomparable images {ia!r} and {ib!r}",
            {"allocators": [a.label, b.label], "evidence": witness,
             "images": [list(ia.members()), list(ib.members())]}))
    return report


# -- reports -------------------------------------------------------------------

def value_cell(value: Fraction, precision: int) -> dict:
    """JSON form of an exact value: numerator, denominator and its rendering."""
    return {
        "num": value.numerator,
        "den": value.denominator,
        "rendered": render_decimal(value, precision),
    }


@dataclass(frozen=True)
class BeliefReport:
    """Belief matrix plus the normalisation factor and uncertainty per allocator."""

    frame: QuantitativeEvidenceFrame
    justification: JustificationFrame
    allocators: tuple[Allocator, ...]
    propositions: tuple[StateSet, ...]
    beliefs: tuple[tuple[Fraction, ...], ...]  # rows: propositions, cols: allocators
    normalization: tuple[Fraction, ...]
    uncertainty: tuple[Fraction, ...]
    precision: int = 2

    def allocator_labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.allocators)

    def to_document(self) -> dict:
        labels = self.allocator_labels()
        precision = self.precision
        return {
            "justification": self.justification.kind.value,
            "allocators": list(labels),
            "rows": [
                {
                    "proposition": list(p.members()),
                    "beliefs": {
                        label: value_cell(self.beliefs[r][c], precision)
                        for c, label in enumerate(labels)
                    },
                }
                for r, p in enumerate(self.propositions)
            ],
            "uncertainty": {
                label: value_cell(self.uncertainty[c], precision)
                for c, label in enumerate(labels)
            },
            "normalization": {
                label: value_cell(self.normalization[c], precision)
                for c, label in enumerate(labels)
            },
        }


def belief_report(
    frame: QuantitativeEvidenceFrame,
    allocators: Sequence[Allocator],
    justification: JustificationFrame,
    propositions: Sequence[StateSet],
    precision: int = 2,
) -> BeliefReport:
    """Evaluate every (proposition, allocator) cell once, exactly, from one
    justified column per allocator."""
    for p in propositions:
        if p.universe != frame.universe:
            raise FrameMismatch("proposition lives in a different universe")
    columns = [_column(frame, a, justification) for a in allocators]
    full = frame.universe.full_bits
    rows = [tuple(Fraction(c.inside(p.bits), c.captured) for c in columns)
            for p in propositions]
    return BeliefReport(
        frame=frame,
        justification=justification,
        allocators=tuple(allocators),
        propositions=tuple(propositions),
        beliefs=tuple(rows),
        normalization=tuple(Fraction(c.captured, c.den) for c in columns),
        uncertainty=tuple(Fraction(c.at(full), c.captured) for c in columns),
        precision=precision,
    )
