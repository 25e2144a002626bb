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

Cost: the intersection, union and Yager aggregations fold the items in one
at a time over a table keyed by the running intersection or union, so they
take O(m x distinct images) for m items. The min-dense allocator, custom
tables, and the per-subset listings (``mass_table``, ``allocate`` over every
subset, ``validate_allocators``) enumerate all 2^m evidence subsets. Every
path rejects arities above ``MAX_ENUM_ITEMS`` up front with
``CapacityExceeded`` rather than silently hanging.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

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


def _check_capacity(
    frame: QuantitativeEvidenceFrame, allocator: Allocator | None = None
) -> None:
    """Reject more than ``MAX_ENUM_ITEMS`` items. Only the paths that
    enumerate every evidence subset (``d``, custom tables, and the per-subset
    listings, which pass no allocator) are told they need 2^m evaluations."""
    m = frame.arity
    if m <= MAX_ENUM_ITEMS:
        return
    if allocator is None or allocator.kind in (AllocatorKind.MIN_DENSE,
                                               AllocatorKind.CUSTOM):
        raise CapacityExceeded(
            f"{m} evidence items need 2^{m} subset evaluations; "
            f"the cap is {MAX_ENUM_ITEMS} items"
        )
    raise CapacityExceeded(f"{m} evidence items exceed the cap of {MAX_ENUM_ITEMS} items")


# -- quantitative layer -------------------------------------------------------

def evidence_mass(frame: QuantitativeEvidenceFrame, subset: EvidenceSubset) -> Fraction:
    """Merged certainty of exactly this combination of evidence items.

    The product of the certainties of the included items and the complements
    of the excluded ones; over all subsets these values form a mass function.
    """
    check_same_frame(frame, subset)
    value = Fraction(1)
    for i, item in enumerate(frame.items):
        value *= item.certainty if subset.mask >> i & 1 else 1 - item.certainty
    return value


def _common_denominator(frame: QuantitativeEvidenceFrame) -> int:
    """The product of all certainty denominators: every merged mass is an
    integer numerator over it."""
    denominator = 1
    for item in frame.items:
        denominator *= item.certainty.denominator
    return denominator


@lru_cache(maxsize=64)
def _half_tables(frame: QuantitativeEvidenceFrame):
    """Meet-in-the-middle tables of (mass numerator, intersection).

    Masses are integer numerators over the common denominator (the product of
    all certainty denominators), which keeps the hot loop in machine-int land.
    """
    items = frame.items
    half = len(items) // 2
    full = frame.universe.full_bits

    def build(indices):
        arr = [(1, full)]
        for i in indices:
            num = items[i].certainty.numerator
            den = items[i].certainty.denominator
            content = items[i].content.bits
            arr = [(n * (den - num), it) for (n, it) in arr] + [
                (n * num, it & content) for (n, it) in arr
            ]
        return arr

    return (build(range(half)), build(range(half, len(items))), half,
            _common_denominator(frame))


def mass_table(frame: QuantitativeEvidenceFrame) -> list[tuple[EvidenceSubset, Fraction]]:
    """All 2^m merged masses, in canonical subset order (size, then index mask)."""
    _check_capacity(frame)
    lo, hi, half, den = _half_tables(frame)
    lomask = (1 << half) - 1
    order = sorted(range(1 << frame.arity), key=lambda k: (k.bit_count(), k))
    return [
        (EvidenceSubset(frame, k), Fraction(lo[k & lomask][0] * hi[k >> half][0], den))
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


def _min_dense_bits(sigpairs, mask: int) -> int:
    """min-dense image for a conflicted family: states whose evidence-membership
    signature (restricted to the family) is maximal."""
    groups: dict[int, int] = {}
    for point, sig in sigpairs:
        restricted = sig & mask
        if restricted:
            groups[restricted] = groups.get(restricted, 0) | point
    out = 0
    for sig, points in groups.items():
        if not any(sig != other and sig & other == sig for other in groups):
            out |= points
    return out


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
    if allocator.kind is AllocatorKind.INTERSECTION:
        bits = universe.full_bits
        for c in contents:
            bits &= c.bits
        return StateSet(universe, bits)
    if allocator.kind is AllocatorKind.UNION:
        bits = 0
        for c in contents:
            bits |= c.bits
        return StateSet(universe, bits)
    if allocator.kind is AllocatorKind.YAGER:
        bits = universe.full_bits
        for c in contents:
            bits &= c.bits
        return StateSet(universe, bits) if bits else universe.full_set()
    return min_dense(contents)


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


@lru_cache(maxsize=256)
def _image_numerators(frame: QuantitativeEvidenceFrame, allocator: Allocator):
    """Mass numerators gathered by each image, over the common denominator.

    Returns ``(acc, den)`` with ``acc`` mapping image bits to numerators; an
    image appears iff some evidence subset maps to it, even at zero mass.
    Intersection and union fold the items in; Yager is the intersection table
    with the mass on the empty set moved to S. Min-dense and custom tables
    enumerate all 2^m subsets over the meet-in-the-middle half tables.
    """
    _check_capacity(frame, allocator)
    kind = allocator.kind
    if kind is AllocatorKind.YAGER:
        acc, den = _image_numerators(frame, INTERSECTION)
        acc = dict(acc)
        if 0 in acc:
            acc[frame.universe.full_bits] += acc.pop(0)
        return acc, den
    if kind is AllocatorKind.INTERSECTION or kind is AllocatorKind.UNION:
        return (_fold_numerators(frame, kind is AllocatorKind.UNION),
                _common_denominator(frame))
    lo, hi, half, den = _half_tables(frame)
    lomask = (1 << half) - 1
    sigpairs = frame.point_signatures
    table = allocator.table
    acc: dict[int, int] = {}
    for mask in range(1 << frame.arity):
        numl, il = lo[mask & lomask]
        numh, ih = hi[mask >> half]
        num = numl * numh
        if kind is AllocatorKind.MIN_DENSE:
            image = (il & ih) or _min_dense_bits(sigpairs, mask)
        else:
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


def allocated_mass(
    frame: QuantitativeEvidenceFrame, allocator: Allocator, target: StateSet
) -> Fraction:
    """Total merged mass of the subsets the allocator sends to ``target``;
    zero for sets outside the evidential topology."""
    if target.universe != frame.universe:
        raise FrameMismatch("target set lives in a different universe")
    if not frame.is_open(target):
        return Fraction(0)
    acc, den = _image_numerators(frame, allocator)
    return Fraction(acc.get(target.bits, 0), den)


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
    validated list. Membership tests never materialise the topology.
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
        """``_justified_column`` results over ``self.frame``, by allocator."""
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
        """Explicit member list; materialises the topology for ds/sd kinds."""
        if self.kind is JustificationKind.CUSTOM:
            return self.custom_members
        topo = generate_topology(self.frame.universe, self.frame.contents())
        if self.kind is JustificationKind.DS:
            return topo.nonempty_opens()
        return tuple(o for o in topo.nonempty_opens() if self.frame.is_dense(o))


def justification_frame(
    frame: QuantitativeEvidenceFrame,
    kind: str | JustificationKind,
    members: Iterable[StateSet] | None = None,
) -> JustificationFrame:
    """Build a justification frame; custom member lists are validated against
    the evidential topology and must contain S and exclude the empty set."""
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

def _justified_column(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
) -> tuple[dict[int, int], int]:
    """``(kept, captured)``: the image numerators of the frame members, and
    their total, the captured mass over the common denominator.

    Every builtin image is open in the evidential topology (allocation law 2),
    so under ``ds`` and ``sd`` a builtin column over the justification frame's
    own evidence frame skips the openness test: ``ds`` keeps the non-empty
    images and ``sd`` the dense ones. Custom allocators, custom frames and
    columns over any other evidence frame test membership with
    ``JustificationFrame.contains_bits``.

    The captured mass is strictly positive for every valid frame: the full
    space always belongs, and it gathers at least the all-items-uncertain
    product, which is positive because certainties are strictly below 1.
    Columns are kept on the justification frame when ``frame`` is its own.
    """
    own = frame is justification.frame
    columns = justification._columns if own else {}
    column = columns.get(allocator)
    if column is None:
        acc, _ = _image_numerators(frame, allocator)
        if (not own or allocator.kind is AllocatorKind.CUSTOM
                or justification.kind is JustificationKind.CUSTOM):
            keep = justification.contains_bits
        elif justification.kind is JustificationKind.DS:
            keep = bool  # builtin images are open: keep the non-empty ones
        else:
            keep = frame.dense_bits
        kept = {bits: num for bits, num in acc.items() if keep(bits)}
        captured = sum(kept.values())
        if captured == 0:
            raise TopobeliefError(
                "justification frame captures no mass; belief is undefined"
            )
        column = columns[allocator] = (kept, captured)
    return column


def normalization_factor(
    frame: QuantitativeEvidenceFrame,
    allocator: Allocator,
    justification: JustificationFrame,
) -> Fraction:
    """Mass captured by the justification frame; the divisor of the bpa."""
    _, captured = _justified_column(frame, allocator, justification)
    _, den = _image_numerators(frame, allocator)
    return Fraction(captured, den)


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
    kept, captured = _justified_column(frame, allocator, justification)
    return Fraction(kept.get(target.bits, 0), captured)


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
    kept, captured = _justified_column(frame, allocator, justification)
    return Fraction(_numerator_inside(kept, proposition.bits), captured)


def _numerator_inside(kept: dict[int, int], proposition_bits: int) -> int:
    """Total numerator of the kept images that lie inside the proposition."""
    outside = ~proposition_bits
    return sum(num for bits, num in kept.items() if not bits & outside)


# -- allocation-law validation -------------------------------------------------

def validate_allocators(
    frame: QuantitativeEvidenceFrame, allocators: Sequence[Allocator]
) -> list[Violation]:
    """Check the allocation laws over every evidence subset.

    (1) the empty subset maps to S; (2) each image belongs to the topology
    generated by the subset alone and is either empty or dense w.r.t. it;
    (3) any two allocators' images at the same subset are nested one way or
    the other. Violations carry the witness subset.
    """
    _check_capacity(frame)
    report: list[Violation] = []
    universe = frame.universe
    full = universe.full_bits
    size = universe.size
    contents = [item.content.bits for item in frame.items]
    for mask in range(1 << frame.arity):
        subset = EvidenceSubset(frame, mask)
        witness = list(subset.members())
        images = [(a, allocate(frame, a, subset)) for a in allocators]
        if mask == 0:
            for a, img in images:
                if not img.is_full():
                    report.append(
                        Violation(
                            "EmptyFamilyImage",
                            f"allocator {a.label!r} maps the empty evidence "
                            f"subset to {img!r}, not the full space",
                            {"allocator": a.label, "evidence": witness,
                             "image": list(img.members())},
                        )
                    )
        else:
            # minimal neighborhoods of the topology generated by this subset only
            nbhd = []
            for k in range(size):
                nb = full
                for i in range(frame.arity):
                    if mask >> i & 1 and contents[i] >> k & 1:
                        nb &= contents[i]
                nbhd.append(nb)
            for a, img in images:
                bits = img.bits
                open_here = all(
                    not (bits >> k & 1) or nbhd[k] & ~bits == 0 for k in range(size)
                )
                if not open_here:
                    report.append(
                        Violation(
                            "ImageNotOpen",
                            f"allocator {a.label!r} image {img!r} is outside the "
                            "topology generated by the evidence subset",
                            {"allocator": a.label, "evidence": witness,
                             "image": list(img.members())},
                        )
                    )
                elif bits and not all(nbhd[k] & bits for k in range(size)):
                    report.append(
                        Violation(
                            "ImageNotDense",
                            f"allocator {a.label!r} image {img!r} is neither empty "
                            "nor dense for the evidence subset",
                            {"allocator": a.label, "evidence": witness,
                             "image": list(img.members())},
                        )
                    )
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
    """Evaluate every (proposition, allocator) cell once, exactly."""
    for p in propositions:
        if p.universe != frame.universe:
            raise FrameMismatch("proposition lives in a different universe")
    full = frame.universe.full_bits
    norm: list[Fraction] = []
    unc: list[Fraction] = []
    columns: list[tuple[dict[int, int], int]] = []
    for a in allocators:
        kept, captured = _justified_column(frame, a, justification)
        _, den = _image_numerators(frame, a)
        norm.append(Fraction(captured, den))
        unc.append(Fraction(kept.get(full, 0), captured))
        columns.append((kept, captured))
    rows = [
        tuple(Fraction(_numerator_inside(kept, p.bits), captured)
              for kept, captured in columns)
        for p in propositions
    ]
    return BeliefReport(
        frame=frame,
        justification=justification,
        allocators=tuple(allocators),
        propositions=tuple(propositions),
        beliefs=tuple(rows),
        normalization=tuple(norm),
        uncertainty=tuple(unc),
        precision=precision,
    )
