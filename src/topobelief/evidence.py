"""Evidence frames: named evidence sets with exact certainties, plus JSON I/O.

Frame documents look like::

    { "states": ["sp","dp","do","so","dm","sm"],
      "evidence": [ {"name":"E1","states":["dp","dm","do"],"certainty":"0.9"},
                    {"name":"E2","states":["dm","sm"],"certainty":"0.75"},
                    {"name":"E3","states":["dp","sp"],"certainty":"0.45"} ] }

All keys are required and unknown keys are rejected. Certainties are strings,
either decimal ("0.45") or ratio ("9/20"), so parsing is always exact; the
serializer emits the decimal form whenever one exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .core import StateSet, StateUniverse, format_rational, make_universe, parse_rational
from .errors import (
    CertaintyOutOfRange,
    DuplicateName,
    EmptyEvidence,
    FrameMismatch,
    FullSetEvidence,
    MalformedDocument,
    UniverseMismatch,
    UnknownEvidence,
    Violation,
)
from .topology import minimal_open_neighborhoods, signature_atoms


@dataclass(frozen=True)
class EvidenceItem:
    name: str
    content: StateSet
    certainty: Fraction


@dataclass(frozen=True)
class QuantitativeEvidenceFrame:
    """A universe plus an ordered list of (name, content, certainty) items.

    Construction only checks structural coherence (contents live in the
    universe); the semantic constraints are the business of
    ``validate_frame``, which reports violations instead of raising so that
    deliberately broken frames can be inspected.
    """

    universe: StateUniverse
    items: tuple[EvidenceItem, ...]

    def __post_init__(self) -> None:
        for item in self.items:
            if item.content.universe != self.universe:
                raise UniverseMismatch(
                    f"evidence {item.name!r} lives in a different universe"
                )

    @property
    def arity(self) -> int:
        return len(self.items)

    def contents(self) -> tuple[StateSet, ...]:
        return tuple(item.content for item in self.items)

    def names(self) -> tuple[str, ...]:
        return tuple(item.name for item in self.items)

    def index_of(self, name: str) -> int:
        for i, item in enumerate(self.items):
            if item.name == name:
                return i
        raise UnknownEvidence(f"no evidence named {name!r}")

    def subset(self, names: Iterable[str]) -> "EvidenceSubset":
        mask = 0
        for name in names:
            mask |= 1 << self.index_of(name)
        return EvidenceSubset(self, mask)

    @cached_property
    def neighborhoods(self) -> tuple[StateSet, ...]:
        """Minimal open neighborhood of each state in the generated topology."""
        return minimal_open_neighborhoods(self.universe, self.contents())

    @cached_property
    def point_signatures(self) -> tuple[tuple[int, int], ...]:
        """The atoms as ``(states, sig)``: the bits of the states whose
        evidence-membership mask is ``sig``, one pair per distinct mask in the
        order of its first state. Uncovered states form the atom of mask 0,
        so the atoms partition the universe."""
        return tuple(
            (states, sig)
            for sig, states in signature_atoms(self.universe, self.contents()).items()
        )

    @cached_property
    def neighborhood_bits(self) -> tuple[int, ...]:
        """``neighborhoods`` as raw bits, indexed by state."""
        return tuple(nb.bits for nb in self.neighborhoods)

    @cached_property
    def minimal_neighborhood_bits(self) -> tuple[int, ...]:
        """The inclusion-minimal distinct neighborhoods, ascending. A set meets
        every neighborhood iff it meets each of these."""
        distinct = set(self.neighborhood_bits)
        return tuple(sorted(
            nb for nb in distinct
            if not any(other != nb and other & ~nb == 0 for other in distinct)
        ))

    def open_bits(self, bits: int) -> bool:
        """Openness of a raw bit set: it holds the neighborhood of each of its
        states. Only the set bits are visited."""
        nbs = self.neighborhood_bits
        rest = bits
        while rest:
            low = rest & -rest
            if nbs[low.bit_length() - 1] & ~bits:
                return False
            rest ^= low
        return True

    def dense_bits(self, bits: int) -> bool:
        """Denseness of a raw bit set: it meets every minimal neighborhood."""
        for nb in self.minimal_neighborhood_bits:
            if not nb & bits:
                return False
        return True

    def is_open(self, s: StateSet) -> bool:
        """Membership in the evidential topology, without materialising it."""
        if s.universe != self.universe:
            raise UniverseMismatch("set lives in a different universe")
        return self.open_bits(s.bits)


@dataclass(frozen=True)
class EvidenceSubset:
    """A subset of a frame's evidence items, as an index bit vector."""

    frame: QuantitativeEvidenceFrame
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.frame.arity):
            raise ValueError(f"mask {self.mask:#x} outside frame arity {self.frame.arity}")

    def members(self) -> tuple[str, ...]:
        return tuple(
            item.name for i, item in enumerate(self.frame.items) if self.mask >> i & 1
        )

    def contents(self) -> tuple[StateSet, ...]:
        return tuple(
            item.content for i, item in enumerate(self.frame.items) if self.mask >> i & 1
        )

    def is_empty(self) -> bool:
        return self.mask == 0

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


def check_same_frame(frame: QuantitativeEvidenceFrame, subset: EvidenceSubset) -> None:
    if subset.frame != frame:
        raise FrameMismatch("evidence subset belongs to a different frame")


def validate_frame(frame: QuantitativeEvidenceFrame) -> list[Violation]:
    """Every violated frame invariant; an empty report means the frame is valid."""
    report: list[Violation] = []
    if not frame.items:
        report.append(Violation("EmptyEvidence", "frame holds no evidence items"))
    seen: set[str] = set()
    for item in frame.items:
        if item.name in seen:
            report.append(
                Violation("DuplicateName", f"evidence name {item.name!r} repeats",
                          {"name": item.name})
            )
        seen.add(item.name)
        if item.content.is_empty():
            report.append(
                Violation("EmptyEvidence", f"evidence {item.name!r} has empty content",
                          {"name": item.name})
            )
        if item.content.is_full():
            report.append(
                Violation("FullSetEvidence",
                          f"evidence {item.name!r} equals the whole state space",
                          {"name": item.name})
            )
        if not 0 < item.certainty < 1:
            report.append(
                Violation("CertaintyOutOfRange",
                          f"certainty of {item.name!r} is {item.certainty}, "
                          "needs 0 < p < 1",
                          {"name": item.name, "certainty": str(item.certainty)})
            )
    return report


_ERROR_BY_CODE = {
    "EmptyEvidence": EmptyEvidence,
    "FullSetEvidence": FullSetEvidence,
    "DuplicateName": DuplicateName,
    "CertaintyOutOfRange": CertaintyOutOfRange,
}


# a certainty in (0, 1) with at most 100 denominator digits is written in at most 334
# characters, and 24 such denominators multiply to under CPython's 4,300-digit limit
MAX_CERTAINTY_DIGITS = 100
_MAX_CERTAINTY_CHARS = 400


def require_keys(obj, keys: set[str], where: str) -> dict:
    """``obj`` if it is an object with exactly ``keys``; else ``MalformedDocument``."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where} must be an object")
    missing = keys - obj.keys()
    extra = obj.keys() - keys
    if missing:
        raise MalformedDocument(f"{where} misses keys {sorted(missing)}")
    if extra:
        raise MalformedDocument(f"{where} has unknown keys {sorted(extra)}")
    return obj


def require_list(value, where: str, names: bool = False) -> list:
    """``value`` if it is a list, of strings when ``names``; else ``MalformedDocument``."""
    if not isinstance(value, list) or names and not all(isinstance(v, str) for v in value):
        raise MalformedDocument(f"{where} must be a list{' of strings' if names else ''}")
    return value


def parse_frame(document: str) -> QuantitativeEvidenceFrame:
    """Parse and fully validate a frame document; raises on the first defect."""
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    require_keys(obj, {"states", "evidence"}, "frame document")
    universe = make_universe(require_list(obj["states"], '"states"', names=True))
    raw_items = require_list(obj["evidence"], '"evidence"')
    if not raw_items:
        raise EmptyEvidence("frame holds no evidence items")
    items = []
    for raw in raw_items:
        require_keys(raw, {"name", "states", "certainty"}, "evidence item")
        name, text = raw["name"], raw["certainty"]
        if not isinstance(name, str) or not name:
            raise MalformedDocument("evidence name must be a non-empty string")
        states = require_list(raw["states"], 'evidence "states"', names=True)
        if not isinstance(text, str):
            raise MalformedDocument(
                "certainty must be a string (decimal or n/d) so parsing stays exact"
            )
        content = universe.subset(states)
        try:
            certainty = parse_rational(text) if len(text) <= _MAX_CERTAINTY_CHARS else None
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from None
        if certainty is None or certainty.denominator >= 10**MAX_CERTAINTY_DIGITS:
            raise MalformedDocument(
                f"certainty of {name!r} exceeds {MAX_CERTAINTY_DIGITS} digits in its "
                f"reduced denominator or {_MAX_CERTAINTY_CHARS} characters"
            )
        items.append(EvidenceItem(name, content, certainty))
    frame = QuantitativeEvidenceFrame(universe, tuple(items))
    for violation in validate_frame(frame):
        raise _ERROR_BY_CODE[violation.code](violation.message)
    return frame


def frame_to_document(frame: QuantitativeEvidenceFrame) -> dict:
    return {
        "states": list(frame.universe.labels),
        "evidence": [
            {
                "name": item.name,
                "states": list(item.content.members()),
                "certainty": format_rational(item.certainty),
            }
            for item in frame.items
        ],
    }


def serialize_frame(frame: QuantitativeEvidenceFrame) -> str:
    """Canonical JSON form; ``parse_frame`` inverts it exactly."""
    return json.dumps(frame_to_document(frame), indent=2) + "\n"


def load_frame(path) -> QuantitativeEvidenceFrame:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedDocument(f"cannot read frame file: {exc}") from None
    return parse_frame(text)
