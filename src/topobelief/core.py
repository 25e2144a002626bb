"""Finite state universes, bit-vector state sets, and exact rational helpers.

Every quantity in the pipeline is an exact ``fractions.Fraction``; decimal
rendering happens only at output boundaries, with half-up rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DuplicateLabel,
    EmptyUniverse,
    TooManyStates,
    UniverseMismatch,
    UnknownState,
)

MAX_STATES = 64

_DECIMAL_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")
_RATIO_RE = re.compile(r"^([0-9]+)/([1-9][0-9]*)$")


@dataclass(frozen=True)
class StateUniverse:
    """An ordered, fixed set of state names; the order defines bit positions."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise EmptyUniverse("a universe needs at least one state")
        if len(self.labels) > MAX_STATES:
            raise TooManyStates(
                f"{len(self.labels)} states exceed the {MAX_STATES}-state capacity"
            )
        seen = set()
        for label in self.labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"state labels must be non-empty strings, got {label!r}")
            if label in seen:
                raise DuplicateLabel(f"duplicate state label {label!r}")
            seen.add(label)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_bits(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownState(f"unknown state {label!r}") from None

    def subset(self, names: Iterable[str]) -> "StateSet":
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return StateSet(self, bits)

    def full_set(self) -> "StateSet":
        return StateSet(self, self.full_bits)

    def __repr__(self) -> str:
        return f"StateUniverse({','.join(self.labels)})"


@dataclass(frozen=True)
class StateSet:
    """A subset of a universe, encoded as one machine word of membership bits."""

    universe: StateUniverse
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.universe.full_bits:
            raise ValueError(f"bits {self.bits:#x} outside universe of size {self.universe.size}")

    def members(self) -> tuple[str, ...]:
        return tuple(
            label for k, label in enumerate(self.universe.labels) if self.bits >> k & 1
        )

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def is_empty(self) -> bool:
        return self.bits == 0

    def is_full(self) -> bool:
        return self.bits == self.universe.full_bits

    def issubset(self, other: "StateSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.universe, self.bits & other.bits)

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.universe, self.bits | other.bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.universe, self.bits & ~other.bits)

    def __contains__(self, label: str) -> bool:
        return self.bits >> self.universe.index(label) & 1 == 1

    def __iter__(self):
        return iter(self.members())

    def _check(self, other: "StateSet") -> None:
        if self.universe != other.universe:
            raise UniverseMismatch("state sets live in different universes")

    def __repr__(self) -> str:
        return "{" + ",".join(self.members()) + "}"


def make_universe(labels: Sequence[str]) -> StateUniverse:
    """Build a universe from distinct state names; order fixes bit positions."""
    return StateUniverse(tuple(labels))


def canonical_key(s: StateSet) -> tuple[int, int]:
    """Sort key giving the canonical set order: cardinality, then bit value."""
    return (s.bits.bit_count(), s.bits)


def parse_rational(text: str) -> Fraction:
    """Parse ``"0.45"`` or ``"9/20"`` into an exact rational.

    Decimal strings are parsed exactly (0.45 becomes 9/20, never a binary
    float); the ``n/d`` form covers rationals with no finite decimal form.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational as a string, got {type(text).__name__}")
    m = _RATIO_RE.match(text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2)))
    if _DECIMAL_RE.match(text):
        return Fraction(text)
    raise ValueError(f"not a decimal or n/d rational: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render exactly: a finite decimal when one exists, otherwise ``n/d``."""
    den = value.denominator
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    places = max(two, five)
    if places == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**places // value.denominator
    digits = str(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def render_decimal(value: Fraction, places: int = 2) -> str:
    """Round half-up to a fixed number of decimal places, exactly."""
    if value < 0:
        raise ValueError("negative values cannot appear in this pipeline")
    n, d = value.numerator, value.denominator
    scaled = (2 * n * 10**places + d) // (2 * d)
    if places == 0:
        return str(scaled)
    digits = str(scaled).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"
