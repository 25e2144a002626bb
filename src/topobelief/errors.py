"""Exception taxonomy and the violation record used by non-throwing validators."""

from __future__ import annotations

from dataclasses import dataclass, field


class TopobeliefError(Exception):
    """Base class for all errors raised by this package."""


# -- state universes and sets ------------------------------------------------

class EmptyUniverse(TopobeliefError):
    pass


class TooManyStates(TopobeliefError):
    pass


class DuplicateLabel(TopobeliefError):
    pass


class UnknownState(TopobeliefError):
    pass


class UniverseMismatch(TopobeliefError):
    pass


# -- evidence frames ---------------------------------------------------------

class MalformedDocument(TopobeliefError):
    pass


class CertaintyOutOfRange(TopobeliefError):
    pass


class EmptyEvidence(TopobeliefError):
    pass


class FullSetEvidence(TopobeliefError):
    pass


class DuplicateName(TopobeliefError):
    pass


class FrameMismatch(TopobeliefError):
    pass


class UnknownEvidence(TopobeliefError):
    pass


class EmptyEvidenceList(TopobeliefError):
    pass


class IndexOutOfRange(TopobeliefError):
    pass


# -- fusion pipeline ---------------------------------------------------------

class CustomFrameNotOpen(TopobeliefError):
    pass


class CustomFrameMissingTotalSet(TopobeliefError):
    pass


class CustomFrameContainsEmpty(TopobeliefError):
    pass


class CapacityExceeded(TopobeliefError):
    pass


class TotalConflict(TopobeliefError):
    pass


@dataclass(frozen=True)
class Violation:
    """One violated invariant found by a validator that reports instead of raising.

    ``code`` is the name of the matching exception class, so callers can map
    a report entry back to the error they would have gotten from a throwing
    constructor.
    """

    code: str
    message: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"
