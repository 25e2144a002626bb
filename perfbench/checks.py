"""Output checks, run after each request and outside its timed interval.

A belief report must ask for exactly what the request asked, keep every cell
and uncertainty in [0, 1] and every normalisation factor in (0, 1], and agree
with the two oracles that ship with the package: the ``i`` column under
``ds`` equals Dempster combination of the simple support functions, and a
``d`` cell under ``sd`` is positive exactly where qualitative belief holds.
A ``verify`` run must exit 0 (every check PASS) and list every check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from topobelief.dst import belief_from_bpa, combine_evidence, topological_belief
from topobelief.evidence import parse_frame

VERIFY_CHECKS = (
    "mass_axioms:merged",
    "allocation_definition",
    *(
        f"{kind}_axioms:{alloc},{frame}"
        for alloc in ("i", "u", "d")
        for frame in ("ds", "sd")
        for kind in ("bpa", "belief")
    ),
    "drc_equivalence",
    "topological_equivalence",
    "minimum_dense_open",
)


@dataclass
class Report:
    """A belief report read back from either output format."""

    justification: str
    allocators: tuple[str, ...]
    propositions: tuple[tuple[str, ...], ...]
    beliefs: list[list[Fraction]]  # rows: propositions, columns: allocators
    uncertainty: list[Fraction]
    normalization: list[Fraction]


def _cell(cell: dict) -> Fraction:
    return Fraction(cell["num"], cell["den"])


def read_json_report(text: str) -> Report:
    doc = json.loads(text)
    labels = tuple(doc["allocators"])
    return Report(
        doc["justification"],
        labels,
        tuple(tuple(row["proposition"]) for row in doc["rows"]),
        [[_cell(row["beliefs"][a]) for a in labels] for row in doc["rows"]],
        [_cell(doc["uncertainty"][a]) for a in labels],
        [_cell(doc["normalization"][a]) for a in labels],
    )


def read_table_report(text: str) -> Report:
    """Read the fixed-width table printed with ``--exact``."""
    lines = text.splitlines()
    head = "justification: "
    if not lines or not lines[0].startswith(head):
        raise ValueError("missing justification line")
    header = lines[1].split()
    if header[0] != "proposition":
        raise ValueError("missing header row")
    rows = [line.split() for line in lines[2:]]
    if len(rows) < 2 or rows[-2][0] != "Uncertainty" or rows[-1][0] != "N.f.":
        raise ValueError("missing Uncertainty or N.f. row")
    width = len(header)
    if any(len(r) != width for r in rows):
        raise ValueError("ragged table")
    props = []
    for r in rows[:-2]:
        label = r[0]
        if not (label.startswith("{") and label.endswith("}")):
            raise ValueError(f"bad proposition label {label!r}")
        props.append(tuple(n for n in label[1:-1].split(",") if n))
    return Report(
        lines[0][len(head):],
        tuple(header[1:]),
        tuple(props),
        [[Fraction(v) for v in r[1:]] for r in rows[:-2]],
        [Fraction(v) for v in rows[-2][1:]],
        [Fraction(v) for v in rows[-1][1:]],
    )


def check_report(req, report: Report) -> str | None:
    if report.justification != req.justification:
        return f"justification {report.justification!r}, asked {req.justification!r}"
    if report.allocators != req.allocators:
        return f"allocators {report.allocators}, asked {req.allocators}"
    if report.propositions != req.propositions:
        return "propositions differ from the request"
    for r, row in enumerate(report.beliefs):
        for c, value in enumerate(row):
            if not 0 <= value <= 1:
                return f"belief {value} outside [0, 1] (row {r}, {report.allocators[c]})"
    for c, label in enumerate(report.allocators):
        if not 0 <= report.uncertainty[c] <= 1:
            return f"uncertainty {report.uncertainty[c]} outside [0, 1] ({label})"
        if not 0 < report.normalization[c] <= 1:
            return f"N.f. {report.normalization[c]} outside (0, 1] ({label})"

    frame = parse_frame(req.frame_text)
    props = [frame.universe.subset(p) for p in report.propositions]
    if req.justification == "ds" and "i" in report.allocators:
        col = report.allocators.index("i")
        combined = combine_evidence(frame)
        for r, p in enumerate(props):
            expected = belief_from_bpa(combined, p)
            if report.beliefs[r][col] != expected:
                return (f"i,ds belief {report.beliefs[r][col]} != Dempster "
                        f"{expected} (row {r})")
    if req.justification == "sd" and "d" in report.allocators:
        col = report.allocators.index("d")
        for r, p in enumerate(props):
            if (report.beliefs[r][col] > 0) != topological_belief(frame, p):
                return f"d,sd belief {report.beliefs[r][col]} disagrees with " \
                       f"qualitative belief (row {r})"
    return None


def check_verify(text: str) -> str | None:
    outcomes = json.loads(text)
    names = tuple(o["check"] for o in outcomes)
    if names != VERIFY_CHECKS:
        return f"verify listed {names}"
    total = outcomes[0]["detail"].get("total")
    if total != "1":
        return f"merged masses total {total}"
    return None


def check(req, exit_code, stdout: str) -> str | None:
    """None when the request's output is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if req.command == "verify":
            return check_verify(stdout)
        reader = read_json_report if req.output == "json" else read_table_report
        return check_report(req, reader(stdout))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
