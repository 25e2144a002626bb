"""Command-line interface.

Subcommands mirror the pipeline stages: ``topology`` lists the evidential
topology with denseness flags, ``mass`` prints the merged masses over
evidence subsets, ``allocate`` the allocation matrix, ``believe`` the belief
report, ``verify`` runs every checker on a frame, and ``demo`` writes the
bundled scenario with both reports.

Exit codes: 0 success, 1 usage error, 2 frame or input validation error,
3 capacity exceeded, 4 verification failure. Diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import StateSet, render_decimal
from .demo import car_frame, car_reports
from .errors import CapacityExceeded, MalformedDocument, TopobeliefError
from .evidence import (QuantitativeEvidenceFrame, load_frame, require_keys, require_list,
                       serialize_frame)
from .fusion import (
    Allocator,
    BUILTIN_ALLOCATORS,
    allocate,
    belief_report,
    custom_allocator,
    justification_frame,
    mass_table,
    value_cell,
)
from .topology import generate_topology
from .verify import run_all_checks

_JSON_KW = {"indent": 2, "ensure_ascii": True}


class UsageError(Exception):
    pass


def _label(s) -> str:
    """``{a,b}`` for a state set or an evidence subset."""
    return "{" + ",".join(s.members()) + "}"


def _value_text(value: Fraction, precision: int, exact: bool) -> str:
    return str(value) if exact else render_decimal(value, precision)


def _format_table(rows: list[list[str]], right: set[int]) -> str:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [
            cell.rjust(widths[c]) if c in right else cell.ljust(widths[c])
            for c, cell in enumerate(r)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _parse_allocators(spec: str, frame: QuantitativeEvidenceFrame) -> list[Allocator]:
    out: list[Allocator] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in BUILTIN_ALLOCATORS:
            allocator = BUILTIN_ALLOCATORS[token]
        elif token.startswith("custom:"):
            allocator = _load_allocator_table(token[len("custom:"):], frame)
        else:
            raise UsageError(
                f"unknown allocator {token!r}; use i, u, d, yager or custom:<path>"
            )
        # reports key their JSON cells by label, so a repeated label loses a column
        if any(a.label == allocator.label for a in out):
            raise UsageError(f"allocator {allocator.label!r} is listed twice")
        out.append(allocator)
    if not out:
        raise UsageError("allocator list is empty")
    return out


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedDocument(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"{what} is not valid JSON: {exc}") from None


def _load_allocator_table(path: str, frame: QuantitativeEvidenceFrame) -> Allocator:
    obj = require_keys(_read_json(path, "allocator table"), {"map"}, "allocator table")
    mapping = {}
    for entry in require_list(obj["map"], 'allocator table "map"'):
        require_keys(entry, {"evidence", "image"}, "allocator table entry")
        evidence = require_list(entry["evidence"], 'entry "evidence"', names=True)
        subset = frame.subset(evidence)
        image = frame.universe.subset(require_list(entry["image"], 'entry "image"', names=True))
        if subset in mapping:
            raise MalformedDocument(f"allocator table lists evidence subset {evidence} twice")
        mapping[subset] = image
    return custom_allocator(frame, mapping)


def _parse_justification(selector: str, frame: QuantitativeEvidenceFrame):
    if selector in ("ds", "sd"):
        return justification_frame(frame, selector)
    if selector.startswith("custom:"):
        path = selector[len("custom:"):]
        obj = require_keys(_read_json(path, "justification frame"), {"opens"},
                           "justification frame")
        members = [frame.universe.subset(require_list(names, "an open", names=True))
                   for names in require_list(obj["opens"], 'justification frame "opens"')]
        return justification_frame(frame, "custom", members)
    raise UsageError(
        f"unknown justification {selector!r}; use ds, sd or custom:<path>"
    )


def _parse_propositions(spec: str, frame: QuantitativeEvidenceFrame) -> list[StateSet]:
    out = []
    for segment in spec.split(";"):
        names = [n.strip() for n in segment.split(",") if n.strip()]
        if names:
            out.append(frame.universe.subset(names))
    return out


# -- subcommands ----------------------------------------------------------------

def cmd_topology(args) -> int:
    frame = load_frame(args.frame)
    topo = generate_topology(frame.universe, frame.contents())
    if args.output == "json":
        doc = {
            "states": list(frame.universe.labels),
            "opens": [
                {"states": list(o.members()), "dense": frame.dense_bits(o.bits)}
                for o in topo.opens
            ],
        }
        print(json.dumps(doc, **_JSON_KW))
        return 0
    rows = [["open", "dense"]]
    for o in topo.opens:
        rows.append([_label(o), "yes" if frame.dense_bits(o.bits) else "no"])
    sys.stdout.write(_format_table(rows, right=set()))
    return 0


def cmd_mass(args) -> int:
    frame = load_frame(args.frame)
    table = mass_table(frame)
    if args.output == "json":
        doc = {
            "rows": [
                {"evidence": list(subset.members()),
                 "mass": value_cell(value, args.precision)}
                for subset, value in table
            ]
        }
        print(json.dumps(doc, **_JSON_KW))
        return 0
    rows = [["evidence", "mass"]]
    for subset, value in table:
        rows.append([_label(subset), _value_text(value, args.precision, args.exact)])
    sys.stdout.write(_format_table(rows, right={1}))
    return 0


def cmd_allocate(args) -> int:
    frame = load_frame(args.frame)
    allocators = _parse_allocators(args.alloc, frame)
    table = mass_table(frame)
    labels = [a.label for a in allocators]
    if args.output == "json":
        doc = {
            "allocators": labels,
            "rows": [
                {
                    "evidence": list(subset.members()),
                    "images": {
                        a.label: list(allocate(frame, a, subset).members())
                        for a in allocators
                    },
                    "mass": value_cell(value, args.precision),
                }
                for subset, value in table
            ],
        }
        print(json.dumps(doc, **_JSON_KW))
        return 0
    rows = [["evidence", *labels, "mass"]]
    for subset, value in table:
        row = [_label(subset)]
        row += [_label(allocate(frame, a, subset)) for a in allocators]
        row.append(_value_text(value, args.precision, args.exact))
        rows.append(row)
    sys.stdout.write(_format_table(rows, right={len(labels) + 1}))
    return 0


def render_report(report, exact: bool = False) -> str:
    """Fixed-width belief table: one row per proposition, then uncertainty
    and the normalization factor, one column per allocator."""
    labels = report.allocator_labels()

    def cells(values) -> list[str]:
        return [_value_text(v, report.precision, exact) for v in values]

    rows = [["proposition", *labels]]
    for r, p in enumerate(report.propositions):
        rows.append([_label(p), *cells(report.beliefs[r])])
    rows.append(["Uncertainty", *cells(report.uncertainty)])
    rows.append(["N.f.", *cells(report.normalization)])
    head = f"justification: {report.justification.kind.value}\n"
    return head + _format_table(rows, right=set(range(1, len(labels) + 1)))


def cmd_believe(args) -> int:
    frame = load_frame(args.frame)
    allocators = _parse_allocators(args.alloc, frame)
    justification = _parse_justification(args.justification, frame)
    propositions = _parse_propositions(args.props, frame)
    report = belief_report(frame, allocators, justification, propositions,
                           precision=args.precision)
    if args.output == "json":
        print(json.dumps(report.to_document(), **_JSON_KW))
        return 0
    sys.stdout.write(render_report(report, exact=args.exact))
    return 0


def cmd_verify(args) -> int:
    frame = load_frame(args.frame)
    outcomes = run_all_checks(frame)
    failed = [o for o in outcomes if not o.passed]
    if args.output == "json":
        print(json.dumps([o.to_json() for o in outcomes], **_JSON_KW))
    else:
        for o in outcomes:
            print(f"{o.check}: {'PASS' if o.passed else 'FAIL'}")
        for o in failed:
            print(json.dumps(o.to_json(), sort_keys=True))
    return 4 if failed else 0


def cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frame = car_frame()
    report_a, report_b = car_reports(precision=args.precision)
    files = {
        "car.json": serialize_frame(frame),
        "car_a_report.txt": render_report(report_a),
        "car_b_report.txt": render_report(report_b),
        "car_a_report.json": json.dumps(report_a.to_document(), **_JSON_KW) + "\n",
        "car_b_report.json": json.dumps(report_b.to_document(), **_JSON_KW) + "\n",
    }
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


# -- parser ----------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, frame: bool = True) -> None:
    if frame:
        parser.add_argument("--frame", required=True, help="frame document (JSON)")
    parser.add_argument("--precision", type=int, default=2,
                        help="decimal places for rendered values (0..12)")
    parser.add_argument("--output", choices=("table", "json"), default="table")
    parser.add_argument("--exact", action="store_true",
                        help="print exact rationals n/d instead of decimals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topobelief",
        description="degrees of belief from inconsistent, uncertain evidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="list the evidential topology")
    _add_common(p)
    p.set_defaults(fn=cmd_topology)

    p = sub.add_parser("mass", help="merged masses over evidence subsets")
    _add_common(p)
    p.set_defaults(fn=cmd_mass)

    p = sub.add_parser("allocate", help="allocation matrix over evidence subsets")
    _add_common(p)
    p.add_argument("--alloc", default="i,u,d",
                   help="comma list of i,u,d,yager or custom:<path>")
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("believe", help="belief report for propositions")
    _add_common(p)
    p.add_argument("--justification", default="ds",
                   help="ds, sd or custom:<path>")
    p.add_argument("--alloc", default="i,u,d",
                   help="comma list of i,u,d,yager or custom:<path>")
    p.add_argument("--props", default="",
                   help='propositions: state names comma-separated, ";" between')
    p.set_defaults(fn=cmd_believe)

    p = sub.add_parser("verify", help="run all checkers against a frame")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("demo", help="write the bundled scenario and its reports")
    _add_common(p, frame=False)
    p.add_argument("--out", default="demo", help="output directory")
    p.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not 0 <= args.precision <= 12:
        print("error: --precision must be between 0 and 12", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TopobeliefError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
