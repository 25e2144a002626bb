"""Acceptance suite: the bundled car scenario plus a 200-frame seeded corpus.

The car scenario ships with reference tables (REFERENCE_* below) whose values
were computed with intermediates rounded to two decimal places, so an exact
pipeline may differ from a printed cell by up to 0.02. A few reference cells
are inconsistent with the exact definitions beyond rounding; they are listed
in EXCLUDED_CELLS together with the exactly-derived value each is checked
against instead, and the root cause is noted inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import topobelief.cli as cli
from topobelief.core import StateSet, render_decimal
from topobelief.demo import car_frame
from topobelief.dst import belief_from_bpa, combine_evidence, topological_belief
from topobelief.evidence import serialize_frame
from topobelief.fusion import (
    INTERSECTION,
    MIN_DENSE,
    UNION,
    YAGER,
    allocate,
    belief,
    belief_report,
    justification_frame,
    mass_table,
    normalization_factor,
    validate_allocators,
)
from topobelief.topology import generate_topology
from topobelief.verify import (
    check_belief_axioms,
    check_bpa_axioms,
    fixed_shape_frame,
    justified_bpa,
    random_frame,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
TOLERANCE = Fraction(2, 100)
CORPUS_SEEDS = range(200)


def _report(criterion: str, ok: bool) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def car():
    return car_frame()


@pytest.fixture(scope="module")
def corpus(car):
    return [car] + [random_frame(seed) for seed in CORPUS_SEEDS]


# -- reference data for the car scenario ------------------------------------------

# The reference list of opens for the scenario's evidential topology names 11
# sets, but it omits three unions its own members force ({dp}|{dm,sm},
# {dm}|{sp,dp} and the union of all three evidence sets), so it is not closed
# under union. The closure below (14 opens) is what the axioms and the
# brute-force smallest-topology oracle give; it contains all 11 reference
# opens.
REFERENCE_OPENS = [
    [],
    ["dp", "do", "dm"],
    ["dm", "sm"],
    ["sp", "dp"],
    ["dp"],
    ["dm"],
    ["dp", "dm"],
    ["sp", "dp", "do", "dm"],
    ["dp", "do", "dm", "sm"],
    ["sp", "dp", "dm", "sm"],
    ["sp", "dp", "do", "so", "dm", "sm"],
]

CLOSURE_OPENS = REFERENCE_OPENS + [
    ["sp", "dp", "dm"],
    ["dp", "dm", "sm"],
    ["sp", "dp", "do", "dm", "sm"],
]

REFERENCE_MASS_ROWS = ["0.01", "0.12", "0.04", "0.01", "0.37", "0.10", "0.03", "0.30"]
EXACT_MASS_NUMERATORS = [11, 99, 33, 9, 297, 81, 27, 243]  # over 800

# Allocation matrix for the allocators (i, u, d); rows in canonical subset
# order. The reference table records the image of the full evidence family
# under u as the total set, but the exact union of the three evidence sets
# leaves out "so" (no evidence mentions it); the corrected cell is marked.
REFERENCE_ALLOCATION = {
    (): ("S", "S", "S"),
    ("E1",): ("E1", "E1", "E1"),
    ("E2",): ("E2", "E2", "E2"),
    ("E3",): ("E3", "E3", "E3"),
    ("E1", "E2"): (["dm"], ["dp", "do", "dm", "sm"], ["dm"]),
    ("E1", "E3"): (["dp"], ["sp", "dp", "do", "dm"], ["dp"]),
    ("E2", "E3"): ([], ["sp", "dp", "dm", "sm"], ["sp", "dp", "dm", "sm"]),
    ("E1", "E2", "E3"): ([], ["sp", "dp", "do", "dm", "sm"], ["dp", "dm"]),
    # reference prints u(E1,E2,E3) = S  ^^^ exact union, see note above
}

P1 = ("dp", "do", "dm")
P2 = ("sp", "dp")

# Printed belief tables: car A uses the all-arguments frame (ds), car B the
# dense-arguments frame (sd).
REFERENCE_CAR_A = {
    "beliefs": {P1: {"i": "0.88", "u": "0.59", "d": "0.89"},
                P2: {"i": "0.16", "u": "0.11", "d": "0.11"}},
    "uncertainty": {"i": "0.02", "u": "0.31", "d": "0.01"},
    "normalization": {"i": "0.66", "u": "1", "d": "1"},
}
REFERENCE_CAR_B = {
    "beliefs": {P1: {"i": "0.92", "u": "0.13", "d": "0.91"},
                P2: {"i": "0", "u": "0", "d": "0"}},
    # the d uncertainty cell is garbled in the reference ("0.0.2"); it is read
    # as 0.02, consistent with the rounded intermediates 0.01/0.46
    "uncertainty": {"i": "0.08", "u": "0.33", "d": "0.02"},
    "normalization": {"i": "0.13", "u": "0.93", "d": "0.46"},
}

# Reference cells inconsistent with the exact definitions beyond the 0.02
# rounding allowance, each checked against the exactly-derived value instead:
#
#   ("A", "belief", P1, "i"): printed 0.88; exact 477/530 = 0.9, and rounded
#       intermediates give 0.89, so the printed cell overshoots even those.
#   ("A", "belief", P1, "u") and ("A", "belief", P2, "u"): printed 0.59/0.11
#       match a superset-style (plausibility-like) aggregation, not the
#       subset sum; exact values 99/800 and 9/800.
#   ("A", "uncertainty", "u") and ("B", "uncertainty", "u"): printed 0.31 and
#       0.33 treat the image of the full evidence family under u as the total
#       set; the exact union excludes "so", so the full-family mass sits on
#       the 5-state union and only the empty family reaches S. Exact values
#       11/800 and 11/758.
EXCLUDED_CELLS = {
    ("A", "belief", P1, "i"): Fraction(477, 530),
    ("A", "belief", P1, "u"): Fraction(99, 800),
    ("A", "belief", P2, "u"): Fraction(9, 800),
    ("A", "uncertainty", "u"): Fraction(11, 800),
    ("B", "uncertainty", "u"): Fraction(11, 758),
}

ALLOC_LABELS = ("i", "u", "d")


def _within(exact: Fraction, printed: str) -> bool:
    return abs(exact - Fraction(printed)) <= TOLERANCE


def _resolve(frame, spec) -> StateSet:
    if spec == "S":
        return frame.universe.full_set()
    if isinstance(spec, str):
        return frame.items[frame.index_of(spec)].content
    return frame.universe.subset(spec)


# -- criteria -----------------------------------------------------------------------


def test_criterion_01_topology_reproduction(car):
    topo = generate_topology(car.universe, car.contents())
    got = {o.bits for o in topo.opens}
    reference = {car.universe.subset(names).bits for names in REFERENCE_OPENS}
    closure = {car.universe.subset(names).bits for names in CLOSURE_OPENS}
    best = min(
        _timed(lambda: generate_topology(car.universe, car.contents()))
        for _ in range(5)
    )
    ok = reference <= got and got == closure and best < 0.001
    _report("criterion 1 (topology reproduction, < 1 ms)", ok)
    assert reference <= got
    assert got == closure
    assert best < 0.001, f"generation took {best * 1e3:.3f} ms"


def test_criterion_02_mass_values(car):
    values = [value for _, value in mass_table(car)]
    exact_ok = values == [Fraction(n, 800) for n in EXACT_MASS_NUMERATORS]
    rounded_ok = [render_decimal(v, 2) for v in values] == REFERENCE_MASS_ROWS
    total_ok = sum(values) == 1
    ok = exact_ok and rounded_ok and total_ok
    _report("criterion 2 (merged mass values)", ok)
    assert exact_ok and rounded_ok and total_ok


def test_criterion_03_allocation_matrix(car):
    failures = []
    for members, row in REFERENCE_ALLOCATION.items():
        subset = car.subset(members)
        for alloc, spec in zip((INTERSECTION, UNION, MIN_DENSE), row):
            got = allocate(car, alloc, subset)
            if got != _resolve(car, spec):
                failures.append((members, alloc.label, got.members()))
    full_family = car.subset(["E1", "E2", "E3"])
    pinned = (
        allocate(car, INTERSECTION, full_family).is_empty()
        and allocate(car, MIN_DENSE, full_family) == car.universe.subset(["dp", "dm"])
    )
    ok = not failures and pinned
    _report("criterion 3 (allocation matrix)", ok)
    assert not failures, failures
    assert pinned


def test_criterion_04_reference_table_reconciliation(car):
    propositions = [car.universe.subset(P1), car.universe.subset(P2)]
    reports = {
        "A": belief_report(car, [INTERSECTION, UNION, MIN_DENSE],
                           justification_frame(car, "ds"), propositions),
        "B": belief_report(car, [INTERSECTION, UNION, MIN_DENSE],
                           justification_frame(car, "sd"), propositions),
    }
    printed = {"A": REFERENCE_CAR_A, "B": REFERENCE_CAR_B}
    failures = []
    for table, report in reports.items():
        ref = printed[table]
        for r, prop in enumerate((P1, P2)):
            for c, label in enumerate(ALLOC_LABELS):
                exact = report.beliefs[r][c]
                excluded = EXCLUDED_CELLS.get((table, "belief", prop, label))
                if excluded is not None:
                    if exact != excluded:
                        failures.append((table, "belief", prop, label, str(exact)))
                elif not _within(exact, ref["beliefs"][prop][label]):
                    failures.append((table, "belief", prop, label, str(exact)))
        for c, label in enumerate(ALLOC_LABELS):
            exact = report.uncertainty[c]
            excluded = EXCLUDED_CELLS.get((table, "uncertainty", label))
            if excluded is not None:
                if exact != excluded:
                    failures.append((table, "uncertainty", label, str(exact)))
            elif not _within(exact, ref["uncertainty"][label]):
                failures.append((table, "uncertainty", label, str(exact)))
            if not _within(report.normalization[c], ref["normalization"][label]):
                failures.append((table, "normalization", label,
                                 str(report.normalization[c])))
    ok = not failures
    _report("criterion 4 (reference table reconciliation, +/-0.02)", ok)
    assert not failures, failures


def test_criterion_05_combination_rule_equivalence(corpus):
    failures = []
    for frame in corpus:
        combined = combine_evidence(frame)
        ds = justification_frame(frame, "ds")
        universe = frame.universe
        for bits in range(1 << universe.size):
            p = StateSet(universe, bits)
            if belief(frame, INTERSECTION, ds, p) != belief_from_bpa(combined, p):
                failures.append((frame.universe.labels, frame.names(), p.members()))
    ok = not failures
    _report("criterion 5 (combination-rule equivalence, exact, 201 frames)", ok)
    assert not failures, failures[:3]


def test_criterion_06_qualitative_equivalence(corpus):
    failures = []
    for frame in corpus:
        sd = justification_frame(frame, "sd")
        universe = frame.universe
        for bits in range(1 << universe.size):
            p = StateSet(universe, bits)
            if topological_belief(frame, p) != (belief(frame, MIN_DENSE, sd, p) > 0):
                failures.append((frame.names(), p.members()))
    ok = not failures
    _report("criterion 6 (qualitative-operator equivalence, 201 frames)", ok)
    assert not failures, failures[:3]


def test_criterion_07_axiom_suites(corpus):
    failures = []
    for frame in corpus:
        table = mass_table(frame)
        if sum(v for _, v in table) != 1:
            failures.append(("mass total", frame.names()))
        for i, item in enumerate(frame.items):
            marginal = sum((v for s, v in table if s.mask >> i & 1), Fraction(0))
            if marginal != item.certainty:
                failures.append(("marginal", frame.names(), item.name))
        pool = list(dict.fromkeys(frame.contents()))
        for k in range(min(frame.universe.size, 3)):
            pool.append(StateSet(frame.universe, 1 << k))
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            for kind in ("ds", "sd"):
                jf = justification_frame(frame, kind)
                outcome = check_bpa_axioms(justified_bpa(frame, alloc, jf))
                if not outcome.passed:
                    failures.append(("bpa", frame.names(), alloc.label, kind))
                outcome = check_belief_axioms(
                    lambda p, a=alloc, j=jf: belief(frame, a, j, p),
                    frame.universe, n_max=3, pool=pool,
                )
                if not outcome.passed:
                    failures.append(("belief axioms", frame.names(), alloc.label, kind))
    ok = not failures
    _report("criterion 7 (mass/bpa/belief axiom suites, exact)", ok)
    assert not failures, failures[:3]


def test_criterion_08_validity_and_sandwich(corpus):
    failures = []
    for frame in corpus:
        if validate_allocators(frame, [INTERSECTION, UNION, MIN_DENSE, YAGER]):
            failures.append(("validate", frame.names()))
        for subset in frame.all_subsets():
            lower = allocate(frame, INTERSECTION, subset)
            upper = allocate(frame, UNION, subset)
            for alloc in (INTERSECTION, UNION, MIN_DENSE):
                image = allocate(frame, alloc, subset)
                if not (lower.issubset(image) and image.issubset(upper)):
                    failures.append(("sandwich", frame.names(), alloc.label,
                                     subset.members()))
            # The total-set fallback of the yager-style allocator escapes the
            # union bound exactly when the family conflicts and its union does
            # not cover the space; below the fallback the sandwich holds.
            image = allocate(frame, YAGER, subset)
            if not lower.issubset(image):
                failures.append(("yager lower", frame.names(), subset.members()))
            if image.is_full():
                if not (subset.is_empty() or lower.is_empty()):
                    failures.append(("yager fallback", frame.names(), subset.members()))
            elif not image.issubset(upper):
                failures.append(("yager upper", frame.names(), subset.members()))
    ok = not failures
    _report("criterion 8 (allocator validity and sandwich)", ok)
    assert not failures, failures[:3]


def test_criterion_09_no_normalization(corpus):
    failures = []
    for frame in corpus:
        ds = justification_frame(frame, "ds")
        for alloc in (UNION, YAGER, MIN_DENSE):
            if normalization_factor(frame, alloc, ds) != 1:
                failures.append((frame.names(), alloc.label))
    ok = not failures
    _report("criterion 9 (normalization-free allocators under ds)", ok)
    assert not failures, failures[:3]


def test_criterion_10_capacity_and_performance(tmp_path, capsys):
    frame = fixed_shape_frame(7, 16, 15)
    path = tmp_path / "wide15.json"
    path.write_text(serialize_frame(frame), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main([
        "believe", "--frame", str(path), "--justification", "sd",
        "--alloc", "i,u,d", "--props", "s0,s1,s2;s3", "--output", "json",
    ])
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    big = fixed_shape_frame(7, 16, 25)
    big_path = tmp_path / "wide25.json"
    big_path.write_text(serialize_frame(big), encoding="utf-8")
    start = time.perf_counter()
    big_code = cli.main([
        "believe", "--frame", str(big_path), "--props", "s0",
    ])
    rejected_fast = time.perf_counter() - start < 5.0
    capsys.readouterr()

    ok = code == 0 and elapsed < 5.0 and big_code == 3 and rejected_fast
    _report("criterion 10 (16 states / 15 items < 5 s; 25 items rejected)", ok)
    assert code == 0
    assert elapsed < 5.0, f"believe took {elapsed:.2f}s"
    assert big_code == 3
    assert rejected_fast


def test_criterion_11_golden_files(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code = cli.main(["demo", "--out", str(out_dir)])
    capsys.readouterr()
    golden_files = sorted(GOLDEN.iterdir())
    mismatches = [
        golden.name
        for golden in golden_files
        if (out_dir / golden.name).read_bytes() != golden.read_bytes()
    ]
    doc = json.loads((out_dir / "car_a_report.json").read_text(encoding="utf-8"))
    cell = doc["uncertainty"]["i"]
    roundtrip_ok = Fraction(cell["num"], cell["den"]) == Fraction(11, 530)
    ok = code == 0 and bool(golden_files) and not mismatches and roundtrip_ok
    _report("criterion 11 (golden demo files and JSON round-trip)", ok)
    assert code == 0
    assert golden_files, "golden files are committed"
    assert not mismatches, mismatches
    assert roundtrip_ok
