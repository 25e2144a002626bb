from __future__ import annotations

import json
import time
import zlib
from fractions import Fraction
from itertools import combinations

import pytest

from topobelief.core import StateSet, make_universe
from topobelief.dst import belief_from_bpa, combine_evidence, topological_belief
from topobelief.evidence import (
    EvidenceItem,
    EvidenceSubset,
    QuantitativeEvidenceFrame,
    parse_frame,
)
from topobelief.errors import CapacityExceeded
from topobelief.fusion import (
    INTERSECTION,
    MIN_DENSE,
    UNION,
    YAGER,
    allocate,
    belief,
    custom_allocator,
    justification_frame,
    mass_table,
)
from topobelief.verify import (
    check_allocation_definition,
    check_belief_axioms,
    check_bpa_axioms,
    check_drc_equivalence,
    check_mass_axioms,
    check_minimum_dense_open,
    check_topological_equivalence,
    fixed_shape_frame,
    justified_bpa,
    merged_mass_axioms,
    random_frame,
    run_all_checks,
)
import topobelief.fusion as fusion_module
import topobelief.verify as verify_module
import reference as reference_module
from test_fusion import _wide_frame
from reference import (
    mass_axioms_by_fraction_sum,
    merged_mass_axioms_by_listing,
    minimum_dense_open_by_listing,
)


def _drc(frame):
    return check_drc_equivalence(frame, justification_frame(frame, "ds"))


def _topological(frame):
    return check_topological_equivalence(frame, justification_frame(frame, "sd"))


def test_random_frame_deterministic():
    assert random_frame(42, 5, 4) == random_frame(42, 5, 4)
    assert random_frame(42) != random_frame(43)


def test_random_frame_shape():
    for seed in range(30):
        frame = random_frame(seed)
        assert 2 <= frame.universe.size <= 6
        assert 1 <= frame.arity <= 5
        for item in frame.items:
            assert not item.content.is_empty()
            assert not item.content.is_full()
            assert 0 < item.certainty < 1
            assert item.certainty.denominator <= 32


def test_mass_axioms_single_evidence_half():
    u = make_universe(["a", "b"])
    frame = QuantitativeEvidenceFrame(
        u, (EvidenceItem("E", u.subset(["a"]), Fraction(1, 2)),)
    )
    values = [(EvidenceSubset(frame, mask), Fraction(1, 2))
              for mask in range(1 << frame.arity)]
    outcome = check_mass_axioms(values)
    assert outcome.passed
    assert outcome.detail["total"] == "1"


def test_all_checkers_pass_on_car(car):
    outcomes = run_all_checks(car)
    assert outcomes
    assert all(o.passed for o in outcomes)
    names = [o.check for o in outcomes]
    assert "drc_equivalence" in names
    assert "topological_equivalence" in names
    assert "minimum_dense_open" in names


def test_all_checkers_pass_on_random_frames():
    for seed in range(200):
        frame = random_frame(seed)
        for outcome in run_all_checks(frame):
            assert outcome.passed, (seed, outcome.check, outcome.detail)


def test_run_all_checks_builds_the_min_dense_planes_four_times(monkeypatch):
    # for the d mass table, the allocation laws and the d column under each
    # of the one ds and one sd frame that every check shares
    calls = []
    planes = fusion_module._min_dense_planes

    def counted(frame):
        calls.append(frame)
        return planes(frame)

    monkeypatch.setattr(fusion_module, "_min_dense_planes", counted)
    fusion_module._image_numerators.cache_clear()
    try:
        for seed in range(5):
            calls.clear()
            outcomes = run_all_checks(random_frame(seed, 8, 6))
            assert all(o.passed for o in outcomes)
            assert len(calls) == 4, seed
    finally:
        fusion_module._image_numerators.cache_clear()


def test_run_all_checks_builds_each_table_once(car):
    # the i, u and d image tables and one pair of half tables, all of which
    # the lru caches hold for the whole run, and the inclusion-exclusion
    # terms of the one pool that all six belief-axiom lines share
    fusion_module._image_numerators.cache_clear()
    fusion_module._half_tables.cache_clear()
    verify_module._inclusion_exclusion_terms.cache_clear()
    run_all_checks(car)
    assert fusion_module._image_numerators.cache_info().misses == 3
    assert fusion_module._half_tables.cache_info().misses == 1
    terms = verify_module._inclusion_exclusion_terms.cache_info()
    assert (terms.misses, terms.hits) == (1, 5)


def test_outcome_json_shape(car):
    outcome = _drc(car)
    doc = outcome.to_json()
    assert set(doc) == {"check", "frame", "detail"}
    assert doc["check"] == "drc_equivalence"
    # the witness frame is replayable
    assert parse_frame(json.dumps(doc["frame"])) == car


# -- mutation meta-tests: corrupting one value must flip the matching checker ----

def test_mass_checker_detects_corruption(car):
    values = dict(mass_table(car))
    key = next(iter(values))
    values[key] += Fraction(1, 1000)
    outcome = check_mass_axioms(values.items())
    assert not outcome.passed
    assert "total" in outcome.detail


def test_mass_checker_detects_out_of_range():
    outcome = check_mass_axioms([("x", Fraction(3, 2)), ("y", Fraction(-1, 2))])
    assert not outcome.passed


# -- the mass checks: integer sums against the Fraction loop, half tables
# -- against the listing of all 2^m merged masses

def test_mass_axioms_equal_the_fraction_reference(car):
    frames = [car] + [random_frame(seed, 8, 6) for seed in range(60)]
    cases = [list(mass_table(frame)) for frame in frames]
    for frame in frames[:20]:
        for kind in ("ds", "sd"):
            jf = justification_frame(frame, kind)
            cases += [list(justified_bpa(frame, alloc, jf).items())
                      for alloc in (INTERSECTION, UNION, MIN_DENSE)]
    third = Fraction(1, 3)
    cases += [
        [("x", Fraction(1, 2)), ("y", Fraction(-1, 3)), ("z", Fraction(5, 6))],
        [("x", third), ("y", Fraction(4, 3)), ("z", -third)],
        [("x", Fraction(3, 2)), ("y", Fraction(-1, 2))],
        [("x", third), ("y", third)],
        [("x", Fraction(2, 3)), ("y", Fraction(2, 3))],
        [("x", Fraction(0)), ("y", Fraction(1))],
        [],
        [("x", 1)],
        [("x", 0), ("y", 1), ("z", 0)],
        [("x", 1), ("y", 1)],
        [("x", 0)],
        [("x", 2)],
        [("x", -1), ("y", 2)],
        [("x", third), ("y", 0), ("z", Fraction(2, 3))],
    ]
    perturbed = list(mass_table(car))
    key, value = perturbed[3]
    perturbed[3] = (key, value + Fraction(1, 1000))
    cases.append(perturbed)
    verdicts = set()
    for case in cases:
        # one pass over each input, as over a generator
        expected = mass_axioms_by_fraction_sum(iter(case))
        assert check_mass_axioms(iter(case)) == expected, case
        verdicts.add(expected.detail.get("reason"))
    assert verdicts == {None, "value outside [0, 1]", "values do not total 1"}


def test_merged_masses_equal_the_listing(car):
    frames = [car] + [random_frame(seed, 8, 6) for seed in range(500)]
    frames += [fixed_shape_frame(7, 16, m) for m in range(12, 17)]
    for frame in frames:
        assert merged_mass_axioms(frame) == merged_mass_axioms_by_listing(frame), frame


@pytest.mark.parametrize("perturb, reason", [
    (lambda lo, hi, den: (lo, hi[:-1] + [hi[-1] + 1]), "values do not total 1"),
    (lambda lo, hi, den: (lo, [-hi[0]] + hi[1:]), "value outside [0, 1]"),
    (lambda lo, hi, den: (lo, hi[:-1] + [2 * den]), "value outside [0, 1]"),
    # the totals stay, one factor turns negative
    (lambda lo, hi, den: (lo, [-1, hi[1] + hi[0] + 1, *hi[2:]]), "value outside [0, 1]"),
    (lambda lo, hi, den: ([-1, lo[1] + lo[0] + 1, *lo[2:]], hi), "value outside [0, 1]"),
    # every product keeps its sign, so the listing passes where the
    # half-table test does not
    (lambda lo, hi, den: ([-w for w in lo], [-w for w in hi]), None),
], ids=["total", "negative", "above_one", "shifted_hi", "shifted_lo",
        "both_negated"])
def test_a_perturbed_half_table_reports_the_listings_outcome(car, monkeypatch, perturb,
                                                             reason):
    # the tables are patched in fusion, where both run_all_checks and the
    # listing read them; two items or more give each half table two entries
    half_tables = fusion_module._half_tables

    def perturbed(frame):
        lo, hi, half, den = half_tables(frame)
        return (*perturb(list(lo), list(hi), den), half, den)

    monkeypatch.setattr(fusion_module, "_half_tables", perturbed)
    frames = [car] + [random_frame(seed, 8, 6) for seed in range(60)]
    for frame in [f for f in frames if f.arity >= 2]:
        expected = merged_mass_axioms_by_listing(frame)
        line = run_all_checks(frame)[0]
        assert line.check == "mass_axioms:merged"
        assert (line.passed, line.detail) == (expected.passed, expected.detail), frame
        assert expected.detail.get("reason") == reason, frame


def test_run_all_checks_lists_no_merged_masses(car, monkeypatch):
    def listing(frame):
        raise AssertionError("mass_table called")

    monkeypatch.setattr(verify_module, "mass_table", listing)
    for frame in [car] + [random_frame(seed, 8, 6) for seed in range(20)]:
        assert all(o.passed for o in run_all_checks(frame))


def test_merged_masses_are_bounded_at_20_items():
    # listing the 2^20 merged masses took about 8 s and 320 MB on a 2-vCPU
    # Xeon; the half tables hold 2^10 numerators each
    frame = fixed_shape_frame(7, 16, 20)
    start = time.perf_counter()
    outcome = merged_mass_axioms(frame)
    assert time.perf_counter() - start < 1.0
    assert outcome.passed and outcome.detail == {"total": "1"}


def test_merged_masses_are_refused_past_the_cap_before_the_half_tables():
    # two half tables of 2^30 numerators each at 60 items
    fusion_module._half_tables.cache_clear()
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="need 2\\^60 subset evaluations"):
        merged_mass_axioms(_wide_frame(60))
    assert time.perf_counter() - start < 1.0
    assert fusion_module._half_tables.cache_info().currsize == 0


def test_bpa_checker_detects_empty_set_mass(car):
    bpa = justified_bpa(car, INTERSECTION, justification_frame(car, "ds"))
    bpa[StateSet(car.universe, 0)] = Fraction(1, 100)
    assert not check_bpa_axioms(bpa).passed


def test_belief_checker_detects_bad_total(car):
    jf = justification_frame(car, "ds")

    def corrupted(p):
        if p.is_full():
            return Fraction(1, 2)
        return belief(car, INTERSECTION, jf, p)

    outcome = check_belief_axioms(corrupted, car.universe)
    assert not outcome.passed
    assert outcome.detail["reason"] == "belief in the full set not 1"


def test_belief_checker_detects_superadditivity_break(car):
    # a deliberately non-monotone evaluator: full marks on two singletons,
    # nothing on their union
    u = car.universe

    def broken(p):
        if p.is_empty():
            return Fraction(0)
        if p.is_full():
            return Fraction(1)
        if p.size == 1:
            return Fraction(1)
        return Fraction(0)

    outcome = check_belief_axioms(broken, u)
    assert not outcome.passed
    assert outcome.detail["reason"] == "superadditivity fails"


def test_allocation_checker_detects_corrupted_image(car):
    subsets = [EvidenceSubset(car, mask) for mask in range(1 << car.arity)]
    table = {s: allocate(car, INTERSECTION, s) for s in subsets}
    table[car.subset(["E1"])] = car.universe.subset(["dp"])  # not open for {E1}
    outcome = check_allocation_definition(
        car, [custom_allocator(car, table, "mutant")]
    )
    assert not outcome.passed
    assert outcome.detail["violations"]
    assert outcome.frame_document is not None


def test_drc_checker_detects_corrupted_oracle(car, monkeypatch):
    monkeypatch.setattr(
        verify_module, "belief_from_bpa", lambda m, p: Fraction(0)
    )
    outcome = _drc(car)
    assert not outcome.passed
    assert "proposition" in outcome.detail


def test_topological_checker_detects_corrupted_operator(car, monkeypatch):
    monkeypatch.setattr(
        verify_module, "topological_belief", lambda frame, p: True
    )
    outcome = _topological(car)
    assert not outcome.passed


def test_min_dense_checker_detects_wrong_candidate(car, monkeypatch):
    monkeypatch.setattr(
        verify_module, "min_dense", lambda sets: car.universe.full_set()
    )
    outcome = check_minimum_dense_open(car)
    assert not outcome.passed
    assert outcome.detail["reason"] == "a dense open does not contain the candidate"


@pytest.mark.parametrize("mutation, reason", [
    (lambda dense_bits: lambda self, bits: True,
     "a dense open does not contain the candidate"),
    (lambda dense_bits: lambda self, bits: not dense_bits(self, bits),
     "candidate is not dense"),
], ids=["always_dense", "negated"])
def test_min_dense_checker_depends_on_dense_bits(car, monkeypatch, mutation, reason):
    original = QuantitativeEvidenceFrame.dense_bits
    monkeypatch.setattr(QuantitativeEvidenceFrame, "dense_bits", mutation(original))
    for frame in [car] + [random_frame(seed, 8, 6) for seed in range(20)]:
        outcome = check_minimum_dense_open(frame)
        assert not outcome.passed, frame
        assert outcome.detail["reason"] == reason


@pytest.mark.parametrize("min_dense, dense_bits", [
    (None, None),
    (lambda sets: sets[0].universe.full_set(), None),
    (None, lambda dense_bits: lambda self, bits: True),
    (None, lambda dense_bits: lambda self, bits: not dense_bits(self, bits)),
], ids=["unpatched", "wrong_candidate", "always_dense", "negated"])
def test_min_dense_checker_reports_the_listings_outcome(car, monkeypatch, min_dense,
                                                        dense_bits):
    # same verdict, detail, witness and frame document as a scan over every
    # listed open, unpatched and under the mutations of the checker tests above
    if min_dense is not None:
        monkeypatch.setattr(verify_module, "min_dense", min_dense)
        monkeypatch.setattr(reference_module, "min_dense", min_dense)
    if dense_bits is not None:
        original = QuantitativeEvidenceFrame.dense_bits
        monkeypatch.setattr(QuantitativeEvidenceFrame, "dense_bits", dense_bits(original))
    frames = [car] + [random_frame(seed, 8, 6) for seed in range(500)]
    frames += [random_frame(seed, 12, 7) for seed in range(300)]
    for frame in frames:
        assert check_minimum_dense_open(frame) == minimum_dense_open_by_listing(frame), frame


def test_checkers_stay_green_without_mutation(car):
    # guard for the monkeypatched tests above: the unpatched checkers pass
    assert _drc(car).passed
    assert _topological(car).passed
    assert check_minimum_dense_open(car).passed
    assert check_allocation_definition(
        car, [INTERSECTION, UNION, MIN_DENSE]
    ).passed


def test_allocation_definition_is_bounded_at_16_items():
    # the laws are checked on family planes; a sweep over the 2^16 evidence
    # subsets takes about 12 s on a 2-vCPU Xeon (3.1 s at 14 items, x4 per
    # two items)
    frame = fixed_shape_frame(7, 16, 16)
    start = time.perf_counter()
    outcome = check_allocation_definition(frame, [INTERSECTION, UNION, MIN_DENSE, YAGER])
    assert time.perf_counter() - start < 1.0
    assert outcome.passed


# -- the equivalence checks visit generating sets, not all 2^|S| propositions ---

def _full_drc_sweep(frame):
    """``check_drc_equivalence`` as a sweep over all 2^|S| propositions."""
    combined = verify_module.combine_evidence(frame)
    ds = justification_frame(frame, "ds")
    for bits in range(1 << frame.universe.size):
        p = StateSet(frame.universe, bits)
        lhs = belief(frame, INTERSECTION, ds, p)
        rhs = verify_module.belief_from_bpa(combined, p)
        if lhs != rhs:
            return verify_module._fail("drc_equivalence", frame,
                                       proposition=list(p.members()),
                                       pipeline=str(lhs), combined=str(rhs))
    return verify_module._ok("drc_equivalence", frame)


def _full_topological_sweep(frame):
    """``check_topological_equivalence`` as a sweep over all 2^|S|
    propositions."""
    sd = justification_frame(frame, "sd")
    for bits in range(1 << frame.universe.size):
        p = StateSet(frame.universe, bits)
        qualitative = verify_module.topological_belief(frame, p)
        quantitative = belief(frame, MIN_DENSE, sd, p) > 0
        if qualitative != quantitative:
            return verify_module._fail("topological_equivalence", frame,
                                       proposition=list(p.members()),
                                       qualitative=qualitative,
                                       positive_belief=quantitative)
    return verify_module._ok("topological_equivalence", frame)


@pytest.mark.parametrize("mutation", [
    None,
    ("belief_from_bpa", lambda m, p: Fraction(0)),
    ("topological_belief", lambda frame, p: True),
], ids=["unpatched", "belief_from_bpa", "topological_belief"])
def test_atom_sweeps_report_the_full_sweeps_outcome(car, monkeypatch, mutation):
    # same verdict, detail and witness proposition as the 2^|S| sweeps,
    # unpatched and under the mutations of the checker meta-tests above
    if mutation is not None:
        monkeypatch.setattr(verify_module, *mutation)
    for frame in [car] + [random_frame(seed) for seed in range(200)]:
        assert _drc(frame) == _full_drc_sweep(frame)
        assert _topological(frame) == _full_topological_sweep(frame)


def _halve_first_certainty(frame):
    first, *rest = frame.items
    halved = EvidenceItem(first.name, first.content, first.certainty / 2)
    return QuantitativeEvidenceFrame(frame.universe, (halved, *rest))


def _shrink_first_content(frame):
    # keeps only the lowest state of the first content, so the combined focal
    # sets need not be intersection images
    first, *rest = frame.items
    bits = first.content.bits
    shrunk = StateSet(frame.universe, bits & -bits)
    return QuantitativeEvidenceFrame(
        frame.universe, (EvidenceItem(first.name, shrunk, first.certainty), *rest))


def _merge_first_planes(planes):
    if len(planes) < 2:
        return planes
    (states, plane), *rest = planes
    return [(states, plane & rest[0][1]), *rest]


@pytest.mark.parametrize("mutation", [_halve_first_certainty, _shrink_first_content,
                                      "min_dense_planes"],
                         ids=["halved_certainty", "shrunk_content", "min_dense_planes"])
def test_generator_sweeps_report_the_full_sweeps_outcome_under_mutation(
    monkeypatch, mutation
):
    # mutations that keep both sides sums over sets, but move those sets or
    # their masses: the visited sets still find the full sweep's witness
    if callable(mutation):
        monkeypatch.setattr(verify_module, "combine_evidence",
                            lambda frame: combine_evidence(mutation(frame)))
    else:
        planes = fusion_module._min_dense_planes
        monkeypatch.setattr(fusion_module, "_min_dense_planes",
                            lambda frame: _merge_first_planes(planes(frame)))
    fusion_module._image_numerators.cache_clear()
    try:
        failed = 0
        for seed in range(300):
            frame = random_frame(seed, 7, 5)
            drc = _drc(frame)
            topological = _topological(frame)
            assert drc == _full_drc_sweep(frame), seed
            assert topological == _full_topological_sweep(frame), seed
            failed += not (drc.passed and topological.passed)
    finally:
        fusion_module._image_numerators.cache_clear()
    assert failed > 50


def test_beliefs_depend_only_on_the_largest_union_of_atoms_inside():
    # every side of both equivalence checks is built from unions of atoms, so
    # it takes the same value at P as at its floor, the union of the atoms in P
    for seed in range(100):
        frame = random_frame(seed, 6, 5)
        universe = frame.universe
        combined = combine_evidence(frame)
        justifications = [justification_frame(frame, kind) for kind in ("ds", "sd")]
        for bits in range(1 << universe.size):
            floor = 0
            for states, _ in frame.point_signatures:
                if states & ~bits == 0:
                    floor |= states
            p, q = StateSet(universe, bits), StateSet(universe, floor)
            assert belief_from_bpa(combined, p) == belief_from_bpa(combined, q)
            assert topological_belief(frame, p) == topological_belief(frame, q)
            for jf in justifications:
                for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
                    case = (seed, alloc.label, jf.kind, bits)
                    assert belief(frame, alloc, jf, p) == belief(frame, alloc, jf, q), case


# -- the belief-axiom check sums integer numerators; the Fraction loop is the reference

def _fraction_belief_axioms(evaluate, universe, n_max=3, pool=None):
    """``check_belief_axioms`` as a loop of ``Fraction`` sums, memoised per
    proposition: the reference the integer check must reproduce."""
    name = "belief_axioms"
    seen = {}

    def belief_at(bits):
        if bits not in seen:
            seen[bits] = evaluate(StateSet(universe, bits))
        return seen[bits]

    if pool is None:
        pool = [StateSet(universe, 1 << k) for k in range(universe.size)]
        pool.append(universe.full_set())
    empty = belief_at(0)
    if empty != 0:
        return verify_module._fail(name, reason="belief in the empty set not 0",
                                   value=str(empty))
    total = belief_at(universe.full_bits)
    if total != 1:
        return verify_module._fail(name, reason="belief in the full set not 1",
                                   value=str(total))
    for n in range(2, n_max + 1):
        for combo in combinations(pool, n):
            union_bits = 0
            for s in combo:
                union_bits |= s.bits
            lhs = belief_at(union_bits)
            rhs = Fraction(0)
            for r in range(1, n + 1):
                sign = 1 if r % 2 == 1 else -1
                for picked in combinations(combo, r):
                    inter_bits = universe.full_bits
                    for s in picked:
                        inter_bits &= s.bits
                    rhs += sign * belief_at(inter_bits)
            if lhs < rhs:
                return verify_module._fail(
                    name,
                    reason="superadditivity fails",
                    sets=[list(s.members()) for s in combo],
                    lhs=str(lhs),
                    rhs=str(rhs),
                )
    return verify_module._ok(name)


def _bump(seed, label, kind, universe, bits):
    """A perturbation that is a pure function of its arguments, so it is the
    same whatever order the two checks evaluate propositions in. About one
    proposition in three moves; the empty and the full set rarely do."""
    h = zlib.crc32(f"{seed},{label},{kind},{bits}".encode())
    if bits in (0, universe.full_bits) and h % 23:
        return Fraction(0)
    if h % 3:
        return Fraction(0)
    return Fraction((h >> 4) % 7 - 3, 50)


def _checks_pool(frame):
    """The pool ``run_all_checks`` passes to ``check_belief_axioms``."""
    pool = list(dict.fromkeys(frame.contents()))
    for k in range(min(frame.universe.size, 3)):
        pool.append(StateSet(frame.universe, 1 << k))
    return pool


def test_belief_axioms_equal_the_fraction_reference(car):
    frames = [(-1, car)] + [(seed, random_frame(seed, 8, 6)) for seed in range(300)]
    configs = [(pool, n_max) for pool in ("none", "checks") for n_max in (2, 3, 4)]
    failed = 0
    for seed, frame in frames:
        universe = frame.universe
        picked = configs if seed < 0 else [configs[seed % len(configs)]]
        for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
            for kind in ("ds", "sd"):
                jf = justification_frame(frame, kind)
                for bumped in (False, True):
                    def evaluate(p):
                        value = belief(frame, alloc, jf, p)
                        if bumped:
                            value += _bump(seed, alloc.label, kind, universe, p.bits)
                        return value

                    for pool_name, n_max in picked:
                        pool = _checks_pool(frame) if pool_name == "checks" else None
                        ref_calls, calls = [], []
                        expected = _fraction_belief_axioms(
                            lambda p: ref_calls.append(p.bits) or evaluate(p),
                            universe, n_max, pool)
                        outcome = check_belief_axioms(
                            lambda p: calls.append(p.bits) or evaluate(p),
                            universe, n_max, pool)
                        case = (seed, alloc.label, kind, bumped, pool_name, n_max)
                        assert outcome == expected, case
                        # one call per distinct proposition, the reference's set
                        assert len(calls) == len(set(calls)), case
                        if expected.passed:
                            assert set(calls) == set(ref_calls), case
                        failed += not expected.passed
    assert failed > 100  # the bumps reach every failure branch often


def test_belief_axioms_evaluate_in_the_order_the_terms_name(car):
    # the order of a loop over every set of every term, each set once
    terms = verify_module._inclusion_exclusion_terms.__wrapped__
    for frame in [car] + [random_frame(seed, 8, 6) for seed in range(50)]:
        universe = frame.universe
        pool = _checks_pool(frame)
        combos, _ = terms(tuple(s.bits for s in pool), 3)
        expected = {0: None, universe.full_bits: None}
        for _, union, positive, negative in combos:
            expected.update(dict.fromkeys((union, *positive, *negative)))
        jf = justification_frame(frame, "ds")
        calls = []
        outcome = check_belief_axioms(
            lambda p: calls.append(p.bits) or belief(frame, UNION, jf, p), universe, 3, pool)
        assert outcome.passed
        assert calls == list(expected), frame


def test_shared_terms_cannot_be_changed(car):
    # every belief_axioms line reads the one cached value
    pool = tuple(s.bits for s in _checks_pool(car))
    combos, named = verify_module._inclusion_exclusion_terms(pool, 3)
    assert type(combos) is tuple and type(named) is tuple
    assert all(type(part) in (tuple, int) for combo in combos for part in combo)


def test_belief_axioms_mutation_fails_the_same_checks_lines(monkeypatch):
    # a superadditivity-breaking perturbation of ``verify.belief`` fails the
    # same ``belief_axioms:<alloc>,<kind>`` lines of ``run_all_checks``, with
    # the same sets and values, as the Fraction reference under it
    def bumped(frame, alloc, jf, p):
        value = belief(frame, alloc, jf, p)
        return value + _bump(0, alloc.label, jf.kind, frame.universe, p.bits)

    monkeypatch.setattr(verify_module, "belief", bumped)
    failed = 0
    for seed in range(60):
        frame = random_frame(seed, 8, 6)
        lines = {o.check: o for o in run_all_checks(frame)}
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            for kind in ("ds", "sd"):
                jf = justification_frame(frame, kind)
                expected = _fraction_belief_axioms(
                    lambda p, a=alloc, j=jf: bumped(frame, a, j, p),
                    frame.universe, 3, _checks_pool(frame))
                line = lines[f"belief_axioms:{alloc.label},{kind}"]
                assert (line.passed, line.detail) == (expected.passed, expected.detail)
                failed += expected.detail.get("reason") == "superadditivity fails"
    assert failed > 20

