from __future__ import annotations

import gc
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topobelief.core import StateSet, make_universe
from topobelief.errors import (
    CapacityExceeded,
    CustomFrameContainsEmpty,
    CustomFrameMissingTotalSet,
    CustomFrameNotOpen,
    FrameMismatch,
    MalformedDocument,
    TopobeliefError,
)
from topobelief.evidence import EvidenceItem, EvidenceSubset, QuantitativeEvidenceFrame
from topobelief.fusion import (
    Allocator,
    AllocatorKind,
    _allocation_planes,
    _avoider,
    _column,
    _image_numerators,
    _min_dense_planes,
    INTERSECTION,
    MIN_DENSE,
    UNION,
    YAGER,
    allocate,
    allocated_mass_table,
    belief,
    belief_report,
    custom_allocator,
    justification_frame,
    justified_mass,
    mass_table,
    normalization_factor,
    validate_allocators,
)
from topobelief.topology import generate_topology
from topobelief.verify import fixed_shape_frame, random_frame
import topobelief.fusion as fusion_module
from reference import (
    evidence_mass,
    is_dense,
    union_belief_ds,
    validate_allocators_by_sweep,
    yager_belief_ds,
    yager_column_by_table,
)

seeds = st.integers(min_value=0, max_value=5_000)


# -- quantitative layer --------------------------------------------------------

def test_evidence_mass_car_examples(car):
    assert evidence_mass(car, car.subset(["E1", "E2"])) == Fraction(297, 800)
    assert evidence_mass(car, car.subset([])) == Fraction(11, 800)


def test_evidence_mass_single_item_frame():
    u = make_universe(["a", "b"])
    frame = QuantitativeEvidenceFrame(
        u, (EvidenceItem("E", u.subset(["a"]), Fraction(2, 7)),)
    )
    assert evidence_mass(frame, frame.subset(["E"])) == Fraction(2, 7)
    assert evidence_mass(frame, frame.subset([])) == Fraction(5, 7)


CAR_MASS_NUMERATORS = {
    (): 11,
    ("E1",): 99,
    ("E2",): 33,
    ("E3",): 9,
    ("E1", "E2"): 297,
    ("E1", "E3"): 81,
    ("E2", "E3"): 27,
    ("E1", "E2", "E3"): 243,
}


def test_mass_table_car(car):
    table = mass_table(car)
    assert [s.members() for s, _ in table] == list(CAR_MASS_NUMERATORS)
    for subset, value in table:
        assert value == Fraction(CAR_MASS_NUMERATORS[subset.members()], 800)
    assert sum(v for _, v in table) == 1


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_mass_totals_one(seed):
    frame = random_frame(seed)
    assert sum(v for _, v in mass_table(frame)) == 1


@settings(max_examples=80, deadline=None)
@given(seeds)
def test_mass_marginal_recovers_certainty(seed):
    frame = random_frame(seed)
    table = mass_table(frame)
    for i, item in enumerate(frame.items):
        marginal = sum((v for s, v in table if s.mask >> i & 1), Fraction(0))
        assert marginal == item.certainty


def test_mass_total_one_at_twelve_items():
    u = make_universe(["a", "b", "c"])
    items = tuple(
        EvidenceItem(f"E{i}", u.subset(["a"] if i % 2 else ["b", "c"]), Fraction(i + 1, 13))
        for i in range(12)
    )
    frame = QuantitativeEvidenceFrame(u, items)
    assert sum(v for _, v in mass_table(frame)) == 1


# -- justification frames --------------------------------------------------------

def test_justification_ds_members_car(car):
    ds = justification_frame(car, "ds")
    members = {m.bits for m in ds.members()}
    # every non-empty open of the 14-element evidential topology
    assert len(members) == 13
    assert car.universe.full_bits in members
    assert 0 not in members
    for names in (["dp"], ["dm", "sm"], ["sp", "dp", "do", "dm", "sm"]):
        assert car.universe.subset(names).bits in members


def test_justification_sd_members_car(car):
    sd = justification_frame(car, "sd")
    members = {m.bits for m in sd.members()}
    core = car.universe.subset(["dp", "dm"])
    # exactly the opens containing the minimum dense open {dp, dm}
    assert members == {
        m.bits
        for m in justification_frame(car, "ds").members()
        if core.issubset(m)
    }
    assert len(members) == 9
    assert not sd.contains(car.universe.subset(["dm"]))
    assert sd.contains(car.universe.subset(["dp", "dm"]))


def test_custom_frame_requires_total_set(car):
    with pytest.raises(CustomFrameMissingTotalSet):
        justification_frame(car, "custom", [car.universe.subset(["dp", "dm"])])


def test_custom_frame_rejects_empty_member(car):
    with pytest.raises(CustomFrameContainsEmpty):
        justification_frame(
            car, "custom", [car.universe.empty_set(), car.universe.full_set()]
        )


def test_custom_frame_rejects_non_open(car):
    with pytest.raises(CustomFrameNotOpen):
        justification_frame(
            car, "custom", [car.universe.subset(["so"]), car.universe.full_set()]
        )


def test_custom_frame_restricts_belief(car):
    members = [car.universe.subset(["dp", "dm"]), car.universe.full_set()]
    jf = justification_frame(car, "custom", members)
    assert jf.members() == tuple(sorted(members, key=lambda s: (s.size, s.bits)))
    assert jf.contains(car.universe.full_set())
    assert not jf.contains(car.universe.subset(["dp"]))


# -- allocation ------------------------------------------------------------------

CAR_ALLOCATION = {
    (): {"i": "S", "u": "S", "d": "S", "yager": "S"},
    ("E1",): {"i": "E1", "u": "E1", "d": "E1", "yager": "E1"},
    ("E2",): {"i": "E2", "u": "E2", "d": "E2", "yager": "E2"},
    ("E3",): {"i": "E3", "u": "E3", "d": "E3", "yager": "E3"},
    ("E1", "E2"): {"i": ["dm"], "u": ["dp", "do", "dm", "sm"], "d": ["dm"],
                   "yager": ["dm"]},
    ("E1", "E3"): {"i": ["dp"], "u": ["sp", "dp", "do", "dm"], "d": ["dp"],
                   "yager": ["dp"]},
    ("E2", "E3"): {"i": [], "u": ["sp", "dp", "dm", "sm"],
                   "d": ["sp", "dp", "dm", "sm"], "yager": "S"},
    # the union of all three leaves out "so", which no evidence mentions
    ("E1", "E2", "E3"): {"i": [], "u": ["sp", "dp", "do", "dm", "sm"],
                         "d": ["dp", "dm"], "yager": "S"},
}


def _resolve(car, spec) -> StateSet:
    if spec == "S":
        return car.universe.full_set()
    if isinstance(spec, str):
        return car.items[car.index_of(spec)].content
    return car.universe.subset(spec)


def test_allocate_car_matrix(car):
    allocators = {"i": INTERSECTION, "u": UNION, "d": MIN_DENSE, "yager": YAGER}
    for members, row in CAR_ALLOCATION.items():
        subset = car.subset(members)
        for label, alloc in allocators.items():
            assert allocate(car, alloc, subset) == _resolve(car, row[label]), (
                members,
                label,
            )


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_every_allocator_sends_empty_family_to_full_space(seed):
    frame = random_frame(seed)
    empty = frame.subset([])
    for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
        assert allocate(frame, alloc, empty).is_full()


def test_validate_allocators_car(car):
    assert validate_allocators(car, [INTERSECTION, UNION, MIN_DENSE]) == []
    assert validate_allocators(car, [INTERSECTION, UNION, MIN_DENSE, YAGER]) == []


def test_validate_allocators_flags_incomparable_customs(car):
    e1, e2, _ = car.contents()
    base = {s: allocate(car, INTERSECTION, s) for s in car.all_subsets()}
    g = dict(base)
    g[car.subset(["E1", "E2"])] = e1
    h = dict(base)
    h[car.subset(["E1", "E2"])] = e2
    report = validate_allocators(
        car, [custom_allocator(car, g, "g"), custom_allocator(car, h, "h")]
    )
    codes = {v.code for v in report}
    assert "IncomparableImages" in codes
    witnesses = [
        v.detail["evidence"] for v in report if v.code == "IncomparableImages"
    ]
    assert ["E1", "E2"] in witnesses


def test_validate_allocators_flags_empty_family_violation(car):
    table = {s: allocate(car, INTERSECTION, s) for s in car.all_subsets()}
    table[car.subset([])] = car.items[0].content
    report = validate_allocators(car, [custom_allocator(car, table, "bad")])
    assert any(v.code == "EmptyFamilyImage" for v in report)


def test_validate_allocators_flags_image_outside_subset_topology(car):
    # {dp} is open for the whole frame but not for the topology {E1} generates
    table = {s: allocate(car, INTERSECTION, s) for s in car.all_subsets()}
    table[car.subset(["E1"])] = car.universe.subset(["dp"])
    report = validate_allocators(car, [custom_allocator(car, table, "bad")])
    assert any(
        v.code == "ImageNotOpen" and v.detail["evidence"] == ["E1"] for v in report
    )


def test_validate_allocators_flags_non_dense_image(car):
    # {E2, E3} generates {0, E2, E3, E2|E3, S}; E2 is open there but misses E3
    # entirely, so it is neither empty nor dense for that family.
    table = {s: allocate(car, MIN_DENSE, s) for s in car.all_subsets()}
    table[car.subset(["E2", "E3"])] = car.items[1].content
    report = validate_allocators(car, [custom_allocator(car, table, "bad")])
    assert any(
        v.code == "ImageNotDense" and v.detail["evidence"] == ["E2", "E3"]
        for v in report
    )


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_sandwich_between_intersection_and_union(seed):
    frame = random_frame(seed)
    for subset in frame.all_subsets():
        lower = allocate(frame, INTERSECTION, subset)
        upper = allocate(frame, UNION, subset)
        for alloc in (INTERSECTION, UNION, MIN_DENSE):
            image = allocate(frame, alloc, subset)
            assert lower.issubset(image)
            assert image.issubset(upper)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_yager_sandwich_characterisation(seed):
    # The total-set fallback escapes the union bound exactly when the family
    # conflicts and its union does not cover the space; below the fallback the
    # sandwich holds.
    frame = random_frame(seed)
    for subset in frame.all_subsets():
        image = allocate(frame, YAGER, subset)
        assert allocate(frame, INTERSECTION, subset).issubset(image)
        if image.is_full():
            assert subset.is_empty() or allocate(frame, INTERSECTION, subset).is_empty()
        else:
            assert image.issubset(allocate(frame, UNION, subset))


def test_custom_allocator_requires_total_table(car):
    partial = {car.subset([]): car.universe.full_set()}
    with pytest.raises(MalformedDocument):
        custom_allocator(car, partial)


# -- allocated mass ----------------------------------------------------------------

def test_allocated_mass_car_examples(car):
    u = car.universe
    table = allocated_mass_table(car, INTERSECTION)
    assert table[u.subset(["dm"])] == Fraction(297, 800)
    assert table[u.empty_set()] == Fraction(270, 800)
    for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
        assert u.subset(["so"]) not in allocated_mass_table(car, alloc)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_allocated_mass_is_mass_function(seed):
    frame = random_frame(seed)
    for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
        table = allocated_mass_table(frame, alloc)
        assert sum(table.values()) == 1
        assert all(0 <= v <= 1 for v in table.values())


def _per_subset_numerators(frame, allocators):
    """Reference aggregation: merged mass of every evidence subset, summed
    per ``allocate`` image, one table per allocator."""
    tables = [{} for _ in allocators]
    for subset in frame.all_subsets():
        mass = evidence_mass(frame, subset)
        for table, alloc in zip(tables, allocators):
            bits = allocate(frame, alloc, subset).bits
            table[bits] = table.get(bits, 0) + mass
    return tables


def _frame_with_empty_item():
    """Built in code, past validation: the union of {E1} alone is empty, not
    the full space that the empty family maps to."""
    u = make_universe(["a", "b", "c"])
    items = (
        EvidenceItem("E1", u.empty_set(), Fraction(1, 3)),
        EvidenceItem("E2", u.subset(["a"]), Fraction(2, 5)),
        EvidenceItem("E3", u.subset(["a", "b"]), Fraction(3, 4)),
    )
    return QuantitativeEvidenceFrame(u, items)


def test_folded_numerators_equal_per_subset_reference():
    frames = [random_frame(seed, 8, 10) for seed in range(200)]
    frames.append(fixed_shape_frame(0, 16, 12))
    frames.append(_frame_with_empty_item())
    allocators = (INTERSECTION, UNION, YAGER)
    for frame in frames:
        references = _per_subset_numerators(frame, allocators)
        for alloc, reference in zip(allocators, references):
            acc, den = _image_numerators(frame, alloc)
            got = {bits: Fraction(num, den) for bits, num in acc.items()}
            assert got == reference, (frame, alloc.label)


def _maximal_signature_image(frame, mask):
    """The literal min-dense rule for one family: the intersection if it is
    non-empty, else the states whose evidence signature restricted to the
    family is non-empty and maximal."""
    if mask == 0:
        return frame.universe.full_bits
    groups = {}
    for states, sig in frame.point_signatures:
        restricted = sig & mask
        if restricted:
            groups[restricted] = groups.get(restricted, 0) | states
    out = 0
    for sig, points in groups.items():
        if not any(sig != other and sig & other == sig for other in groups):
            out |= points
    return out


def _frames_with_certain_item():
    """Built in code: a certainty-1 item leaves zero mass on every family
    without it, the empty family included. In the second frame all the mass
    falls on an empty image, so no justification frame captures any."""
    u = make_universe(["a", "b", "c"])
    items = (
        EvidenceItem("E1", u.subset(["a"]), Fraction(1)),
        EvidenceItem("E2", u.subset(["b"]), Fraction(2, 5)),
        EvidenceItem("E3", u.subset(["b", "c"]), Fraction(1, 5)),
    )
    return [QuantitativeEvidenceFrame(u, items),
            QuantitativeEvidenceFrame(u, (EvidenceItem("E1", u.empty_set(), Fraction(1)),))]


def _one_state_frame():
    u = make_universe(["a"])
    return QuantitativeEvidenceFrame(u, (EvidenceItem("E1", u.full_set(), Fraction(1, 2)),))


def _min_dense_corpus():
    return (
        [random_frame(seed, 8, 10) for seed in range(300)]
        + [fixed_shape_frame(7, 16, 12), _frame_with_empty_item(), _one_state_frame()]
        + _frames_with_certain_item()
    )


def test_min_dense_image_table_equals_per_subset_reference():
    for frame in _min_dense_corpus():
        reference = {}
        for subset in frame.all_subsets():
            bits = allocate(frame, MIN_DENSE, subset).bits
            assert bits == _maximal_signature_image(frame, subset.mask), (frame, subset)
            reference[bits] = reference.get(bits, 0) + evidence_mass(frame, subset)
        acc, den = _image_numerators(frame, MIN_DENSE)
        assert {bits: Fraction(num, den) for bits, num in acc.items()} == reference, frame


def test_min_dense_planes_hold_the_empty_family_and_the_literal_families():
    # bit 0, the empty family, lies in every plane and is all of the plane of
    # the uncovered states; past bit 0 each plane holds exactly the families
    # whose literal image holds the plane's states
    for frame in _min_dense_corpus():
        images = [_maximal_signature_image(frame, mask)
                  for mask in range(1 << frame.arity)]
        planes = _min_dense_planes(frame)
        assert [states for states, _ in planes] == [
            states for states, _ in frame.point_signatures]
        for (states, plane), (_, sig) in zip(planes, frame.point_signatures):
            assert plane & 1, frame
            if sig == 0:
                assert plane == 1, frame
            literal = 1
            for mask in range(1, 1 << frame.arity):
                if states & ~images[mask] == 0:
                    literal |= 1 << mask
            assert plane == literal, (frame, states)


# -- allocation laws on family planes, against the per-subset sweep -------------

BUILTINS = [INTERSECTION, UNION, MIN_DENSE, YAGER]


def _mutated_tables(frame, rng):
    """Custom copies of one to three builtins, each with one to three images
    replaced by seeded random sets of states."""
    out = []
    for alloc in rng.sample(BUILTINS, rng.randint(1, 3)):
        table = {mask: allocate(frame, alloc, EvidenceSubset(frame, mask))
                 for mask in range(1 << frame.arity)}
        for _ in range(rng.randint(1, 3)):
            table[rng.randrange(1 << frame.arity)] = StateSet(
                frame.universe, rng.randrange(1 << frame.universe.size))
        out.append(custom_allocator(frame, table, f"{alloc.label}*"))
    return out


def test_allocation_planes_give_back_the_allocate_images(car):
    # the images that validate_allocators reports are read from these planes
    for frame in [car, *(random_frame(seed, 8, 6) for seed in range(200))]:
        avoid = _avoider(frame.arity)
        for alloc in BUILTINS:
            planes = _allocation_planes(frame, alloc, avoid)
            for mask in range(1 << frame.arity):
                image = sum(states for states, plane in planes if plane >> mask & 1)
                assert image == allocate(frame, alloc, EvidenceSubset(frame, mask)).bits, \
                    (frame, alloc.label, mask)


def test_validate_allocators_equals_the_sweep_on_the_builtins(car):
    frames = [car, *(random_frame(seed, 8, 6) for seed in range(300)), *_min_dense_corpus()]
    for frame in frames:
        assert validate_allocators(frame, BUILTINS) == \
            validate_allocators_by_sweep(frame, BUILTINS), frame


def test_validate_allocators_equals_the_sweep_on_mutated_tables(car):
    # same violations, in the same order, with the same messages and details
    flagged = 0
    for n, frame in enumerate([car, *(random_frame(seed, 8, 6) for seed in range(300))]):
        rng = random.Random(n)
        for _ in range(3):
            allocators = _mutated_tables(frame, rng) + rng.sample(BUILTINS, rng.randint(0, 2))
            expected = validate_allocators_by_sweep(frame, allocators)
            assert validate_allocators(frame, allocators) == expected, (n, allocators)
            flagged += bool(expected)
    assert flagged > 500


def test_validate_allocators_reads_d_from_its_planes(monkeypatch):
    # one family flipped in one d plane: the report is the sweep's over the
    # images that the flipped planes give, as a table labelled "d"
    planes = fusion_module._min_dense_planes
    target = []

    def flipped(frame):
        out = list(planes(frame))
        index, family = target
        states, plane = out[index]
        out[index] = (states, plane ^ 1 << family)
        return out

    monkeypatch.setattr(fusion_module, "_min_dense_planes", flipped)
    fusion_module._image_numerators.cache_clear()
    try:
        flagged = 0
        for seed in range(300):
            frame = random_frame(seed, 8, 6)
            rng = random.Random(seed)
            target[:] = [rng.randrange(len(frame.point_signatures)),
                         rng.randrange(1 << frame.arity)]
            images = [0] * (1 << frame.arity)
            for states, plane in flipped(frame):
                for mask in range(1 << frame.arity):
                    if plane >> mask & 1:
                        images[mask] |= states
            perturbed = custom_allocator(
                frame, {mask: StateSet(frame.universe, bits) for mask, bits in enumerate(images)},
                "d")
            expected = validate_allocators_by_sweep(
                frame, [INTERSECTION, UNION, perturbed, YAGER])
            assert validate_allocators(frame, BUILTINS) == expected, seed
            flagged += bool(expected)
    finally:
        fusion_module._image_numerators.cache_clear()
    assert flagged > 150


def _outcome(fn):
    try:
        return fn()
    except TopobeliefError as exc:
        return type(exc), str(exc)


def _random_custom_frame(frame, seed):
    """A custom justification frame: S plus a few seeded unions of
    neighborhoods, which are open."""
    rng = random.Random(seed)
    u = frame.universe
    nbs = frame.neighborhood_bits
    members = {u.full_bits}
    for _ in range(rng.randint(0, 5)):
        bits = 0
        for nb in rng.sample(nbs, rng.randint(1, len(nbs))):
            bits |= nb
        members.add(bits)
    return justification_frame(frame, "custom", [StateSet(u, b) for b in sorted(members)])


@pytest.mark.parametrize("kind", ["ds", "sd", "custom", "custom-S"])
def test_min_dense_report_equals_belief_calls(kind):
    # belief_report and the single calls share one column, so both are held to
    # the d image table filtered by frame membership, computed here
    for n, frame in enumerate(_min_dense_corpus()):
        u = frame.universe
        full = u.full_bits
        step = max(1, full // 9)
        props = [StateSet(u, bits) for bits in range(0, full + 1, step)]
        props.append(u.full_set())
        if kind == "custom":
            jf = _random_custom_frame(frame, n)
        elif kind == "custom-S":
            jf = justification_frame(frame, "custom", [u.full_set()])
        else:
            jf = justification_frame(frame, kind)
        acc, den = _image_numerators(frame, MIN_DENSE)
        images = sorted(acc)

        def reference():
            kept = {bits: num for bits, num in acc.items() if jf.contains_bits(bits)}
            captured = sum(kept.values())
            if captured == 0:
                raise TopobeliefError(
                    "justification frame captures no mass; belief is undefined")
            inside = [sum(num for bits, num in kept.items() if not bits & ~p.bits)
                      for p in props]
            return ([Fraction(num, captured) for num in inside], Fraction(captured, den),
                    Fraction(kept.get(full, 0), captured),
                    [Fraction(kept.get(bits, 0), captured) for bits in images])

        def from_report():
            report = belief_report(frame, [MIN_DENSE], jf, props)
            return ([row[0] for row in report.beliefs], report.normalization[0],
                    report.uncertainty[0],
                    [justified_mass(frame, MIN_DENSE, jf, StateSet(u, b)) for b in images])

        def from_calls():
            return ([belief(frame, MIN_DENSE, jf, p) for p in props],
                    normalization_factor(frame, MIN_DENSE, jf),
                    justified_mass(frame, MIN_DENSE, jf, u.full_set()),
                    [justified_mass(frame, MIN_DENSE, jf, StateSet(u, b)) for b in images])

        expected = _outcome(reference)
        assert _outcome(from_report) == expected, n
        assert _outcome(from_calls) == expected, n


def test_min_dense_belief_on_eighteen_items_is_bounded():
    frame = fixed_shape_frame(7, 16, 18)
    proposition = frame.universe.subset(["s0", "s1", "s2"])
    start = time.perf_counter()
    belief(frame, MIN_DENSE, justification_frame(frame, "sd"), proposition)
    assert time.perf_counter() - start < 2.0


def test_min_dense_image_table_on_eighteen_items_is_bounded():
    # about 3 s when each image's families were weighed over all 2^18 families
    frame = fixed_shape_frame(7, 16, 18)
    start = time.perf_counter()
    allocated_mass_table(frame, MIN_DENSE)
    assert time.perf_counter() - start < 1.5


@pytest.mark.parametrize("kind", ["ds", "sd"])
def test_min_dense_report_raises_when_nothing_is_captured(kind):
    frame = _frames_with_certain_item()[1]
    with pytest.raises(TopobeliefError, match="captures no mass"):
        belief_report(frame, [MIN_DENSE], justification_frame(frame, kind), [])


def test_contains_matches_materialised_topology():
    for seed in range(60):
        frame = random_frame(seed)
        u = frame.universe
        topo = generate_topology(u, frame.contents())
        opens = {o.bits for o in topo.opens}
        ds = justification_frame(frame, "ds")
        sd = justification_frame(frame, "sd")
        for bits in range(1 << u.size):
            s = StateSet(u, bits)
            in_topology = bits in opens
            assert ds.contains(s) == (in_topology and bits != 0), (seed, s)
            assert sd.contains(s) == (in_topology and is_dense(s, topo)), (seed, s)


BUILTINS = (INTERSECTION, UNION, YAGER, MIN_DENSE)


def _column_corpus():
    return [random_frame(seed, 8, 10) for seed in range(200)] + [_frame_with_empty_item()]


def test_builtin_images_are_open():
    # _column skips the openness test for builtin allocators on
    # this invariant (allocation law 2)
    for frame in _column_corpus():
        for alloc in BUILTINS:
            acc, _ = _image_numerators(frame, alloc)
            for bits in acc:
                assert frame.open_bits(bits), (frame, alloc.label, bits)


@pytest.mark.parametrize("kind", ["ds", "sd"])
def test_builtin_column_equals_contains_filter(kind):
    for frame in _column_corpus():
        justification = justification_frame(frame, kind)
        for alloc in BUILTINS:
            acc, _ = _image_numerators(frame, alloc)
            expected = {b: n for b, n in acc.items() if justification.contains_bits(b)}
            column = _column(frame, alloc, justification)
            kept = {b: column.at(b) for b in range(frame.universe.full_bits + 1)}
            assert kept == {b: expected.get(b, 0) for b in kept}, (frame, alloc.label)
            assert column.captured == sum(expected.values())


@pytest.mark.parametrize("kind", ["ds", "sd"])
def test_column_needs_the_justification_frames_own_evidence_frame(kind):
    u = make_universe(["a", "b", "c"])

    def single(states):
        return QuantitativeEvidenceFrame(
            u, (EvidenceItem("E1", u.subset(states), Fraction(1, 2)),))

    own, equal, other = single(["a"]), single(["a"]), single(["b"])
    assert equal == own and equal is not own and other != own
    justification = justification_frame(own, kind)
    for alloc in BUILTINS:
        with pytest.raises(FrameMismatch):
            _column(other, alloc, justification)
        with pytest.raises(FrameMismatch):
            belief(other, alloc, justification, u.full_set())
        for bits in range(u.full_bits + 1):
            p = StateSet(u, bits)
            assert belief(equal, alloc, justification, p) \
                == belief(own, alloc, justification_frame(own, kind), p), (alloc.label, p)
        # both frames read the one column kept on the justification frame
        assert _column(equal, alloc, justification) is _column(own, alloc, justification)


@pytest.mark.parametrize("kind", ["ds", "sd", "custom"])
def test_yager_column_equals_its_image_table_filtered_by_the_frame(car, kind):
    # the column is the i column plus the conflict mass at S; the reference
    # filters the yager image table itself
    conflicted = 0
    for n, frame in enumerate([car] + [random_frame(seed, 8, 6) for seed in range(300)]):
        u = frame.universe
        jf = (_random_custom_frame(frame, n) if kind == "custom"
              else justification_frame(frame, kind))
        props = [StateSet(u, bits) for bits in range(u.full_bits + 1)]
        beliefs, captured, masses = yager_column_by_table(frame, jf, props)
        report = belief_report(frame, [YAGER], jf, props)
        assert [row[0] for row in report.beliefs] == beliefs, n
        assert [belief(frame, YAGER, jf, p) for p in props] == beliefs, n
        assert report.normalization[0] == normalization_factor(frame, YAGER, jf) == captured
        for s in allocated_mass_table(frame, YAGER):
            assert justified_mass(frame, YAGER, jf, s) == masses.get(s, 0), (n, s)
        assert report.uncertainty[0] == masses[u.full_set()], n
        conflicted += 0 in _image_numerators(frame, INTERSECTION)[0]
    assert conflicted > 100


@pytest.mark.parametrize("alloc, closed_form", [(UNION, union_belief_ds),
                                                (YAGER, yager_belief_ds)], ids=["u", "yager"])
def test_ds_beliefs_equal_their_closed_forms(alloc, closed_form):
    # the closed forms share no code with fusion, and every proposition is held
    for seed in range(100):
        frame = random_frame(seed, 8, 6)
        u = frame.universe
        ds = justification_frame(frame, "ds")
        for bits in range(u.full_bits + 1):
            p = StateSet(u, bits)
            assert belief(frame, alloc, ds, p) == closed_form(frame, p), (seed, p)


def test_i_u_yager_reports_build_two_image_tables():
    # yager reads the i table, and the ds and sd reports share both tables
    frame = fixed_shape_frame(0, 32, 15)
    fusion_module._image_numerators.cache_clear()
    for kind in ("ds", "sd"):
        belief_report(frame, [INTERSECTION, UNION, YAGER], justification_frame(frame, kind),
                      [frame.universe.full_set()])
    assert fusion_module._image_numerators.cache_info().misses == 2


def test_fusion_caches_hold_no_tables_of_earlier_frames():
    # the lru caches hold one request's tables, so the memory that stays
    # allocated after reports on 100 frames does not grow with the frames;
    # caches of 256 image tables would keep about 15 MB
    fusion_module._image_numerators.cache_clear()
    fusion_module._half_tables.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for seed in range(100):
            frame = fixed_shape_frame(seed, 32, 15)
            for kind in ("ds", "sd"):
                belief_report(frame, [INTERSECTION, UNION, YAGER],
                              justification_frame(frame, kind), [frame.universe.full_set()])
        del frame
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained < 4 * 2**20


# -- normalization, justified mass, belief -------------------------------------------

def test_normalization_factor_car(car):
    assert normalization_factor(car, INTERSECTION, justification_frame(car, "ds")) \
        == Fraction(530, 800)
    assert normalization_factor(car, UNION, justification_frame(car, "ds")) == 1
    assert normalization_factor(car, MIN_DENSE, justification_frame(car, "sd")) \
        == Fraction(380, 800)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_no_normalization_under_all_arguments_frame(seed):
    frame = random_frame(seed)
    ds = justification_frame(frame, "ds")
    for alloc in (UNION, YAGER, MIN_DENSE):
        assert normalization_factor(frame, alloc, ds) == 1


def test_justified_mass_car_examples(car):
    sd = justification_frame(car, "sd")
    e1 = car.items[0].content
    assert justified_mass(car, INTERSECTION, sd, e1) == Fraction(99, 110)
    assert justified_mass(car, INTERSECTION, sd, car.universe.subset(["dm"])) == 0
    # mass the union allocator leaves on the full space: only the empty
    # family maps there, because the union of all three sets is not S
    assert justified_mass(car, UNION, sd, car.universe.full_set()) \
        == Fraction(11, 758)


@settings(max_examples=40, deadline=None)
@given(seeds, st.sampled_from(["ds", "sd"]))
def test_justified_mass_is_bpa(seed, kind):
    frame = random_frame(seed)
    jf = justification_frame(frame, kind)
    for alloc in (INTERSECTION, UNION, MIN_DENSE):
        table = allocated_mass_table(frame, alloc)
        total = Fraction(0)
        for s, v in table.items():
            jm = justified_mass(frame, alloc, jf, s)
            if jf.contains(s):
                total += jm
            else:
                assert jm == 0
        assert total == 1
        assert justified_mass(frame, alloc, jf, frame.universe.empty_set()) == 0


def test_belief_car_examples(car):
    u = car.universe
    p1 = u.subset(["dp", "do", "dm"])
    p2 = u.subset(["sp", "dp"])
    sd = justification_frame(car, "sd")
    ds = justification_frame(car, "ds")
    assert belief(car, MIN_DENSE, sd, p1) == Fraction(342, 380)
    assert belief(car, INTERSECTION, sd, p2) == 0
    assert belief(car, INTERSECTION, ds, p2) == Fraction(9, 53)


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(["ds", "sd"]))
def test_belief_bounds_and_monotonicity(seed, kind):
    frame = random_frame(seed)
    jf = justification_frame(frame, kind)
    u = frame.universe
    for alloc in (INTERSECTION, UNION, MIN_DENSE):
        assert belief(frame, alloc, jf, u.empty_set()) == 0
        assert belief(frame, alloc, jf, u.full_set()) == 1
        previous = Fraction(0)
        grown = u.empty_set()
        for k in range(u.size):
            grown = grown | StateSet(u, 1 << k)
            value = belief(frame, alloc, jf, grown)
            assert previous <= value <= 1
            previous = value


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=0), st.integers(min_value=0))
def test_belief_monotone_under_inclusion(seed, raw_p, raw_r):
    frame = random_frame(seed)
    jf = justification_frame(frame, "ds")
    u = frame.universe
    p = StateSet(u, raw_p % (u.full_bits + 1))
    q = p | StateSet(u, raw_r % (u.full_bits + 1))
    for alloc in (INTERSECTION, UNION, MIN_DENSE, YAGER):
        assert belief(frame, alloc, jf, p) <= belief(frame, alloc, jf, q)


# -- reports ---------------------------------------------------------------------------

def test_belief_report_car_a(car):
    report = belief_report(
        car,
        [INTERSECTION, UNION, MIN_DENSE],
        justification_frame(car, "ds"),
        [car.universe.subset(["dp", "do", "dm"]), car.universe.subset(["sp", "dp"])],
    )
    assert report.normalization == (Fraction(53, 80), Fraction(1), Fraction(1))
    # union column: only the empty family reaches the full space, so its
    # uncertainty matches the intersection-free masses exactly
    assert report.uncertainty == (
        Fraction(11, 530),
        Fraction(11, 800),
        Fraction(11, 800),
    )
    assert report.beliefs[0] == (Fraction(9, 10), Fraction(99, 800), Fraction(9, 10))
    assert report.beliefs[1] == (Fraction(9, 53), Fraction(9, 800), Fraction(9, 80))


def test_belief_report_car_b_zero_row(car):
    report = belief_report(
        car,
        [INTERSECTION, UNION, MIN_DENSE],
        justification_frame(car, "sd"),
        [car.universe.subset(["dp", "do", "dm"]), car.universe.subset(["sp", "dp"])],
    )
    assert report.beliefs[1] == (Fraction(0), Fraction(0), Fraction(0))
    assert report.normalization == (
        Fraction(11, 80),
        Fraction(758, 800),
        Fraction(380, 800),
    )


def test_belief_report_no_propositions(car):
    report = belief_report(
        car, [INTERSECTION], justification_frame(car, "ds"), []
    )
    assert report.beliefs == ()
    assert len(report.normalization) == 1
    assert len(report.uncertainty) == 1


def test_belief_report_document_shape(car):
    report = belief_report(
        car,
        [INTERSECTION, UNION],
        justification_frame(car, "sd"),
        [car.universe.subset(["dp", "do", "dm"])],
    )
    document = report.to_document()
    assert set(document) == {
        "justification", "allocators", "rows", "uncertainty", "normalization"
    }
    assert document["justification"] == "sd"
    assert document["allocators"] == ["i", "u"]
    row = document["rows"][0]
    assert row["proposition"] == ["dp", "do", "dm"]
    cell = row["beliefs"]["i"]
    assert Fraction(cell["num"], cell["den"]) == Fraction(9, 10)
    assert cell["rendered"] == "0.90"


# -- capacity ----------------------------------------------------------------------------

def _wide_frame(m: int) -> QuantitativeEvidenceFrame:
    u = make_universe(["a", "b", "c"])
    items = tuple(
        EvidenceItem(f"E{i}", u.subset(["a", "b"] if i % 2 else ["b"]), Fraction(1, 2))
        for i in range(m)
    )
    return QuantitativeEvidenceFrame(u, items)


def test_capacity_cap_rejects_25_items(car):
    frame = _wide_frame(25)
    with pytest.raises(CapacityExceeded):
        mass_table(frame)
    with pytest.raises(CapacityExceeded):
        belief_report(
            frame, [INTERSECTION], justification_frame(frame, "ds"),
            [frame.universe.subset(["a"])],
        )
    with pytest.raises(CapacityExceeded):
        validate_allocators(frame, [INTERSECTION])


def test_capacity_message_names_subset_evaluations_only_where_they_happen():
    # the folds of i, u and yager name only the cap; d and the allocation
    # laws name the family planes they would build; the per-subset listings
    # and custom tables name the subsets they would evaluate
    frame = _wide_frame(25)
    capped = "25 evidence items exceed the cap of 24 items"
    planes = "25 evidence items need 2^25-bit family planes; the cap is 24 items"
    subsets = "25 evidence items need 2^25 subset evaluations; the cap is 24 items"
    sd = justification_frame(frame, "sd")
    table = Allocator(AllocatorKind.CUSTOM, "t", {})
    for run, message in [
        *((lambda a=alloc: allocated_mass_table(frame, a), capped)
          for alloc in (INTERSECTION, UNION, YAGER)),
        (lambda: allocated_mass_table(frame, MIN_DENSE), planes),
        (lambda: belief_report(frame, [MIN_DENSE], sd, []), planes),
        (lambda: validate_allocators(frame, BUILTINS), planes),
        (lambda: mass_table(frame), subsets),
        (lambda: allocated_mass_table(frame, table), subsets),
    ]:
        with pytest.raises(CapacityExceeded) as exc:
            run()
        assert str(exc.value) == message
