from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    arguments_for,
    generate_topology_by_intersections,
    is_dense,
    maximal_fip_families,
)
import topobelief.topology as topology_module
from topobelief.core import StateSet, make_universe
from topobelief.errors import CapacityExceeded, EmptyEvidenceList, UniverseMismatch
from topobelief.evidence import EvidenceItem, QuantitativeEvidenceFrame
from topobelief.topology import (
    Topology,
    generate_topology,
    min_dense,
    signature_atoms,
)
from topobelief.verify import random_frame


def closure_oracle(universe, subbasis):
    """Independent fixpoint closure: repeat pairwise unions/intersections."""
    opens = {0, universe.full_bits} | {s.bits for s in subbasis}
    while True:
        new = set()
        for a in opens:
            for b in opens:
                for c in (a | b, a & b):
                    if c not in opens:
                        new.add(c)
        if not new:
            return opens
        opens |= new


def smallest_family_oracle(universe, subbasis):
    """Literal oracle: test every family of subsets containing the subbasis
    for the topology axioms and pick the smallest. Only viable for tiny
    universes."""
    n_subsets = 1 << universe.size
    required = {0, universe.full_bits} | {s.bits for s in subbasis}
    optional = [b for b in range(n_subsets) if b not in required]
    best = None
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            family = required | set(extra)
            if all(
                (a | b) in family and (a & b) in family
                for a in family
                for b in family
            ):
                best = family
                break
        if best is not None:
            break
    return best


def topology_axioms_hold(topo: Topology) -> bool:
    bits = {o.bits for o in topo.opens}
    if 0 not in bits or topo.universe.full_bits not in bits:
        return False
    return all((a | b) in bits and (a & b) in bits for a in bits for b in bits)


CAR_OPENS = [
    [],
    ["dp"],
    ["dm"],
    ["sp", "dp"],
    ["dp", "dm"],
    ["dm", "sm"],
    ["sp", "dp", "dm"],
    ["dp", "do", "dm"],
    ["dp", "dm", "sm"],
    ["sp", "dp", "do", "dm"],
    ["sp", "dp", "dm", "sm"],
    ["dp", "do", "dm", "sm"],
    ["sp", "dp", "do", "dm", "sm"],
    ["sp", "dp", "do", "so", "dm", "sm"],
]


def test_generate_topology_car(car):
    topo = generate_topology(car.universe, car.contents())
    expected = {car.universe.subset(names).bits for names in CAR_OPENS}
    assert {o.bits for o in topo.opens} == expected
    assert len(topo.opens) == 14
    assert topology_axioms_hold(topo)


def test_generate_topology_single_set():
    u = make_universe(["a", "b", "c"])
    a = u.subset(["a", "b"])
    topo = generate_topology(u, [a])
    assert {o.bits for o in topo.opens} == {0, a.bits, u.full_bits}


def test_generate_topology_empty_subbasis():
    u = make_universe(["a", "b"])
    topo = generate_topology(u, [])
    assert {o.bits for o in topo.opens} == {0, u.full_bits}


def test_generate_topology_matches_smallest_family_oracle():
    u = make_universe(["a", "b", "c", "d"])
    subbases = [
        [u.subset(["a", "b"]), u.subset(["b", "c"]), u.subset(["c", "d"])],
        [u.subset(["a"]), u.subset(["b", "d"]), u.subset(["a", "c"])],
        [u.subset(["a", "b", "c"]), u.subset(["b", "c", "d"]), u.subset(["a", "d"])],
    ]
    for subbasis in subbases:
        got = {o.bits for o in generate_topology(u, subbasis).opens}
        assert got == smallest_family_oracle(u, subbasis)


def test_generate_topology_equals_the_intersection_reference(car):
    # same opens in the same canonical order as the closure of the
    # finite-intersection basis
    frames = ([car] + [random_frame(seed, 8, 6) for seed in range(300)]
              + [random_frame(seed, 16, 10) for seed in range(100)])
    for frame in frames:
        u, sets = frame.universe, frame.contents()
        assert generate_topology(u, sets) == generate_topology_by_intersections(u, sets)


def test_generate_topology_refuses_more_opens_than_the_cap(monkeypatch):
    # the discrete topology on n states has 2^n opens; it is refused past the
    # cap whatever the order of the generators, and listed up to it
    monkeypatch.setattr(topology_module, "MAX_OPENS", 16)
    for n, listed in ((4, True), (5, False)):
        u = make_universe([f"s{i}" for i in range(n)])
        singletons = [StateSet(u, 1 << k) for k in range(n)]
        for sets in (singletons, singletons[::-1]):
            if listed:
                assert len(generate_topology(u, sets).opens) == 16
            else:
                with pytest.raises(CapacityExceeded, match="cap of 16 opens"):
                    generate_topology(u, sets)


def test_generate_topology_rejects_foreign_sets():
    u = make_universe(["a", "b"])
    other = make_universe(["a", "b", "c"])
    with pytest.raises(UniverseMismatch):
        generate_topology(u, [other.subset(["a"])])


@st.composite
def universe_and_subbasis(draw, max_states=5, max_sets=4):
    n = draw(st.integers(min_value=1, max_value=max_states))
    u = make_universe([f"s{i}" for i in range(n)])
    k = draw(st.integers(min_value=0, max_value=max_sets))
    sets = [
        StateSet(u, draw(st.integers(min_value=0, max_value=u.full_bits)))
        for _ in range(k)
    ]
    return u, sets


@settings(max_examples=60, deadline=None)
@given(universe_and_subbasis())
def test_generate_topology_is_smallest_closure(pair):
    u, sets = pair
    topo = generate_topology(u, sets)
    assert topology_axioms_hold(topo)
    assert {s.bits for s in sets} <= {o.bits for o in topo.opens}
    assert {o.bits for o in topo.opens} == closure_oracle(u, sets)


@settings(max_examples=40, deadline=None)
@given(universe_and_subbasis())
def test_every_open_reconstructs_from_subbasis_intersections(pair):
    u, sets = pair
    topo = generate_topology(u, sets)
    # basis: all finite intersections (empty intersection gives the space)
    basis = {u.full_bits}
    for s in sets:
        basis |= {b & s.bits for b in basis}
    for o in topo.opens:
        union = 0
        for b in basis:
            if b & ~o.bits == 0:
                union |= b
        assert union == o.bits
    # no open separates two states of one atom
    for states in signature_atoms(u, sets).values():
        assert all(o.bits & states in (0, states) for o in topo.opens)


def test_is_dense_car_examples(car):
    topo = generate_topology(car.universe, car.contents())
    assert is_dense(car.universe.subset(["dp", "dm"]), topo)
    assert not is_dense(car.universe.subset(["dm", "sm"]), topo)
    assert is_dense(car.universe.full_set(), topo)


@settings(max_examples=50, deadline=None)
@given(universe_and_subbasis(), st.integers(min_value=0))
def test_is_dense_iff_meets_every_minimal_nonempty_open(pair, raw):
    u, sets = pair
    topo = generate_topology(u, sets)
    p = StateSet(u, raw % (u.full_bits + 1))
    nonempty = [o for o in topo.opens if o.bits]
    minimal = [
        o
        for o in nonempty
        if not any(q.bits != o.bits and q.bits & ~o.bits == 0 for q in nonempty)
    ]
    assert is_dense(p, topo) == all(p.bits & o.bits for o in minimal)


def test_supports_and_arguments_for(car):
    u = car.universe
    topo = generate_topology(u, car.contents())
    e3 = u.subset(["dp", "sp"])
    assert e3.issubset(u.subset(["sp", "dp"]))
    assert not e3.issubset(u.subset(["dp"]))

    args = arguments_for(topo, u.subset(["dp", "do", "dm"]))
    expected = {
        u.subset(["dp", "dm", "do"]).bits,
        u.subset(["dp"]).bits,
        u.subset(["dm"]).bits,
        u.subset(["dp", "dm"]).bits,
    }
    assert {a.bits for a in args} == expected

    assert arguments_for(topo, StateSet(u, 0)) == ()


def test_maximal_fip_families_car(car):
    e1, e2, e3 = car.contents()
    fams = maximal_fip_families([e1, e2, e3])
    assert fams == ((e1, e2), (e1, e3))
    assert maximal_fip_families([e2, e3]) == ((e2,), (e3,))
    assert maximal_fip_families([e1]) == ((e1,),)


def test_min_dense_car(car):
    u = car.universe
    e1, e2, e3 = car.contents()
    assert min_dense([e1, e2, e3]) == u.subset(["dp", "dm"])
    assert min_dense([e2, e3]) == u.subset(["sp", "dp", "dm", "sm"])
    assert min_dense([e1]) == e1


def test_min_dense_empty_list():
    with pytest.raises(EmptyEvidenceList):
        min_dense([])


def test_min_dense_equals_union_of_maximal_family_intersections(car):
    # the reference tries every subfamily, not the maximal signatures
    for frame in [car, *(random_frame(seed, 8, 6) for seed in range(200))]:
        evidence = list(frame.contents())
        bits = 0
        for family in maximal_fip_families(evidence):
            inter = family[0]
            for s in family[1:]:
                inter = inter & s
            bits |= inter.bits
        assert min_dense(evidence).bits == bits, frame


@st.composite
def nonempty_evidence(draw, max_states=5, max_sets=4):
    n = draw(st.integers(min_value=1, max_value=max_states))
    u = make_universe([f"s{i}" for i in range(n)])
    k = draw(st.integers(min_value=1, max_value=max_sets))
    sets = [
        StateSet(u, draw(st.integers(min_value=1, max_value=u.full_bits)))
        for _ in range(k)
    ]
    return u, sets


@settings(max_examples=80, deadline=None)
@given(nonempty_evidence())
def test_min_dense_is_minimum_of_dense_opens(pair):
    u, sets = pair
    topo = generate_topology(u, sets)
    candidate = min_dense(sets)
    assert candidate.bits in {o.bits for o in topo.opens}
    assert is_dense(candidate, topo)
    for o in topo.opens:
        if is_dense(o, topo):
            assert candidate.issubset(o)


@settings(max_examples=60, deadline=None)
@given(universe_and_subbasis(), st.integers(min_value=0))
def test_neighborhood_predicates_match_explicit_topology(pair, raw):
    u, sets = pair
    topo = generate_topology(u, sets)
    frame = QuantitativeEvidenceFrame(u, tuple(
        EvidenceItem(f"E{i}", e, Fraction(1, 2)) for i, e in enumerate(sets)
    ))
    s = StateSet(u, raw % (u.full_bits + 1))
    assert frame.is_open(s) == (s.bits in {o.bits for o in topo.opens})
    assert frame.dense_bits(s.bits) == is_dense(s, topo)
    # the atoms partition the universe, uncovered states under signature 0
    covered = 0
    for e in sets:
        covered |= e.bits
    union = 0
    for states, sig in frame.point_signatures:
        assert states and not union & states
        union |= states
        assert states & covered == (states if sig else 0)
    assert union == u.full_bits
    # the intersection-based minimal neighborhoods cover exactly the
    # signature-based minimum dense open
    if covered:
        union = 0
        for nb in frame.minimal_neighborhood_bits:
            union |= nb
        assert union == min_dense(sets).bits
