from __future__ import annotations

import ast
import functools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import topobelief
from topobelief.core import StateSet, make_universe
from topobelief.dst import (
    BasicProbabilityAssignment,
    belief_from_bpa,
    combine_evidence,
    dempster_combine,
    simple_support,
    topological_belief,
)
from topobelief.errors import IndexOutOfRange, TotalConflict, UniverseMismatch
from topobelief.evidence import EvidenceItem, QuantitativeEvidenceFrame
from topobelief.fusion import INTERSECTION, MIN_DENSE, belief, justification_frame
from topobelief.verify import fixed_shape_frame, random_frame


def test_simple_support_car(car):
    u = car.universe
    m1 = simple_support(car, 0)
    assert m1.mass(u.subset(["dp", "dm", "do"])) == Fraction(9, 10)
    assert m1.mass(u.full_set()) == Fraction(1, 10)
    m3 = simple_support(car, 2)
    assert m3.mass(u.subset(["dp", "sp"])) == Fraction(9, 20)
    assert m3.mass(u.full_set()) == Fraction(11, 20)


def test_simple_support_index_out_of_range(car):
    with pytest.raises(IndexOutOfRange):
        simple_support(car, 3)
    with pytest.raises(IndexOutOfRange):
        simple_support(car, -1)


def test_bpa_invariants():
    u = make_universe(["a", "b"])
    with pytest.raises(ValueError):
        BasicProbabilityAssignment(u, {StateSet(u, 0): Fraction(1)})
    with pytest.raises(ValueError):
        BasicProbabilityAssignment(u, {u.full_set(): Fraction(1, 2)})
    with pytest.raises(ValueError):
        BasicProbabilityAssignment(
            u, {u.full_set(): Fraction(3, 2), u.subset(["a"]): Fraction(-1, 2)}
        )


def test_combine_with_vacuous_is_identity(car):
    m = simple_support(car, 1)
    u = car.universe
    vac = BasicProbabilityAssignment(u, {u.full_set(): Fraction(1)})
    assert dempster_combine(m, vac).focal == m.focal
    assert dempster_combine(vac, m).focal == m.focal


def test_combine_two_conflicting_simple_supports():
    u = make_universe(["a", "b", "c"])
    m1 = BasicProbabilityAssignment(
        u, {u.subset(["a"]): Fraction(9, 10), u.full_set(): Fraction(1, 10)}
    )
    m2 = BasicProbabilityAssignment(
        u, {u.subset(["b"]): Fraction(9, 10), u.full_set(): Fraction(1, 10)}
    )
    m = dempster_combine(m1, m2)
    # conflict 81/100, so K = 19/100; 9/100 lands on each singleton, 1/100 on S
    assert m.mass(u.subset(["a"])) == Fraction(9, 19)
    assert m.mass(u.subset(["b"])) == Fraction(9, 19)
    assert m.mass(u.full_set()) == Fraction(1, 19)


def test_combine_total_conflict():
    u = make_universe(["a", "b"])
    m1 = BasicProbabilityAssignment(u, {u.subset(["a"]): Fraction(1)})
    m2 = BasicProbabilityAssignment(u, {u.subset(["b"]): Fraction(1)})
    with pytest.raises(TotalConflict):
        dempster_combine(m1, m2)


def test_combine_universe_mismatch():
    a, b = make_universe(["a"]), make_universe(["b"])
    m1 = BasicProbabilityAssignment(a, {a.full_set(): Fraction(1)})
    m2 = BasicProbabilityAssignment(b, {b.full_set(): Fraction(1)})
    with pytest.raises(UniverseMismatch):
        dempster_combine(m1, m2)


_universe = make_universe(["a", "b", "c", "d"])


@st.composite
def bpas(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    focal_bits = draw(
        st.lists(
            st.integers(min_value=1, max_value=_universe.full_bits),
            min_size=k, max_size=k, unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k)
    )
    total = sum(weights)
    return BasicProbabilityAssignment(
        _universe,
        {
            StateSet(_universe, b): Fraction(w, total)
            for b, w in zip(focal_bits, weights)
        },
    )


@settings(max_examples=80, deadline=None)
@given(bpas(), bpas())
def test_combination_commutes(m1, m2):
    try:
        left = dempster_combine(m1, m2)
    except TotalConflict:
        with pytest.raises(TotalConflict):
            dempster_combine(m2, m1)
        return
    assert left.focal == dempster_combine(m2, m1).focal


@settings(max_examples=60, deadline=None)
@given(bpas(), bpas(), bpas())
def test_combination_associates(m1, m2, m3):
    try:
        left = dempster_combine(dempster_combine(m1, m2), m3)
        right = dempster_combine(m1, dempster_combine(m2, m3))
    except TotalConflict:
        return
    assert left.focal == right.focal


@settings(max_examples=60, deadline=None)
@given(bpas())
def test_belief_from_bpa_axioms(m):
    assert belief_from_bpa(m, StateSet(_universe, 0)) == 0
    assert belief_from_bpa(m, _universe.full_set()) == 1
    singles = [StateSet(_universe, 1 << k) for k in range(_universe.size)]
    for a in singles:
        for b in singles:
            union = belief_from_bpa(m, a | b)
            lhs = belief_from_bpa(m, a) + belief_from_bpa(m, b)
            lhs -= belief_from_bpa(m, a & b)
            assert union >= lhs


def test_combined_car_belief(car):
    combined = combine_evidence(car)
    p1 = car.universe.subset(["dp", "do", "dm"])
    assert belief_from_bpa(combined, p1) == Fraction(477, 530)
    assert belief_from_bpa(combined, car.universe.full_set()) == 1
    assert belief_from_bpa(combined, StateSet(car.universe, 0)) == 0


def _pairwise_combination(frame):
    """The literal reference: Dempster's pairwise rule folded over the items."""
    supports = [simple_support(frame, i) for i in range(frame.arity)]
    u = frame.universe
    vacuous = BasicProbabilityAssignment(u, {u.full_set(): Fraction(1)})
    return functools.reduce(dempster_combine, supports, vacuous)


def test_combine_evidence_equals_pairwise_rule(car):
    frames = [random_frame(seed, 8, 10) for seed in range(500)]
    frames += [fixed_shape_frame(seed, states, 14) for seed in range(3) for states in (16, 32)]
    frames.append(car)
    for frame in frames:
        assert combine_evidence(frame).focal == _pairwise_combination(frame).focal, frame


@pytest.mark.parametrize("content", ["empty", "full"])
def test_combine_evidence_rejects_invalid_items_like_pairwise_rule(content):
    u = make_universe(["a", "b", "c"])
    odd = StateSet(u, 0) if content == "empty" else u.full_set()
    frame = QuantitativeEvidenceFrame(u, (
        EvidenceItem("E1", u.subset(["a", "b"]), Fraction(1, 2)),
        EvidenceItem("E2", odd, Fraction(2, 3)),
    ))
    with pytest.raises(ValueError) as folded:
        combine_evidence(frame)
    with pytest.raises(ValueError) as pairwise:
        _pairwise_combination(frame)
    assert type(folded.value) is type(pairwise.value)
    assert str(folded.value) == str(pairwise.value)


def _imported_modules(module: str) -> set[str]:
    """Package modules that ``module`` imports, directly or through others."""
    package = Path(topobelief.__file__).parent
    seen: set[str] = set()
    todo = [module]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                todo.append(node.module)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("topobelief."):
                todo.append(node.module.split(".", 1)[1])
    return seen - {module}


def test_dst_oracle_does_not_import_fusion():
    assert "fusion" not in _imported_modules("dst")


def test_topological_belief_car(car):
    u = car.universe
    assert topological_belief(car, u.subset(["sp", "dp", "do", "dm"]))
    assert not topological_belief(car, u.subset(["sp", "dp"]))
    assert topological_belief(car, u.full_set())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3_000))
def test_intersection_pipeline_equals_combined_belief(seed):
    frame = random_frame(seed, max_states=5, max_items=4)
    ds = justification_frame(frame, "ds")
    combined = combine_evidence(frame)
    u = frame.universe
    for bits in range(u.full_bits + 1):
        p = StateSet(u, bits)
        assert belief(frame, INTERSECTION, ds, p) == belief_from_bpa(combined, p)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3_000))
def test_min_dense_pipeline_matches_qualitative_belief(seed):
    frame = random_frame(seed, max_states=5, max_items=4)
    sd = justification_frame(frame, "sd")
    u = frame.universe
    for bits in range(u.full_bits + 1):
        p = StateSet(u, bits)
        assert topological_belief(frame, p) == (belief(frame, MIN_DENSE, sd, p) > 0)
