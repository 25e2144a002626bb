from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topobelief.core import (
    StateSet,
    format_rational,
    make_universe,
    parse_rational,
    render_decimal,
)
from topobelief.errors import (
    DuplicateLabel,
    EmptyUniverse,
    TooManyStates,
    UniverseMismatch,
    UnknownState,
)


def test_make_universe_car():
    u = make_universe(["sp", "dp", "do", "so", "dm", "sm"])
    assert u.size == 6
    assert u.labels == ("sp", "dp", "do", "so", "dm", "sm")


def test_make_universe_single():
    assert make_universe(["a"]).size == 1


def test_make_universe_rejects_duplicates():
    with pytest.raises(DuplicateLabel):
        make_universe(["a", "a"])


def test_make_universe_rejects_empty():
    with pytest.raises(EmptyUniverse):
        make_universe([])


def test_make_universe_rejects_too_many():
    with pytest.raises(TooManyStates):
        make_universe([f"s{i}" for i in range(65)])


def test_make_state_set_members(car):
    e1 = car.universe.subset(["dp", "dm", "do"])
    assert e1.members() == ("dp", "do", "dm")  # bit order
    assert e1.size == 3


def test_make_state_set_empty_and_idempotent(car):
    u = car.universe
    assert u.subset([]).is_empty()
    assert u.subset(["dp", "dp"]) == u.subset(["dp"])


def test_make_state_set_unknown(car):
    with pytest.raises(UnknownState):
        car.universe.subset(["zz"])


def test_set_algebra_car_examples(car):
    u = car.universe
    e1 = u.subset(["dp", "dm", "do"])
    e2 = u.subset(["dm", "sm"])
    e3 = u.subset(["dp", "sp"])
    assert e1 & e2 == u.subset(["dm"])
    assert e2 | e3 == u.subset(["sp", "dp", "dm", "sm"])
    assert (e2 & e3).is_empty()
    assert u.subset(["dm"]).issubset(e1)


def test_universe_mismatch():
    a = make_universe(["a", "b"]).subset(["a"])
    b = make_universe(["x", "y"]).subset(["x"])
    with pytest.raises(UniverseMismatch):
        a & b
    with pytest.raises(UniverseMismatch):
        a.issubset(b)


_universe = make_universe([f"s{i}" for i in range(8)])
_sets = st.integers(min_value=0, max_value=_universe.full_bits).map(
    lambda b: StateSet(_universe, b)
)


@given(_sets, _sets, _sets)
def test_union_intersection_laws(a, b, c):
    assert (a | b) == (b | a)
    assert (a & b) == (b & a)
    assert ((a | b) | c) == (a | (b | c))
    assert ((a & b) & c) == (a & (b & c))
    assert (a | a) == a
    assert (a & a) == a
    assert (a & (b | c)) == ((a & b) | (a & c))


@given(_sets, _sets, _sets)
def test_subset_partial_order(a, b, c):
    assert a.issubset(a)
    if a.issubset(b) and b.issubset(a):
        assert a == b
    if a.issubset(b) and b.issubset(c):
        assert a.issubset(c)


_rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=997
)


@given(_rationals, _rationals)
def test_rational_arithmetic_lossless(p, q):
    assert (p + q) - q == p
    if q != 0:
        assert (p * q) / q == p


def test_parse_rational_decimal_exact():
    assert parse_rational("0.45") == Fraction(9, 20)
    assert parse_rational("0.9") == Fraction(9, 10)
    assert parse_rational("1") == Fraction(1)


def test_parse_rational_ratio_form():
    assert parse_rational("9/20") == Fraction(9, 20)
    assert parse_rational("1/3") == Fraction(1, 3)


def test_parse_rational_rejects_junk():
    for bad in ("", "ten", "1/0", "-0.5", "1e-3", ".5"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=200))
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_render_decimal_half_up():
    assert render_decimal(Fraction(19, 40)) == "0.48"  # 0.475 rounds up
    assert render_decimal(Fraction(11, 800)) == "0.01"  # 0.01375
    assert render_decimal(Fraction(1, 10)) == "0.10"
    assert render_decimal(Fraction(1)) == "1.00"
    assert render_decimal(Fraction(1, 3), 4) == "0.3333"
    assert render_decimal(Fraction(1, 2), 0) == "1"
