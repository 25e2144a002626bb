from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topobelief.core import format_rational
from topobelief.errors import (
    CertaintyOutOfRange,
    DuplicateName,
    EmptyEvidence,
    FrameMismatch,
    FullSetEvidence,
    MalformedDocument,
    UnknownState,
)
from topobelief.evidence import (
    EvidenceItem,
    EvidenceSubset,
    QuantitativeEvidenceFrame,
    check_same_frame,
    parse_frame,
    serialize_frame,
    validate_frame,
)
from topobelief.verify import random_frame

CAR_DOC = {
    "states": ["sp", "dp", "do", "so", "dm", "sm"],
    "evidence": [
        {"name": "E1", "states": ["dp", "dm", "do"], "certainty": "0.9"},
        {"name": "E2", "states": ["dm", "sm"], "certainty": "0.75"},
        {"name": "E3", "states": ["dp", "sp"], "certainty": "0.45"},
    ],
}


def doc(**overrides):
    d = json.loads(json.dumps(CAR_DOC))
    d.update(overrides)
    return json.dumps(d)


def test_parse_car_document():
    frame = parse_frame(doc())
    assert frame.universe.size == 6
    assert frame.arity == 3
    assert [item.certainty for item in frame.items] == [
        Fraction(9, 10),
        Fraction(3, 4),
        Fraction(9, 20),
    ]
    assert frame.items[0].content.members() == ("dp", "do", "dm")


def test_parse_rejects_certainty_one():
    d = doc()
    d = d.replace('"0.9"', '"1.0"')
    with pytest.raises(CertaintyOutOfRange):
        parse_frame(d)


def test_parse_rejects_certainty_zero():
    with pytest.raises(CertaintyOutOfRange):
        parse_frame(doc().replace('"0.9"', '"0.0"'))


def test_parse_rejects_full_set_evidence():
    d = json.loads(doc())
    d["evidence"][0]["states"] = ["sp", "dp", "do", "so", "dm", "sm"]
    with pytest.raises(FullSetEvidence):
        parse_frame(json.dumps(d))


def test_parse_rejects_empty_evidence_content():
    d = json.loads(doc())
    d["evidence"][0]["states"] = []
    with pytest.raises(EmptyEvidence):
        parse_frame(json.dumps(d))


def test_parse_rejects_empty_evidence_list():
    with pytest.raises(EmptyEvidence):
        parse_frame(doc(evidence=[]))


def test_parse_rejects_duplicate_names():
    d = json.loads(doc())
    d["evidence"][1]["name"] = "E1"
    with pytest.raises(DuplicateName):
        parse_frame(json.dumps(d))


def test_parse_rejects_unknown_state():
    d = json.loads(doc())
    d["evidence"][0]["states"] = ["dp", "zz"]
    with pytest.raises(UnknownState):
        parse_frame(json.dumps(d))


def test_parse_rejects_unknown_keys():
    with pytest.raises(MalformedDocument):
        parse_frame(doc(comment="hi"))
    d = json.loads(doc())
    d["evidence"][0]["weight"] = 1
    with pytest.raises(MalformedDocument):
        parse_frame(json.dumps(d))


def test_parse_rejects_missing_keys():
    d = json.loads(doc())
    del d["states"]
    with pytest.raises(MalformedDocument):
        parse_frame(json.dumps(d))


def test_parse_rejects_float_certainty():
    d = json.loads(doc())
    d["evidence"][0]["certainty"] = 0.9
    with pytest.raises(MalformedDocument):
        parse_frame(json.dumps(d))


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedDocument):
        parse_frame("{not json")


def test_parse_accepts_ratio_certainty():
    d = json.loads(doc())
    d["evidence"][0]["certainty"] = "9/10"
    frame = parse_frame(json.dumps(d))
    assert frame.items[0].certainty == Fraction(9, 10)


# 1/5^143 and 3/2^332 are the finite decimals with the most places (143 and
# 332) whose reduced denominator has at most 100 digits
@pytest.mark.parametrize("certainty", [
    Fraction(1, 10**100 - 1), Fraction(10**100 - 2, 10**100 - 1),
    Fraction(1, 5**143), Fraction(3, 2**332),
], ids=["ratio", "ratio-near-1", "decimal-5^143", "decimal-2^332"])
def test_parse_admits_certainties_with_100_digit_denominators(certainty):
    d = json.loads(doc())
    d["evidence"][1]["certainty"] = format_rational(certainty)
    frame = parse_frame(json.dumps(d))
    assert frame.items[1].certainty == certainty
    text = serialize_frame(frame)
    assert parse_frame(text) == frame
    assert serialize_frame(parse_frame(text)) == text


@pytest.mark.parametrize("text", [
    "1/1" + "0" * 100, "0." + "3" * 101, format_rational(Fraction(1, 2**333)),
    # past CPython's 4,300-digit limit on int() from a string
    "0." + "3" * 20_000, "1/" + "7" * 20_000,
], ids=["ratio-101-digits", "decimal-102-digits", "decimal-2^333", "decimal-20000-digits",
        "ratio-20000-digits"])
def test_parse_rejects_certainties_past_100_digit_denominators(text):
    d = json.loads(doc())
    d["evidence"][1]["certainty"] = text
    with pytest.raises(MalformedDocument) as info:
        parse_frame(json.dumps(d))
    assert str(info.value) == ("certainty of 'E2' exceeds 100 digits in its reduced "
                               "denominator or 400 characters")


def test_roundtrip_car():
    frame = parse_frame(doc())
    text = serialize_frame(frame)
    assert parse_frame(text) == frame
    assert serialize_frame(parse_frame(text)) == text


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_roundtrip_random_frames(seed):
    frame = random_frame(seed)
    assert parse_frame(serialize_frame(frame)) == frame


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_accepted_documents_validate_clean(seed):
    frame = parse_frame(serialize_frame(random_frame(seed)))
    assert validate_frame(frame) == []


def test_validate_frame_car_is_clean(car):
    assert validate_frame(car) == []


def test_validate_frame_reports_duplicate_names(car):
    items = (car.items[0], EvidenceItem("E1", car.items[1].content, Fraction(1, 2)))
    frame = QuantitativeEvidenceFrame(car.universe, items)
    assert [v.code for v in validate_frame(frame)] == ["DuplicateName"]


def test_validate_frame_reports_injected_certainty(car):
    items = (
        EvidenceItem("E1", car.items[0].content, Fraction(7, 5)),
        car.items[1],
    )
    frame = QuantitativeEvidenceFrame(car.universe, items)
    assert [v.code for v in validate_frame(frame)] == ["CertaintyOutOfRange"]


def test_evidence_subset_helpers(car):
    s = car.subset(["E1", "E3"])
    assert s.members() == ("E1", "E3")
    assert s.mask == 0b101
    assert [c.members() for c in s.contents()] == [("dp", "do", "dm"), ("sp", "dp")]
    assert car.subset([]).is_empty()
    check_same_frame(car, s)


def test_check_same_frame_rejects_other_frame(car):
    other = random_frame(3)
    with pytest.raises(FrameMismatch):
        check_same_frame(car, EvidenceSubset(other, 0))
