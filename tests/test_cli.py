from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import topobelief.cli as cli
from topobelief.demo import car_frame
from topobelief.evidence import serialize_frame
from topobelief.verify import CheckOutcome, fixed_shape_frame

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def car_path(tmp_path):
    path = tmp_path / "car.json"
    path.write_text(serialize_frame(car_frame()), encoding="utf-8")
    return str(path)


def run(capsys, *args) -> tuple[int, str, str]:
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mass_rounds_to_reference_values(capsys, car_path):
    code, out, _ = run(capsys, "mass", "--frame", car_path, "--precision", "2")
    assert code == 0
    rendered = [line.split()[-1] for line in out.strip().splitlines()[1:]]
    assert rendered == ["0.01", "0.12", "0.04", "0.01", "0.37", "0.10", "0.03", "0.30"]


def test_mass_exact_mode(capsys, car_path):
    code, out, _ = run(capsys, "mass", "--frame", car_path, "--exact")
    assert code == 0
    assert "11/800" in out
    assert "243/800" in out


def test_topology_lists_dense_flags(capsys, car_path):
    code, out, _ = run(capsys, "topology", "--frame", car_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["open", "dense"]
    assert len(lines) == 15  # header + 14 opens
    assert any(line.startswith("{dp,dm}") and line.endswith("yes") for line in lines)
    assert any(line.startswith("{dm,sm}") and line.endswith("no") for line in lines)


def test_allocate_matrix(capsys, car_path):
    code, out, _ = run(capsys, "allocate", "--frame", car_path, "--alloc", "i,u,d")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["evidence", "i", "u", "d", "mass"]
    full_family = next(line for line in lines if line.startswith("{E1,E2,E3}"))
    assert "{}" in full_family  # intersection empty
    assert "{dp,dm}" in full_family  # minimum dense open
    assert "{sp,dp,do,dm,sm}" in full_family  # the exact union: "so" is uncovered


def test_believe_exact_reference_values(capsys, car_path):
    code, out, _ = run(
        capsys,
        "believe", "--frame", car_path, "--justification", "sd",
        "--alloc", "i,u,d", "--props", "dp,do,dm;sp,dp", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    row1 = doc["rows"][0]["beliefs"]
    values = [Fraction(row1[a]["num"], row1[a]["den"]) for a in ("i", "u", "d")]
    assert values == [Fraction(99, 110), Fraction(99, 758), Fraction(342, 380)]
    row2 = doc["rows"][1]["beliefs"]
    assert all(row2[a]["num"] == 0 for a in ("i", "u", "d"))


def test_believe_json_roundtrip_is_exact(capsys, car_path):
    code, out, _ = run(
        capsys,
        "believe", "--frame", car_path, "--justification", "ds",
        "--alloc", "i,u,d", "--props", "dp,do,dm;sp,dp", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    from topobelief.fusion import (
        INTERSECTION, MIN_DENSE, UNION, belief_report, justification_frame,
    )

    frame = car_frame()
    report = belief_report(
        frame,
        [INTERSECTION, UNION, MIN_DENSE],
        justification_frame(frame, "ds"),
        [frame.universe.subset(["dp", "do", "dm"]), frame.universe.subset(["sp", "dp"])],
    )
    for r, row in enumerate(doc["rows"]):
        for c, label in enumerate(doc["allocators"]):
            cell = row["beliefs"][label]
            assert Fraction(cell["num"], cell["den"]) == report.beliefs[r][c]
    for c, label in enumerate(doc["allocators"]):
        cell = doc["normalization"][label]
        assert Fraction(cell["num"], cell["den"]) == report.normalization[c]
        cell = doc["uncertainty"][label]
        assert Fraction(cell["num"], cell["den"]) == report.uncertainty[c]


def test_believe_empty_props(capsys, car_path):
    code, out, _ = run(capsys, "believe", "--frame", car_path, "--props", "")
    assert code == 0
    assert "Uncertainty" in out
    assert "N.f." in out


def test_believe_output_is_deterministic(capsys, car_path):
    args = ("believe", "--frame", car_path, "--justification", "sd",
            "--alloc", "i,u,d,yager", "--props", "dp,do,dm")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_custom_justification_file(capsys, car_path, tmp_path):
    opens = {"opens": [["dp", "dm"], ["sp", "dp", "do", "so", "dm", "sm"]]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(opens), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "believe", "--frame", car_path, "--justification", f"custom:{path}",
        "--alloc", "d", "--props", "dp,dm", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    cell = doc["rows"][0]["beliefs"]["d"]
    # of the min-dense images only {dp,dm} (mass 243/800) and S qualify
    assert Fraction(cell["num"], cell["den"]) == Fraction(243, 254)


def test_custom_justification_missing_total_set(capsys, car_path, tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"opens": [["dp", "dm"]]}), encoding="utf-8")
    code, _, err = run(
        capsys, "believe", "--frame", car_path, "--justification", f"custom:{path}"
    )
    assert code == 2
    assert "CustomFrameMissingTotalSet" in err


def test_custom_allocator_table(capsys, car_path, tmp_path):
    frame = car_frame()
    from topobelief.fusion import INTERSECTION, allocate

    entries = []
    for subset in frame.all_subsets():
        image = allocate(frame, INTERSECTION, subset)
        entries.append(
            {"evidence": list(subset.members()), "image": list(image.members())}
        )
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"map": entries}), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "believe", "--frame", car_path, "--alloc", f"custom:{path}",
        "--props", "dp,do,dm", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    cell = doc["rows"][0]["beliefs"]["custom"]
    assert Fraction(cell["num"], cell["den"]) == Fraction(9, 10)


def test_custom_allocator_rejects_partial_table(capsys, car_path, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps({"map": [{"evidence": [], "image": ["sp"]}]}), encoding="utf-8"
    )
    code, _, err = run(capsys, "believe", "--frame", car_path,
                       "--alloc", f"custom:{path}")
    assert code == 2
    assert "total map" in err


def test_unknown_proposition_state_exits_2(capsys, car_path):
    code, _, err = run(capsys, "believe", "--frame", car_path, "--props", "zz")
    assert code == 2
    assert "UnknownState" in err


def test_missing_frame_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "mass", "--frame", str(tmp_path / "nope.json"))
    assert code == 2
    assert err


def test_unknown_allocator_exits_1(capsys, car_path):
    code, _, err = run(capsys, "believe", "--frame", car_path, "--alloc", "zz")
    assert code == 1
    assert "unknown allocator" in err


def test_bad_precision_exits_1(capsys, car_path):
    code, _, err = run(capsys, "mass", "--frame", car_path, "--precision", "13")
    assert code == 1


def test_usage_error_exits_1(capsys):
    assert cli.main(["believe"]) == 1  # --frame missing


def test_capacity_exceeded_exits_3(capsys, tmp_path):
    doc = {
        "states": ["a", "b", "c"],
        "evidence": [
            {"name": f"E{i}", "states": ["a", "b"] if i % 2 else ["b"],
             "certainty": "0.5"}
            for i in range(25)
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "believe", "--frame", str(path), "--props", "a")
    assert code == 3
    assert "cap" in err


def test_min_dense_believe_on_twenty_items_is_bounded(capsys, tmp_path):
    # 2^20 evidence families: a loop over them one by one would take tens
    # of seconds, while the signature planes answer well under a second
    path = tmp_path / "wide20.json"
    path.write_text(serialize_frame(fixed_shape_frame(7, 16, 20)), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "believe", "--frame", str(path), "--alloc", "d",
                       "--justification", "sd", "--props", "s0,s1,s2;s3")
    assert code == 0
    assert time.perf_counter() - start < 5.0
    assert out


def test_verify_passes_on_car(capsys, car_path):
    code, out, _ = run(capsys, "verify", "--frame", car_path)
    assert code == 0
    assert "drc_equivalence: PASS" in out
    assert "FAIL" not in out


def test_verify_json_output(capsys, car_path):
    code, out, _ = run(capsys, "verify", "--frame", car_path, "--output", "json")
    assert code == 0
    outcomes = json.loads(out)
    assert all(set(o) == {"check", "frame", "detail"} for o in outcomes)


def test_verify_failure_exits_4(capsys, car_path, monkeypatch):
    monkeypatch.setattr(
        cli, "run_all_checks",
        lambda frame: [CheckOutcome("broken", False, {"reason": "injected"}, None)],
    )
    code, out, _ = run(capsys, "verify", "--frame", car_path)
    assert code == 4
    assert "broken: FAIL" in out


def test_demo_matches_golden_files(capsys, tmp_path):
    out_dir = tmp_path / "demo"
    code, _, _ = run(capsys, "demo", "--out", str(out_dir))
    assert code == 0
    golden_files = sorted(GOLDEN.iterdir())
    assert golden_files, "golden files are committed"
    for golden in golden_files:
        produced = out_dir / golden.name
        assert produced.read_bytes() == golden.read_bytes(), golden.name


def test_demo_reports_roundtrip(capsys, tmp_path):
    out_dir = tmp_path / "demo"
    run(capsys, "demo", "--out", str(out_dir))
    doc = json.loads((out_dir / "car_a_report.json").read_text(encoding="utf-8"))
    cell = doc["normalization"]["i"]
    assert Fraction(cell["num"], cell["den"]) == Fraction(53, 80)
    frame_doc = (out_dir / "car.json").read_text(encoding="utf-8")
    from topobelief.evidence import parse_frame

    assert parse_frame(frame_doc) == car_frame()
