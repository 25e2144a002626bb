from __future__ import annotations

import json
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from reference import is_dense
import topobelief.cli as cli
from topobelief.core import StateSet, make_universe
from topobelief.demo import car_frame
from topobelief.evidence import (
    EvidenceItem,
    EvidenceSubset,
    QuantitativeEvidenceFrame,
    serialize_frame,
)
from topobelief.topology import generate_topology
from topobelief.verify import CheckOutcome, fixed_shape_frame, random_frame

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


def test_topology_dense_flags_equal_the_materialised_reference(capsys, tmp_path):
    # the flags come from the minimal neighborhoods; is_dense scans every open
    path = tmp_path / "frame.json"
    for frame in [car_frame()] + [random_frame(seed, 8, 6) for seed in range(300)]:
        path.write_text(serialize_frame(frame), encoding="utf-8")
        topo = generate_topology(frame.universe, frame.contents())
        expected = [is_dense(o, topo) for o in topo.opens]
        code, out, _ = run(capsys, "topology", "--frame", str(path), "--output", "json")
        assert code == 0
        assert [o["dense"] for o in json.loads(out)["opens"]] == expected
        code, out, _ = run(capsys, "topology", "--frame", str(path))
        assert code == 0
        flags = [line.split()[-1] for line in out.strip().splitlines()[1:]]
        assert flags == ["yes" if dense else "no" for dense in expected]


def test_topology_on_twenty_four_states_and_seven_items_is_bounded(capsys, tmp_path):
    # 13,258 opens: a denseness scan over every open for every open took
    # about 4 s on a 2-vCPU Xeon
    path = tmp_path / "wide24x7.json"
    path.write_text(serialize_frame(fixed_shape_frame(4, 24, 7)), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "topology", "--frame", str(path), "--output", "json")
    assert code == 0
    assert time.perf_counter() - start < 2.0
    assert json.loads(out)["opens"]


def _singleton_frame():
    """24 states and 22 items of one state each: 2^22 + 1 opens."""
    u = make_universe([f"s{k}" for k in range(24)])
    return QuantitativeEvidenceFrame(u, tuple(
        EvidenceItem(f"E{k + 1}", StateSet(u, 1 << k), Fraction(1, 2)) for k in range(22)))


def _discrete_frame():
    """24 states with distinct 4-of-8 item signatures: no state's signature
    holds another's, so every state is its own minimal neighborhood and all
    2^24 sets are open."""
    u = make_universe([f"s{k}" for k in range(24)])
    signatures = list(combinations(range(8), 4))[::2][:24]
    return QuantitativeEvidenceFrame(u, tuple(
        EvidenceItem(f"E{i + 1}", StateSet(u, sum(
            1 << k for k, sig in enumerate(signatures) if i in sig)), Fraction(1, 2))
        for i in range(8)))


@pytest.mark.parametrize("command, build", [
    ("topology", _singleton_frame),
    ("topology", _discrete_frame),
], ids=["topology-singletons", "topology-discrete"])
def test_listing_more_opens_than_the_cap_exits_3(capsys, tmp_path, command, build):
    # listing every open ran past 15 s on a 2-vCPU Xeon and did not end
    path = tmp_path / "frame.json"
    path.write_text(serialize_frame(build()), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--frame", str(path))
    assert code == 3
    assert time.perf_counter() - start < 2.0
    assert "cap of 262144 opens" in err
    assert out == ""


def test_verify_on_a_discrete_topology_is_bounded(capsys, tmp_path):
    # all 2^24 sets are open; verify exited 3 when it listed the topology
    path = tmp_path / "discrete.json"
    path.write_text(serialize_frame(_discrete_frame()), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--frame", str(path))
    assert code == 0
    assert time.perf_counter() - start < 2.0
    assert [line.split()[-1] for line in out.splitlines()] == ["PASS"] * 17


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


@pytest.mark.parametrize("option, document, error", [
    ("--alloc", {"map": [{"evidence": ["E9"], "image": ["sp"]}]},
     "UnknownEvidence: no evidence named 'E9'"),
    # a string is not read as the list of its characters
    ("--alloc", {"map": [{"evidence": "E1", "image": ["sp"]}]},
     'MalformedDocument: entry "evidence" must be a list of strings'),
    ("--justification", {"opens": [["sp", "dp", "do", "so", "dm", "sm"], 5]},
     "MalformedDocument: an open must be a list of strings"),
    ("--justification", {"opens": ["sp"]},
     "MalformedDocument: an open must be a list of strings"),
], ids=["unknown-evidence", "evidence-string", "open-number", "open-string"])
def test_malformed_custom_documents_exit_2_with_one_error_line(
        capsys, car_path, tmp_path, option, document, error):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run(capsys, "believe", "--frame", car_path, option, f"custom:{path}")
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_exact_outputs_render_at_the_certainty_limit(capsys, tmp_path):
    # 24 items with 100-digit denominators: every exact value stays below
    # CPython's 4,300-digit limit on int-to-str conversion
    universe = make_universe([f"s{k}" for k in range(6)])
    frame = QuantitativeEvidenceFrame(universe, tuple(
        EvidenceItem(f"E{i + 1}", StateSet(universe, 1 << i % 5 | 1 << (i + 1) % 5),
                     Fraction(i + 1, 10**99 + i)) for i in range(24)))
    path = tmp_path / "frame.json"
    path.write_text(serialize_frame(frame), encoding="utf-8")
    for output in (["--exact"], ["--output", "json"]):
        code, out, err = run(capsys, "believe", "--frame", str(path), "--alloc", "i,u",
                             "--props", "s0,s1", *output)
        assert (code, err) == (0, "")
        assert out


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
    for mask in range(1 << frame.arity):
        subset = EvidenceSubset(frame, mask)
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


def test_repeated_custom_allocator_label_exits_1(capsys, car_path, tmp_path):
    # two custom tables share the label "custom", which keys the JSON cells
    frame = car_frame()
    from topobelief.fusion import INTERSECTION, UNION, allocate

    paths = []
    subsets = [EvidenceSubset(frame, mask) for mask in range(1 << frame.arity)]
    for alloc in (INTERSECTION, UNION):
        entries = [{"evidence": list(subset.members()),
                    "image": list(allocate(frame, alloc, subset).members())}
                   for subset in subsets]
        paths.append(tmp_path / f"{alloc.label}.json")
        paths[-1].write_text(json.dumps({"map": entries}), encoding="utf-8")
    spec = ",".join(f"custom:{path}" for path in paths)
    for output in ("table", "json"):
        code, out, err = run(capsys, "believe", "--frame", car_path, "--alloc", spec,
                             "--props", "dp,do,dm", "--output", output)
        assert (code, out) == (1, "")
        assert "'custom' is listed twice" in err


@pytest.mark.parametrize("command", ["believe", "allocate"])
def test_repeated_builtin_allocator_exits_1(capsys, car_path, command):
    code, out, err = run(capsys, command, "--frame", car_path, "--alloc", "i,u,i",
                         "--output", "json")
    assert (code, out) == (1, "")
    assert "'i' is listed twice" in err


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


def test_verify_on_thirty_states_is_bounded(capsys, tmp_path):
    # 2^30 propositions: the equivalence checks visit only the sets that
    # generate their two sides, where a sweep over every proposition would
    # not end
    path = tmp_path / "wide30.json"
    path.write_text(serialize_frame(fixed_shape_frame(1, 30, 3)), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--frame", str(path))
    assert code == 0
    assert time.perf_counter() - start < 5.0
    assert "topological_equivalence: PASS" in out
    assert "FAIL" not in out


def test_verify_on_twenty_four_states_and_six_items_is_bounded(capsys, tmp_path):
    # 21 atoms: a sweep over their 2^21 unions took minutes
    path = tmp_path / "wide24.json"
    path.write_text(serialize_frame(fixed_shape_frame(2, 24, 6)), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--frame", str(path))
    assert code == 0
    assert time.perf_counter() - start < 5.0
    assert "FAIL" not in out


def test_verify_on_twenty_eight_states_and_eight_items_is_bounded(capsys, tmp_path):
    # 41,580 opens: a minimum-dense-open check that scanned every open for
    # every open did not finish in 120 s on a 2-vCPU Xeon
    path = tmp_path / "wide28.json"
    path.write_text(serialize_frame(fixed_shape_frame(5, 28, 8)), encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", "--frame", str(path))
    assert code == 0
    assert time.perf_counter() - start < 10.0
    assert "minimum_dense_open: PASS" in out
    assert "FAIL" not in out


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
