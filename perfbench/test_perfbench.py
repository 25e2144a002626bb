"""Self-tests of the benchmark harness: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gen
import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
from topobelief import cli  # noqa: E402
from topobelief.evidence import parse_frame  # noqa: E402


def test_generator_is_deterministic_per_seed():
    for workload in gen.WORKLOADS:
        first = [gen.make_request(workload, 7, i, "w") for i in range(12)]
        again = [gen.make_request(workload, 7, i, "w") for i in range(12)]
        other = [gen.make_request(workload, 8, i, "w") for i in range(12)]
        assert first == again
        assert all(a.frame_text != b.frame_text for a, b in zip(first, other))
        for req in first:
            parse_frame(req.frame_text)  # every generated frame is valid


def _corrupt_table(text: str, row: int, col: int, value: Fraction) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[2 + row].split()
    cells[1 + col] = str(value)
    lines[2 + row] = "  ".join(cells) + "\n"
    return "".join(lines)


def _corrupt_json(text: str, row: int, label: str, value: Fraction) -> str:
    doc = json.loads(text)
    doc["rows"][row]["beliefs"][label].update(num=value.numerator, den=value.denominator)
    return json.dumps(doc)


def _corrupted(req, stdout: str) -> str:
    """The same output with one belief cell changed to a value in [0, 1]
    that the oracle for that column rules out."""
    report = (checks.read_json_report if req.output == "json"
              else checks.read_table_report)(stdout)
    label = "i" if "i" in req.allocators else "d"
    col = req.allocators.index(label)
    old = report.beliefs[0][col]
    if label == "i":
        new = old / 2 if old else Fraction(1, 3)
    else:
        new = Fraction(0) if old else Fraction(1, 3)
    if req.output == "json":
        return _corrupt_json(stdout, 0, label, new)
    return _corrupt_table(stdout, 0, col, new)


def _requests(tmp_path):
    """ds requests of believe_iuy and sd requests of believe_d, in both
    output formats."""
    for workload in ("believe_iuy", "believe_d"):
        for index in range(8):
            req = gen.make_request(workload, 3, index, str(tmp_path))
            if req.justification == ("ds" if workload == "believe_iuy" else "sd"):
                yield req


def test_single_corrupted_cell_is_a_failure(tmp_path):
    seen = set()
    for req in _requests(tmp_path):
        seen.add((req.workload, req.output))
        _, code, stdout = run.run_request(cli.main, req)
        assert checks.check(req, code, stdout) is None
        assert checks.check(req, code, _corrupted(req, stdout)) is not None
    assert len(seen) == 4


def test_loop_counts_a_corrupted_request(tmp_path):
    def corrupting_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        print(_corrupted(req, out.getvalue()), end="")
        return code

    req = next(_requests(tmp_path))
    loop = run.Loop(corrupting_main, checks.check, req.workload, 3, [req])
    loop.step(0)
    loop.step(0, cli.main)
    assert len(loop.latencies) == 2
    assert len(loop.failures) == 1


def test_request_times_are_scaled_by_the_kernel_runs_around_them():
    loop = run.Loop(None, None, "believe_d", 0, [])
    loop.latencies = [0.1] * 30 + [0.2] * 30
    # the machine halves its speed after request 30; one kernel run is hit
    loop.kernels = [0.002] * 31 + [0.004] * 30
    loop.kernels[10] = 0.02
    ref = run.speed.REFERENCE_MS / 1000
    expected = [0.1 * ref / 0.002] * 30 + [0.2 * ref / 0.004] * 30
    expected[30] = 0.2 * ref / 0.003  # its window is half slow, half fast
    assert loop.scaled_latencies() == pytest.approx(expected)


def test_tail_has_at_least_ten_samples_beyond():
    rng = random.Random(1)
    for n in (11, 12, 40, 100, 137, 1000):
        samples = [rng.random() for _ in range(n)]
        value, percentile, beyond = run.tail(samples)
        ordered = sorted(samples)
        assert beyond == sum(s > value for s in samples) >= 10
        # the next higher sample, the next higher percentile, has fewer
        higher = ordered[ordered.index(value) + 1]
        assert sum(s > higher for s in samples) < 10
        assert percentile == 100 * (n - 10) / n
    assert run.tail([float(k) for k in range(100)])[:2] == (89.0, 90.0)


def test_traced_self_times_add_up_to_the_request(tmp_path):
    import tracing

    fusion = sys.modules["topobelief.fusion"]
    fusion._image_numerators.cache_clear()
    fusion._half_tables.cache_clear()
    req = gen.make_request("believe_iuy", 3, 0, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_request(lambda argv: tracer.request(0, "request", cli.main, argv), req)
    finally:
        tracer.uninstall()
    _, _, _, name, start, end = tracer.spans[0]
    assert name == "request"
    assert abs(sum(tracer.self_times().values()) - (end - start)) < 1e-9
    parents = {tracer.spans[parent][3] for _, _, parent, name, _, _ in tracer.spans
               if name == "qual"}
    assert any(p.startswith("aggregate.") for p in parents)


def _bench(args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads(run.REFERENCE.read_text())["layer_map"]
    assert list(layer_map) == [m["name"] for m in spec["per_layer"]]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench(["--workload", "believe_d", "--seed", "5",
                       "--seconds", "0.3", "--trace", str(trace)])
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[kind]
        }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(["--workload", "believe_d", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
