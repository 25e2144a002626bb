#!/usr/bin/env python3
"""topobelief benchmark: one client, closed loop, requests in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each request is ``topobelief.cli.main(argv)``
with stdout captured, on a frame document generated from the seed (see
``gen.py``); the next request starts when the previous one has finished.
Times are taken at a reference machine speed, read from the kernel in
``speed.py`` that runs next to every request. Requests run until their summed
time at that speed reaches ``--seconds`` and peak memory has been read (see
``Loop.run_for``). Every output is checked (``checks.py``) outside the timed
interval, and a fixed canary set (the first requests of seed 0) is replayed
at the end and compared with the digests in ``reference.json``.

With ``--trace 0`` the last line of stdout is the end-to-end result. With
``--trace 1`` each request runs once untraced and once with layer wrappers
installed (``tracing.py``), and the last line holds the per-layer metrics;
the spans go to ``.perfbench_work/``.
The line before the result describes the machine, the seed and the run,
and holds the canary digests this run computed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen  # sibling modules: the script's own directory is on sys.path
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 15
POOL_SIZE = 256  # requests generated during set-up; later ones on demand
# Peak RSS is read at the latest after this many requests. Every request
# adds at least one entry to each lru cache of the package, whose largest
# maxsize is 256, so by then they are full.
RSS_MAX_REQUESTS = 256
# A request is scaled by the median of the kernel runs within this many
# places of it on either side: one kernel run can be hit by an interrupt, a
# slow spell of the machine lasts far longer than ten requests.
SPEED_WINDOW = 5
CANARY_SEED = 0
CANARY_REQUESTS = 4
TAIL_BEYOND = 10


def import_program():
    """The package's CLI module, imported from this checkout's ``src``."""
    cli = importlib.import_module("topobelief.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported topobelief from {cli.__file__}, not {SRC}")
    return cli


# Timed in a fresh interpreter, so that every module the program needs,
# standard library included, is imported inside the timed interval.
SETUP_CHILD = """
import sys, time
src, here, workload, seed, count, workdir = sys.argv[1:]
start = time.perf_counter()
sys.path[:0] = [src, here]
import topobelief.cli
import gen
pool = [gen.make_request(workload, int(seed), i, workdir) for i in range(int(count))]
print(time.perf_counter() - start)
"""


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median over SETUP_REPEATS fresh interpreters of the time to import
    ``topobelief.cli`` and generate the input pool: at the reference speed,
    and as measured. The speed kernel runs here just before and just after
    each interpreter."""
    scaled, wall = [], []
    after = speed.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        before = after
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(HERE),
             workload, str(seed), str(POOL_SIZE), str(WORKDIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        after = speed.kernel_seconds()
        seconds = float(done.stdout)
        scaled.append(seconds * speed.scale((before + after) / 2))
        wall.append(seconds)
    return statistics.median(scaled), statistics.median(wall)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def bounded_caches() -> list:
    """Every lru cache with a maxsize in the program's modules."""
    return [
        fn for name, module in list(sys.modules.items())
        if name == "topobelief" or name.startswith("topobelief.")
        for fn in vars(module).values()
        if hasattr(fn, "cache_info") and fn.cache_info().maxsize
    ]


def run_request(main, req):
    """Returns (seconds, exit code, stdout); only the CLI call is timed."""
    with open(req.frame_path, "w", encoding="utf-8") as fh:
        fh.write(req.frame_text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(req.argv))
    except Exception as exc:  # a crashing request is a failed request, not a crashed run
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Loop:
    """The closed loop: requests, their latencies and their failures.

    The speed kernel runs before the first request and after every request,
    outside the timed interval, so request ``i`` lies between kernel runs
    ``i`` and ``i + 1``."""

    def __init__(self, main, check, workload: str, seed: int, pool: list):
        self.main = main
        self.check = check
        self.workload = workload
        self.seed = seed
        self.pool = pool
        self.latencies: list[float] = []
        self.kernels: list[float] = []
        self.failures: list[str] = []

    def request(self, index: int):
        while index >= len(self.pool):
            self.pool.append(
                gen.make_request(self.workload, self.seed, len(self.pool), str(WORKDIR))
            )
        return self.pool[index]

    def call(self, index: int, main=None) -> tuple:
        req = self.request(index)
        if not self.kernels:
            self.kernels.append(speed.kernel_seconds())
        seconds, code, stdout = run_request(main or self.main, req)
        self.latencies.append(seconds)
        self.kernels.append(speed.kernel_seconds())
        return index, req, code, stdout

    def scaled_latencies(self) -> list[float]:
        """Request times at the reference speed, each scaled by the median
        of the kernel runs from SPEED_WINDOW before it to SPEED_WINDOW after."""
        k = self.kernels
        return [
            seconds * speed.scale(statistics.median(
                k[max(0, i + 1 - SPEED_WINDOW):i + SPEED_WINDOW + 1]))
            for i, seconds in enumerate(self.latencies)
        ]

    def verdict(self, index: int, req, code, stdout: str) -> None:
        problem = self.check(req, code, stdout)
        if problem:
            self.failures.append(f"request {index}: {problem}")

    def step(self, index: int, main=None) -> None:
        self.verdict(*self.call(index, main))

    def run_for(self, seconds: float) -> tuple[float, int]:
        """Runs requests until their summed time at the reference speed
        reaches ``seconds`` and peak RSS has been read; returns the peak RSS
        in MB and the number of requests run when it was read.

        The time is summed at the reference speed, scaled by the kernel runs
        so far, so that a slow spell of the machine does not cut the number
        of requests, and with it the percentile of the tail.

        Peak RSS is read right after the first request that leaves every
        bounded lru cache of the program full, or after RSS_MAX_REQUESTS, so
        it does not depend on how many requests the run's time allowed.
        Outputs up to then are checked only after the reading, so the
        oracles' memory stays out of it."""
        caches = bounded_caches()
        pending = []
        peak = None
        index = 0
        total = 0.0
        while total < seconds or peak is None:
            pending.append(self.call(index))
            index += 1
            recent = self.kernels[-2 * SPEED_WINDOW:]
            total += self.latencies[-1] * speed.scale(statistics.median(recent))
            if peak is None and (index == RSS_MAX_REQUESTS or all(
                    fn.cache_info().currsize >= fn.cache_info().maxsize for fn in caches)):
                peak, peak_at = peak_rss_mb(), index
            if peak is not None:
                for done in pending:
                    self.verdict(*done)
                pending.clear()
        return peak, peak_at


def canary(main, check, workload: str) -> tuple[list[str], list[str]]:
    """Digests of the first canary requests, and the reasons any failed."""
    digests, failures = [], []
    for index in range(CANARY_REQUESTS):
        req = gen.make_request(workload, CANARY_SEED, index, str(WORKDIR))
        _, code, stdout = run_request(main, req)
        digests.append(hashlib.sha256(stdout.encode()).hexdigest())
        problem = check(req, code, stdout)
        if problem:
            failures.append(f"canary {index}: {problem}")
    return digests, failures


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, samples above it) for the highest percentile with
    at least ``beyond`` samples above it, which is the (beyond+1)-th largest
    sample; with too few samples, the smallest one."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - beyond - 1)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def machine() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "topobelief" / "__init__.py").is_file():
        print(f"error: no topobelief package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKDIR.mkdir(exist_ok=True)

    setup_s = setup_wall_s = None
    if not args.trace:
        setup_s, setup_wall_s = setup_seconds(args.workload, args.seed)
    cli = import_program()
    pool = [gen.make_request(args.workload, args.seed, i, str(WORKDIR))
            for i in range(POOL_SIZE)]
    # imported after the program, so that it binds the modules the requests use
    check = importlib.import_module("checks").check

    loop = Loop(cli.main, check, args.workload, args.seed, pool)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine()}
    if args.trace:
        metrics = traced(loop, cli.main, args, info)
    else:
        peak, peak_at = loop.run_for(args.seconds)
        info["rss_after_requests"] = peak_at
        metrics = None

    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["canary"][args.workload]
    digests, canary_failures = canary(cli.main, check, args.workload)
    info["canary_digests"] = digests
    for index, (got, want) in enumerate(zip(digests, expected)):
        if got != want:
            canary_failures.append(f"canary {index}: output digest changed")
    failures = loop.failures + canary_failures
    attempted = len(loop.latencies) + CANARY_REQUESTS

    if metrics is None:
        lat = loop.scaled_latencies()
        value, pct, beyond = tail(lat)
        wall = loop.latencies
        info.update(
            requests=len(lat), tail_percentile=pct, tail_samples_beyond=beyond,
            kernel_ms=statistics.median(loop.kernels) * 1000,
            reference_kernel_ms=speed.REFERENCE_MS,
            wall={"throughput_rps": len(wall) / sum(wall),
                  "latency_p50_ms": statistics.median(wall) * 1000,
                  "latency_tail_ms": tail(wall)[0] * 1000,
                  "setup_s": setup_wall_s},
        )
        metrics = {
            "throughput_rps": metric(len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
            "latency_tail_ms": metric(value * 1000, "ms"),
            "success_ratio": metric((attempted - len(failures)) / attempted, "ratio"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak, "MB"),
        }
    info["failures"] = failures[:5]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def traced(loop: Loop, main, args, info: dict) -> dict:
    """Per-layer metrics. Each request runs twice in a row, untraced and then
    traced, both with cold caches, until the untraced runs reach half of
    ``--seconds``; pairing them keeps machine drift out of the overhead."""
    import tracing

    fusion = sys.modules["topobelief.fusion"]
    tracer = tracing.Tracer()
    root = "request"
    untraced = traced_s = 0.0
    index = 0
    while untraced < args.seconds / 2 or index == 0:
        fusion._image_numerators.cache_clear()
        fusion._half_tables.cache_clear()
        loop.step(index)
        untraced += loop.latencies[-1]
        fusion._image_numerators.cache_clear()
        fusion._half_tables.cache_clear()
        tracer.install()
        try:
            loop.step(index, lambda argv, i=index: tracer.request(i, root, main, argv))
        finally:
            tracer.uninstall()
        traced_s += loop.latencies[-1]
        index += 1

    out = {name: metric(v, unit) for name, (v, unit) in tracer.metrics(index, root).items()}
    out["request.ms"] = metric(traced_s * 1000 / index, "ms")
    out["trace.overhead"] = metric(100 * (traced_s / untraced - 1), "%")
    spans = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)
    info.update(requests=index, spans=len(tracer.spans), span_file=str(spans))
    return out


if __name__ == "__main__":
    sys.exit(main())
