"""Seeded request generator for the benchmark workloads.

Request ``index`` of workload ``name`` under ``seed`` is a pure function of
those three values, so a run can extend its input pool on demand and two runs
with the same seed see byte-identical frame documents.

The frame shape (state count, item count, how full each evidence set is)
follows a fixed rotation per workload, and only contents, certainties,
propositions and output flags are drawn at random. Request cost is driven by
the shape (the enumerator is 2^items), so rotating shapes instead of drawing
them keeps the workload mix, and with it the per-run averages, the same on
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# (states, items, share of states in each evidence set)
SHAPES = {
    "believe_iuy": [
        (16, 14, 0.5), (32, 15, 0.5), (16, 15, 0.75), (32, 14, 0.75),
        (16, 16, 0.5), (32, 15, 0.75), (16, 14, 0.75), (32, 16, 0.5),
    ],
    "believe_d": [
        (16, 11, 0.5), (16, 12, 0.5), (16, 10, 0.5), (16, 12, 0.5),
        (16, 11, 0.5), (16, 12, 0.5),
    ],
    "verify_corpus": [
        (6, 3, 0.5), (6, 5, 0.5), (8, 3, 0.5), (6, 4, 0.5),
        (10, 3, 0.5), (7, 4, 0.5), (6, 6, 0.5), (9, 3, 0.5),
    ],
}

WORKLOADS = tuple(SHAPES)
MAX_DENOMINATOR = 32
PROPOSITIONS = 8


@dataclass(frozen=True)
class Request:
    """One CLI invocation. ``frame_text`` is written to ``frame_path`` just
    before the request runs; the remaining fields tell the output check what
    was asked for."""

    workload: str
    frame_text: str
    frame_path: str
    argv: tuple[str, ...]
    command: str
    allocators: tuple[str, ...] = ()
    justification: str = ""
    output: str = "json"
    propositions: tuple[tuple[str, ...], ...] = ()


def frame_document(rng: random.Random, states: int, items: int, share: float) -> dict:
    """Distinct evidence sets of one size (non-empty, never the whole space)
    with certainties n/d, d <= MAX_DENOMINATOR. Duplicate sets would change
    how many arguments ``verify`` sweeps, the main source of cost spread
    between frames of one shape."""
    labels = [f"s{k}" for k in range(states)]
    size = min(states - 1, max(1, round(share * states)))
    evidence = []
    seen = set()
    for i in range(items):
        members = tuple(sorted(rng.sample(range(states), size)))
        while members in seen:
            members = tuple(sorted(rng.sample(range(states), size)))
        seen.add(members)
        den = rng.randint(2, MAX_DENOMINATOR)
        num = rng.randint(1, den - 1)
        evidence.append({
            "name": f"E{i + 1}",
            "states": [labels[k] for k in members],
            "certainty": f"{num}/{den}",
        })
    return {"states": labels, "evidence": evidence}


def _propositions(rng: random.Random, doc: dict) -> list[list[str]]:
    """Random subsets, half of them supersets of one evidence set, so that
    both zero and positive beliefs occur under every allocator."""
    labels = doc["states"]
    out = []
    for k in range(PROPOSITIONS):
        keep = rng.uniform(0.3, 0.9)
        chosen = {s for s in labels if rng.random() < keep}
        if k % 2:
            chosen |= set(rng.choice(doc["evidence"])["states"])
        if not chosen:
            chosen = {labels[0]}
        out.append([s for s in labels if s in chosen])
    return out


def make_request(workload: str, seed: int, index: int, workdir: str) -> Request:
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    shapes = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}:{index}")
    doc = frame_document(rng, *shapes[index % len(shapes)])
    text = json.dumps(doc)
    path = f"{workdir}/{workload}.json"
    if workload == "verify_corpus":
        argv = ("verify", "--frame", path, "--output", "json")
        return Request(workload, text, path, argv, "verify")

    # Over four rotations every shape meets each (justification, output) pair.
    combo = (index + index // len(shapes)) % 4
    if workload == "believe_iuy":
        allocators = ("i", "u", "yager")
        justification = ("ds", "sd")[combo % 2]
    else:
        allocators = ("d",)
        justification = "sd"
    output = ("json", "table")[combo // 2]
    props = _propositions(rng, doc)
    argv = [
        "believe", "--frame", path,
        "--alloc", ",".join(allocators),
        "--justification", justification,
        "--props", ";".join(",".join(p) for p in props),
        "--output", output,
    ]
    if output == "table":
        argv.append("--exact")  # exact rationals, so the check can be exact
    else:
        argv += ["--precision", str(rng.randint(2, 6))]
    return Request(
        workload, text, path, tuple(argv), "believe",
        allocators, justification, output, tuple(tuple(p) for p in props),
    )
