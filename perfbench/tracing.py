"""Per-layer tracing, installed from outside the program.

Only the traced run imports this module. ``Tracer.install`` replaces each
layer's entry point under the name its caller looks it up with (for example
``topobelief.verify.belief``, not ``topobelief.fusion.belief``) by a wrapper
that records a span or a count; ``uninstall`` puts the originals back.

A span is ``(request, span, parent, name, start, end)``; spans stay in memory
and are written once, by ``write``, when the run ends. A layer's self time is
its span time minus the time of its child spans.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

VERIFY_CHECKS = (
    "mass_axioms", "allocation_definition", "bpa_axioms", "belief_axioms",
    "drc_equivalence", "topological_equivalence", "minimum_dense_open",
)
AGGREGATORS = ("i", "u", "yager", "d")


class _JsonProxy:
    """Stands in for the ``json`` module inside ``topobelief.cli`` so that
    ``json.dumps`` there is timed as rendering; everything else passes through."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._request: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._caches: dict = {}  # name -> cache_info of an lru cache
        self._cache_start: dict = {}

    # -- recording -------------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (self._request, sid, parent, name, start, end)

    def request(self, request_id: int, name: str, fn, *args):
        """Run one request as the root span ``name``."""
        self._request = request_id
        sid = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, name, start)
            self._request = None

    def timed(self, name: str, fn, count: str | None = None):
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            if count:
                self.counts[count] += 1
            sid = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, count: str | None = None) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), count))

    def _wrap_cached_property(self, cls, attr: str, name: str) -> None:
        prop = cls.__dict__[attr]
        replacement = cached_property(self.timed(name, prop.func))
        replacement.__set_name__(cls, attr)
        self._patch(cls, attr, replacement)

    def _wrap_aggregation(self, fusion) -> None:
        """Aggregation spans only for cache misses, named by allocator, with
        the work counts taken from the call's own arguments and result."""
        inner = fusion._image_numerators

        def image_numerators(frame, allocator):
            if self._request is None:
                return inner(frame, allocator)
            label = allocator.label
            misses = inner.cache_info().misses
            # opened before the call, so that spans of a miss are its children
            sid = self._open()
            start = perf_counter()
            try:
                result = inner(frame, allocator)
            except BaseException:
                self._close(sid, f"aggregate.{label}", start)
                raise
            if inner.cache_info().misses == misses:
                # a hit ran no code and opened no span: drop the placeholder
                self._stack.pop()
                self.spans.pop()
                return result
            self._close(sid, f"aggregate.{label}", start)
            acc, den = result
            self.counts[f"aggregate.{label}.calls"] += 1
            self.counts[f"aggregate.{label}.images"] += len(acc)
            self.counts["aggregate.subsets"] += 1 << frame.arity
            self.counts["aggregate.den_bits"] += den.bit_length()
            return result

        image_numerators.cache_info = inner.cache_info
        self._patch(fusion, "_image_numerators", image_numerators)

    def _count_contains(self, fusion) -> None:
        inner = fusion.JustificationFrame.contains

        def contains(jf, s):
            kept = inner(jf, s)
            if self._request is not None:
                self.counts["justify.contains_calls"] += 1
                self.counts["justify.kept"] += kept
            return kept

        self._patch(fusion.JustificationFrame, "contains", contains)

    def install(self) -> None:
        cli = sys.modules["topobelief.cli"]
        dst = sys.modules["topobelief.dst"]
        evidence = sys.modules["topobelief.evidence"]
        fusion = sys.modules["topobelief.fusion"]
        verify = sys.modules["topobelief.verify"]

        self._wrap(evidence, "parse_frame", "parse")

        frame_cls = evidence.QuantitativeEvidenceFrame
        self._wrap_cached_property(frame_cls, "neighborhoods", "qual")
        self._wrap_cached_property(frame_cls, "point_signatures", "qual")
        for module in (fusion, verify):
            self._wrap(module, "generate_topology", "qual")
        for module in (fusion, verify, dst):
            self._wrap(module, "min_dense", "qual")

        self._wrap_aggregation(fusion)

        self._wrap(cli, "belief_report", "justify")
        self._wrap(verify, "belief", "justify", count="verify.belief_calls")
        self._wrap(verify, "normalization_factor", "justify")
        self._count_contains(fusion)

        self._wrap(cli, "render_report", "render")
        self._wrap(fusion.BeliefReport, "to_document", "render")
        self._patch(cli, "json", _JsonProxy(self.timed("render", json.dumps)))

        for check in VERIFY_CHECKS:
            self._wrap(verify, f"check_{check}", f"verify.{check}")
        self._wrap(verify, "combine_evidence", "oracle.combine")

        self._caches = {
            name: fn.cache_info
            for name, fn in (("image_numerators", fusion._image_numerators),
                             ("half_tables", fusion._half_tables))
            if hasattr(fn, "cache_info")
        }
        self._cache_start = {k: info() for k, info in self._caches.items()}

    def uninstall(self) -> None:
        for name, info in self._caches.items():
            end, start = info(), self._cache_start[name]
            self.counts[f"cache.{name}.hits"] += end.hits - start.hits
            self.counts[f"cache.{name}.misses"] += end.misses - start.misses
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, over all requests."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def metrics(self, requests: int, root: str) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; times and counts
        are per request, ratios over the whole traced phase."""
        c = self.counts
        selfs = self.self_times()

        def ms(name):
            return selfs.get(name, 0.0) * 1000 / requests, "ms"

        def per_request(count):
            return c[count] / requests, "count"

        def mean(total, calls, unit="count"):
            return (total / calls if calls else 0.0), unit

        out = {}
        for label in AGGREGATORS:
            out[f"aggregate.{label}.ms"] = ms(f"aggregate.{label}")
        iuy = ("i", "u", "yager")
        out["aggregate.subsets"] = per_request("aggregate.subsets")
        out["aggregate.images"] = mean(sum(c[f"aggregate.{a}.images"] for a in iuy),
                                       sum(c[f"aggregate.{a}.calls"] for a in iuy))
        out["aggregate.d.images"] = mean(c["aggregate.d.images"], c["aggregate.d.calls"])
        out["aggregate.den_bits"] = mean(
            c["aggregate.den_bits"],
            sum(c[f"aggregate.{a}.calls"] for a in AGGREGATORS),
            "bits",
        )
        out["justify.ms"] = ms("justify")
        out["justify.contains_calls"] = per_request("justify.contains_calls")
        out["justify.kept_ratio"] = mean(c["justify.kept"], c["justify.contains_calls"], "ratio")
        out["verify.belief_calls"] = per_request("verify.belief_calls")
        for cache in ("image_numerators", "half_tables"):
            hits, misses = c[f"cache.{cache}.hits"], c[f"cache.{cache}.misses"]
            out[f"cache.{cache}.hit_ratio"] = mean(hits, hits + misses, "ratio")
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.ms"] = ms(f"verify.{check}")
        out["oracle.combine.ms"] = ms("oracle.combine")
        for layer in ("parse", "qual", "render"):
            out[f"{layer}.ms"] = ms(layer)
        out["cli.ms"] = ms(root)
        return out

    def write(self, path) -> None:
        """One JSON array per line: request, span, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
