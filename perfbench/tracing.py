"""Spans around calls into the system's public functions, and the ledger.

The traced run swaps module attributes (the names a caller looks up at call
time) for wrappers that record a span per call: ``(cycle, span, parent,
name, start, end)`` on ``time.perf_counter``, which on Linux is the
system-wide monotonic clock, so spans recorded in a worker process line up
with spans recorded here. Nothing under ``src/`` is edited; every wrapper is
removed when the traced region ends.

A layer's *self time* in a cycle is the summed duration of its spans minus
the time their child spans cover. The cycle's root span is named ``cycle``;
its self time is the cycle's ``unattributed`` time, so per cycle the layer
self times plus ``unattributed`` equal the cycle's duration exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

#: Per-layer metrics: name -> unit (BENCHMARK.json lists the same set).
PER_LAYER = {
    "analysis.depth_ms": "ms",
    "analysis.core_ms": "ms",
    "stack.build_ms": "ms",
    "mapper.map_ms": "ms",
    "mapper.self_ms": "ms",
    "mapper.explorations": "count",
    "mapper.merges": "count",
    "mapper.kept_nodes": "count",
    "simulator.probe_ms": "ms",
    "simulator.probe_hit_ratio": "ratio",
    "simulator.eval_cache_hit_rate": "ratio",
    "remapper.diff_ms": "ms",
    "remapper.cycle_ms.quiet": "ms",
    "remapper.cycle_ms.cut": "ms",
    "remapper.cycle_ms.replug": "ms",
    "routing.orient_ms": "ms",
    "routing.paths_ms": "ms",
    "routing.compile_ms": "ms",
    "routing.routes": "count",
    "deadlock.check_ms": "ms",
    "deadlock.dependency_arcs": "count",
    "distribute.ms": "ms",
    "distribute.bytes_sent": "bytes",
    "distribute.failed_hosts": "count",
    "iso.match_ms": "ms",
    "serialize.encode_ms": "ms",
    "serialize.decode_ms": "ms",
    "serialize.payload_decode_ms": "ms",
    "serialize.outcome_bytes": "bytes",
    "serialize.payload_bytes": "bytes",
    "worker.job_ms": "ms",
    "worker.self_ms": "ms",
    "worker.queue_wait_ms": "ms",
    "server.route_op_ms_p99": "ms",
    "server.map_op_ms_p50": "ms",
    "loadgen.late_ms_p99": "ms",
    "loadgen.sent": "count",
    "route_ms_p50": "ms",
    "route_ms_p99": "ms",
    "trace.cycle_ms_p50": "ms",
    "trace.unattributed_ms": "ms",
    "trace.sizing_ms": "ms",
}

#: Span name -> the per-layer metric its self time feeds.
LAYER_OF_SPAN = {
    "analysis.depth": "analysis.depth_ms",
    "analysis.core": "analysis.core_ms",
    "stack.build": "stack.build_ms",
    "mapper.map": "mapper.self_ms",
    "simulator.probe": "simulator.probe_ms",
    "remapper.diff": "remapper.diff_ms",
    "routing.orient": "routing.orient_ms",
    "routing.paths": "routing.paths_ms",
    "routing.compile": "routing.compile_ms",
    "deadlock.check": "deadlock.check_ms",
    "distribute": "distribute.ms",
    "iso.match": "iso.match_ms",
    "serialize.encode": "serialize.encode_ms",
    "serialize.decode": "serialize.decode_ms",
    "serialize.payload_decode": "serialize.payload_decode_ms",
    "worker.job": "worker.self_ms",
    "worker.queue_wait": "worker.queue_wait_ms",
    "trace.sizing": "trace.sizing_ms",
    "cycle": "trace.unattributed_ms",
}

#: Span name -> a per-layer metric of its *inclusive* time (children too):
#: what a caller of ``map()`` or of a worker job waits for.
INCLUSIVE_OF_SPAN = {
    "mapper.map": "mapper.map_ms",
    "worker.job": "worker.job_ms",
}

#: Probe-service methods a mapper calls; their time is the simulator's.
_PROBE_METHODS = (
    "probe_host",
    "probe_switch",
    "probe_loopback",
    "warm_prefix",
    "warm_siblings",
    "route_crosses",
)

Span = tuple  # (cycle, span_id, parent_id, name, start, end)


class Tracer:
    """Records spans of the current cycle; inactive between cycles."""

    def __init__(self) -> None:
        self.cycle = -1
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.services: list[Any] = []
        self._stack: list[int] = []
        self._next_id = 0

    def begin(self, name: str = "cycle") -> None:
        """Open a new cycle with a root span ``name``."""
        self.cycle += 1
        self.spans = []
        self.counters = defaultdict(float)
        self.services = []
        self._stack = [self._open()]
        self._root = (name, time.perf_counter())

    def end(self) -> list[Span]:
        """Close the root span; return the cycle's spans (root first)."""
        end = time.perf_counter()
        root_id = self._stack.pop()
        name, start = self._root
        self.spans.insert(0, (self.cycle, root_id, None, name, start, end))
        for svc in self.services:
            stats = svc.eval_cache_stats
            if stats is not None:
                self.counters["cache_hits"] += stats.hits
                self.counters["cache_misses"] += stats.misses
        self.services = []
        return self.spans

    def _open(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around each call in a cycle."""

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            sid = self._open()
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.cycle, sid, parent, name, start, end))
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced


# ----------------------------------------------------------------------
# what to wrap: (module, attribute, span name, counter hook)
# ----------------------------------------------------------------------
def _count_service(tracer: Tracer, svc: Any) -> None:
    """Route the new probe stack's public probe calls through spans."""
    for method in _PROBE_METHODS:
        bound = getattr(svc, method, None)
        if bound is not None:
            setattr(svc, method, tracer.wrap("simulator.probe", bound))
    tracer.services.append(svc)


def _count_map(tracer: Tracer, result: Any) -> None:
    c = tracer.counters
    c["explorations"] += result.explorations
    c["merges"] += result.merges
    c["kept_nodes"] += result.kept_nodes
    c["probes"] += result.stats.total_probes
    c["probe_hits"] += result.stats.total_hits


def _count_routes(tracer: Tracer, tables: Any) -> None:
    tracer.counters["routes"] += sum(len(t.routes) for t in tables.values())


def _count_arcs(tracer: Tracer, graph: Any) -> None:
    tracer.counters["dependency_arcs"] += graph.number_of_edges()


def _count_distribution(tracer: Tracer, report: Any) -> None:
    tracer.counters["bytes_sent"] += report.bytes_sent
    tracer.counters["failed_hosts"] += len(report.failed)


_ROUTING = [
    ("repro.routing.updown", "orient_updown", "routing.orient", None),
    ("repro.routing.paths", "all_pairs_updown_paths", "routing.paths", None),
    (
        "repro.routing.compile_routes",
        "compile_route_tables",
        "routing.compile",
        _count_routes,
    ),
    ("repro.routing.deadlock", "routes_deadlock_free", "deadlock.check", None),
    (
        "repro.routing.deadlock",
        "channel_dependency_graph",
        "deadlock.check",
        _count_arcs,
    ),
]

_MAP = ("repro.core.mapper.BerkeleyMapper", "map", "mapper.map", _count_map)
_STACK = ("repro.simulator.stack", "build_service_stack", "stack.build", _count_service)

#: The daemon looks its stages up in its own module namespace.
DAEMON_TARGETS = [
    _MAP,
    ("repro.core.remapper", "recommended_search_depth", "analysis.depth", None),
    ("repro.core.remapper", "build_service_stack", "stack.build", _count_service),
    ("repro.core.remapper", "diff_networks", "remapper.diff", None),
    ("repro.core.remapper", "orient_updown", "routing.orient", None),
    ("repro.core.remapper", "all_pairs_updown_paths", "routing.paths", None),
    (
        "repro.core.remapper",
        "compile_route_tables",
        "routing.compile",
        _count_routes,
    ),
    ("repro.core.remapper", "routes_deadlock_free", "deadlock.check", None),
    (
        "repro.routing.deadlock",
        "channel_dependency_graph",
        "deadlock.check",
        _count_arcs,
    ),
    (
        "repro.core.remapper",
        "distribute_incremental",
        "distribute",
        _count_distribution,
    ),
]

#: ``san-map map``: build the stack, map, compute N - F, match.
MAP_TARGETS = [
    _MAP,
    _STACK,
    ("repro.topology.analysis", "core_network", "analysis.core", None),
    ("repro.topology.isomorphism", "match_networks", "iso.match", None),
]

#: ``run_map_job`` imports its stages from their home modules per call.
WORKER_TARGETS = [_MAP, _STACK, *_ROUTING,
    ("repro.topology.serialize", "network_from_dict", "serialize.payload_decode", None),
    ("repro.service.workers", "map_result_from_dict", "serialize.payload_decode", None),
    ("repro.chaos.oracles", "effective_network", "analysis.core", None),
    ("repro.topology.analysis", "recommended_search_depth", "analysis.depth", None),
    ("repro.topology.analysis", "core_network", "analysis.core", None),
    ("repro.topology.isomorphism", "match_networks", "iso.match", None),
    ("repro.service.workers", "map_result_to_dict", "serialize.encode", None),
    ("repro.service.workers", "route_tables_to_dict", "serialize.encode", None),
]


def _resolve(path: str) -> Any:
    """A module, or a class inside one (``pkg.mod.Class``)."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@contextlib.contextmanager
def instrumented(tracer: Tracer, targets: list) -> Iterator[Tracer]:
    """Install span wrappers for ``targets``; restore the originals after."""
    saved = []
    try:
        for path, attr, name, hook in targets:
            owner = _resolve(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer self time (ms) of one cycle's spans, root first, plus the
    inclusive time of the spans named in INCLUSIVE_OF_SPAN.

    Self times sum to the root span's duration by construction; that sum
    is the cycle's duration only if the tree is well formed and every span
    feeds a metric, so a span outside its parent, children that overlap, or
    a span name missing from LAYER_OF_SPAN raise ``ValueError``.
    """
    by_id = {s[1]: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for _, sid, parent, name, start, end in spans:
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None or start < p[4] - 1e-6 or end > p[5] + 1e-6:
            raise ValueError(f"span {name} escapes its parent")
        covered[parent] += end - start
    layers: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for _, sid, _, name, start, end in spans:
        own = end - start - covered[sid]
        if own < -1e-6:
            raise ValueError(f"children of span {name} overlap")
        if name not in LAYER_OF_SPAN:
            raise ValueError(f"span {name} feeds no per-layer metric")
        layers[LAYER_OF_SPAN[name]] += own * 1e3
        if name in INCLUSIVE_OF_SPAN:
            inclusive[INCLUSIVE_OF_SPAN[name]] += (end - start) * 1e3
    return dict(layers), dict(inclusive)


class Ledger:
    """Per-cycle self times and counters, folded into per-layer metrics."""

    def __init__(self) -> None:
        self.cycles: list[dict[str, Any]] = []

    def add(
        self,
        spans: list[Span],
        counters: dict[str, float],
        kind: str,
    ) -> None:
        """Fold one cycle whose root span comes first in ``spans``."""
        layers, inclusive = self_times(spans)
        root = spans[0]
        total = (root[5] - root[4]) * 1e3
        self.cycles.append(
            {
                "kind": kind,
                "cycle_ms": total,
                "layers": layers,
                "inclusive": inclusive,
                "counters": dict(counters),
            }
        )

    def by_kind(self) -> dict[str, dict[str, float]]:
        """Mean self time per layer for each cycle kind (printed detail)."""
        groups: dict[str, list[dict]] = defaultdict(list)
        for c in self.cycles:
            groups[c["kind"]].append(c)
        out = {}
        for kind, cycles in sorted(groups.items()):
            names = sorted({n for c in cycles for n in c["layers"]})
            out[kind] = {
                "cycles": len(cycles),
                "cycle_ms": statistics.fmean(c["cycle_ms"] for c in cycles),
                **{
                    n: statistics.fmean(c["layers"].get(n, 0.0) for c in cycles)
                    for n in names
                },
            }
        return out

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric the ledger defines (0 where unused)."""
        n = len(self.cycles)
        out = {name: 0.0 for name in PER_LAYER}
        if not n:
            return out
        for c in self.cycles:
            for layer, ms in (*c["layers"].items(), *c["inclusive"].items()):
                out[layer] += ms / n
        tot: dict[str, float] = defaultdict(float)
        for c in self.cycles:
            for k, v in c["counters"].items():
                tot[k] += v
        out["mapper.explorations"] = tot["explorations"] / n
        out["mapper.merges"] = tot["merges"] / n
        out["mapper.kept_nodes"] = tot["kept_nodes"] / n
        out["routing.routes"] = tot["routes"] / n
        out["deadlock.dependency_arcs"] = tot["dependency_arcs"] / n
        out["distribute.bytes_sent"] = tot["bytes_sent"] / n
        out["distribute.failed_hosts"] = tot["failed_hosts"]
        out["serialize.outcome_bytes"] = tot["outcome_bytes"] / n
        out["serialize.payload_bytes"] = tot["payload_bytes"] / n
        if tot["probes"]:
            out["simulator.probe_hit_ratio"] = tot["probe_hits"] / tot["probes"]
        looked_up = tot["cache_hits"] + tot["cache_misses"]
        if looked_up:
            out["simulator.eval_cache_hit_rate"] = tot["cache_hits"] / looked_up
        out["trace.cycle_ms_p50"] = statistics.median(
            c["cycle_ms"] for c in self.cycles
        )
        return out

    def median_by_kind(self, kind: str) -> float:
        times = [c["cycle_ms"] for c in self.cycles if c["kind"] == kind]
        return statistics.median(times) if times else 0.0


# ----------------------------------------------------------------------
# inside a service worker process
# ----------------------------------------------------------------------
def traced_run_map_job(payload: dict) -> dict:
    """``run_map_job`` with spans around its stages.

    Runs in the map server's worker process (it is pickled by import path).
    The spans, counters and the job's start and end ride back to the
    server in the outcome under ``bench_trace``; the server drops keys it
    does not know, so adoption is unchanged.
    """
    from repro.service import workers

    submitted = payload.pop("bench_submit", None)
    tracer = Tracer()
    with instrumented(tracer, WORKER_TARGETS):
        tracer.begin("worker.job")
        outcome = workers.run_map_job(payload)
        spans = tracer.end()
    # Sizing the documents is tracing's own cost, inside the traced cycle:
    # its span feeds trace.sizing_ms so the ledger still adds up.
    start = time.perf_counter()
    counters = dict(tracer.counters)
    counters["outcome_bytes"] = len(json.dumps(outcome, separators=(",", ":")))
    counters["payload_bytes"] = len(json.dumps(payload, separators=(",", ":")))
    spans.append((tracer.cycle, 0, None, "trace.sizing", start, time.perf_counter()))
    outcome["bench_trace"] = {
        "submitted": submitted,
        "spans": spans,
        "counters": counters,
    }
    return outcome
