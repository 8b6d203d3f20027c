"""Helpers shared by the workloads: statistics, cable cuts, the result."""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.routing.compile_routes import CompiledRoute
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.analysis import switch_bridges
from repro.topology.model import Network

#: End-to-end metrics: name -> unit (BENCHMARK.json lists the same set).
END_TO_END = {
    "setup_s": "s",
    "cycle_ms_tail": "ms",
    "cycles_per_s": "1/s",
    "probes_per_cycle": "count",
    "sim_ms_per_cycle": "sim_ms",
    "rss_mb_peak": "MB",
}

#: How many samples must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Repetitions of each workload's set-up; ``setup_s`` is their median.
SETUP_REPS = 3


clock = time.perf_counter


def another_block(start: float, blocks: int, seconds: float) -> bool:
    """Whether a run that began at ``start`` and has measured ``blocks``
    whole blocks should measure one more: yes while that brings its length
    closer to ``seconds``, judged by its mean block so far. A run thus
    holds the whole number of blocks nearest to ``seconds``, the same
    number on a host somewhat faster or slower, not one more whenever the
    last block ends just short of the deadline."""
    elapsed = clock() - start
    return blocks == 0 or elapsed + elapsed / blocks / 2 < seconds


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least TAIL_BEYOND samples
    beyond it, and its value; never below the median (p50)."""
    n = len(values)
    for p in range(99, 50, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_BEYOND:
            return p, percentile(values, p / 100)
    return 50, percentile(values, 0.5)


def rss_mb_self() -> float:
    """Peak resident set of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cut_candidates(net: Network) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """Non-bridge switch-to-switch wires of ``net``, as sorted end pairs.

    Cutting one never partitions the fabric, so every map after a cut is
    of the whole network and every host pair stays routable.
    """
    bridges = {w.key for w in switch_bridges(net)}
    return sorted(
        tuple(sorted(((w.a.node, w.a.port), (w.b.node, w.b.port))))
        for w in net.wires
        if w.key not in bridges
        and net.is_switch(w.a.node)
        and net.is_switch(w.b.node)
    )


def cut(net: Network, ends) -> None:
    (node, port), _ = ends
    net.disconnect(net.wire_at(node, port))


def replug(net: Network, ends) -> None:
    (na, pa), (nb, pb) = ends
    net.connect(na, pa, nb, pb)


def replay(net: Network, src: str, dst: str, turns) -> CompiledRoute | None:
    """Source route ``turns`` from ``src`` on ``net``, with the channels it
    crosses, if it reaches ``dst``; None if it does not."""
    out = evaluate_route(net, src, turns)
    if out.status is PathStatus.DELIVERED and out.delivered_to == dst:
        return CompiledRoute(src, dst, tuple(turns), tuple(out.traversals))
    return None


@dataclass
class RunResult:
    """What one workload run measured, before it is printed."""

    setup_s: list[float] = field(default_factory=list)
    cycle_ms: list[float] = field(default_factory=list)
    probes: list[int] = field(default_factory=list)
    sim_ms: list[float] = field(default_factory=list)
    route_ms: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    cycles_attempted: int = 0
    cycles_failed: int = 0
    routes_attempted: int = 0
    routes_failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Per-cycle record: kind, mutation, counters (printed as detail).
    schedule: list[dict] = field(default_factory=list)
    per_layer: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)

    def fail_cycle(self, why: str) -> None:
        self.cycles_failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    def fail_route(self, why: str) -> None:
        self.routes_failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)

    @property
    def correct(self) -> bool:
        return (
            self.cycles_failed == 0
            and self.routes_failed == 0
            and bool(self.cycle_ms)
        )

    def end_to_end(self) -> dict[str, float]:
        """The END_TO_END metrics; all 0 for a run that measured nothing
        (such a run is never ``correct``)."""
        if not self.cycle_ms:
            return dict.fromkeys(END_TO_END, 0.0)
        p, tail_ms = tail(self.cycle_ms)
        self.detail["cycle_tail_percentile"] = p
        self.detail["cycle_samples"] = len(self.cycle_ms)
        self.detail["cycle_ms_p50"] = percentile(self.cycle_ms, 0.5)
        return {
            "setup_s": statistics.median(self.setup_s),
            "cycle_ms_tail": tail_ms,
            "cycles_per_s": 1000.0 * len(self.cycle_ms) / sum(self.cycle_ms),
            "probes_per_cycle": statistics.fmean(self.probes),
            "sim_ms_per_cycle": statistics.fmean(self.sim_ms),
            "rss_mb_peak": self.rss_mb,
        }

    def route_latency(self) -> dict[str, float]:
        """Lookup latency percentiles; only the service answers lookups."""
        if not self.route_ms:
            return {}
        return {
            "route_ms_p50": percentile(self.route_ms, 0.5),
            "route_ms_p99": percentile(self.route_ms, 0.99),
        }

    def fail_ratios(self) -> dict[str, float]:
        return {
            "cycle_fail_ratio": self.cycles_failed / max(1, self.cycles_attempted),
            "route_fail_ratio": self.routes_failed / max(1, self.routes_attempted),
        }
