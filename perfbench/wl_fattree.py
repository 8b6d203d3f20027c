"""``fattree_cold_map``: ``san-map map --depth 6`` on a k=12 fat tree.

A three-tier fat tree of 12-port switches with one host per edge switch
(180 switches, 72 hosts). Every cycle is the CLI's map operation from
scratch at a seeded-random mapper host: build a fresh probe stack, map
with ``create_mapper("berkeley", radix=12, search_depth=6)``, compute
``N - F`` and verify with ``match_networks``. Depth selection, routing and
serialization never run, so only the mapper and the probe simulator move
this workload.

Checked outside the timing: the verify found the map isomorphic.
"""

from __future__ import annotations

import random
import traceback

from perfbench import tracing
from perfbench.common import (
    SETUP_REPS,
    RunResult,
    clock,
    rss_mb_self,
)
from repro.core import mapper_protocol
from repro.topology import analysis, isomorphism
from repro.topology.generators import build_three_tier_fat_tree

K = 12
DEPTH = 6


def map_cycle(net, host: str):
    """The timed cycle: stack, map, verify (as ``san-map map --depth``)."""
    svc = mapper_protocol.build_mapper_service("berkeley", net, host)
    mapper = mapper_protocol.create_mapper(
        "berkeley", svc, search_depth=DEPTH, radix=K, host_first=False
    )
    result = mapper.map()
    report = isomorphism.match_networks(result.network, analysis.core_network(net))
    return result, report


def setup(seed: int):
    """Fabric and one warm-up cycle (lazy imports, registry loading)."""
    net = build_three_tier_fat_tree(K, hosts_per_edge=1)
    result, report = map_cycle(net, sorted(net.hosts)[seed % net.n_hosts])
    return net, result, report


def run(
    seed: int, seconds: float, trace: bool, max_cycles: int | None = None
) -> RunResult:
    """Cycles until ``seconds`` have passed (or ``max_cycles`` ran)."""
    result = RunResult()
    for _ in range(SETUP_REPS):
        t0 = clock()
        net, warm, report = setup(seed)
        result.setup_s.append(clock() - t0)
    if not report:
        result.fail_cycle(f"warm-up map not isomorphic ({report.reason})")
    hosts = sorted(net.hosts)
    rng = random.Random(f"fattree-hosts-{seed}")
    tracer = tracing.Tracer()
    ledger = tracing.Ledger()
    start = clock()

    def more() -> bool:
        if max_cycles is not None:
            return len(result.schedule) < max_cycles
        return clock() - start < seconds

    with tracing.instrumented(tracer, tracing.MAP_TARGETS if trace else []):
        while more() and not result.cycles_failed:
            host = rng.choice(hosts)
            result.cycles_attempted += 1
            if trace:
                tracer.begin()
            t0 = clock()
            try:
                mapped, report = map_cycle(net, host)
            except Exception:  # noqa: BLE001 - a raising cycle is a failed cycle
                result.fail_cycle(traceback.format_exc())
                break
            dt = (clock() - t0) * 1e3
            if trace:
                ledger.add(tracer.end(), tracer.counters, "cold")
            result.cycle_ms.append(dt)
            stats = mapped.stats
            result.probes.append(stats.total_probes)
            result.sim_ms.append(stats.elapsed_ms)
            result.schedule.append(
                {"mapper_host": host, "probes": stats.total_probes,
                 "sim_ms": stats.elapsed_ms}
            )
            if not report:
                result.fail_cycle(f"map from {host} not isomorphic ({report.reason})")
    result.rss_mb = rss_mb_self()
    if trace:
        result.per_layer = ledger.metrics()
        result.detail["ledger_by_kind"] = ledger.by_kind()
    return result
