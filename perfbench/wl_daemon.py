"""``now_daemon_churn``: the paper's periodic remap on the full NOW fabric.

One ``RemapperDaemon(incremental=True)`` with its default depth policy and
mapper runs one cycle at a time. The schedule comes in blocks of five
cycles, ``BLOCK``: three quiet (nothing changed), a cut of a seeded
non-bridge switch-to-switch cable and the re-plug of that cable. A run
measures whole blocks, so every run holds the same mix of cycle kinds.

Checked after every cycle, outside its timing: the map is isomorphic to
``N - F`` of the current fabric; recomputed routes are deadlock-free and
reached every host; ``daemon.route`` answers seeded host pairs with routes
that deliver on the current fabric.
"""

from __future__ import annotations

import random
import statistics
import traceback

from perfbench import tracing
from perfbench.common import (
    SETUP_REPS,
    RunResult,
    another_block,
    clock,
    cut,
    cut_candidates,
    replay,
    replug,
    rss_mb_self,
)
from repro.core.remapper import RemapperDaemon
from repro.topology.analysis import core_network
from repro.topology.generators import build_full_now
from repro.topology.isomorphism import match_networks


#: Host pairs whose ``daemon.route`` answer is checked after each cycle.
CHECKED_PAIRS = 50

#: One block of the schedule. Fixed positions give every block one quiet
#: cycle on the cut fabric, one right after the re-plug and one later.
#: These cost differently, so a share that varied with the seed would move
#: every cycle-time statistic from seed to seed.
BLOCK = ("quiet", "cut", "quiet", "replug", "quiet")


def _check_cycle(
    result: RunResult, daemon, net, cycle, tag: str, rng: random.Random
) -> None:
    report = match_networks(daemon.current_map, core_network(net))
    if not report:
        result.fail_cycle(f"{tag}: map not isomorphic to N-F ({report.reason})")
    elif cycle.routes_recomputed and not cycle.deadlock_free:
        result.fail_cycle(f"{tag}: routes not deadlock-free")
    elif cycle.routes_recomputed and not cycle.distribution.ok:
        result.fail_cycle(f"{tag}: distribution failed {cycle.distribution.failed}")
    else:
        hosts = sorted(net.hosts)
        for _ in range(CHECKED_PAIRS):
            src, dst = rng.sample(hosts, 2)
            turns = daemon.route(src, dst)
            if turns is None or replay(net, src, dst, turns) is None:
                result.fail_cycle(f"{tag}: route {src}->{dst} does not deliver")
                return


def setup(seed: int):
    """Fabric, daemon at a seeded mapper host, and its warm-up cycle."""
    net = build_full_now()
    host = random.Random(f"daemon-host-{seed}").choice(sorted(net.hosts))
    daemon = RemapperDaemon(net, host, incremental=True)
    cycle = daemon.run_cycle()
    return net, daemon, cycle


def run(
    seed: int, seconds: float, trace: bool, max_blocks: int | None = None
) -> RunResult:
    """The whole number of blocks nearest ``seconds`` (or ``max_blocks``)."""
    result = RunResult()
    for _ in range(SETUP_REPS):
        t0 = clock()
        net, daemon, warm = setup(seed)
        result.setup_s.append(clock() - t0)
    pair_rng = random.Random(f"daemon-pairs-{seed}")
    _check_cycle(result, daemon, net, warm, "warm-up", pair_rng)
    result.detail["mapper_host"] = warm.map_result.mapper_host

    rng = random.Random(f"daemon-churn-{seed}")
    tracer = tracing.Tracer()
    ledger = tracing.Ledger()
    outstanding = None
    blocks = 0
    start = clock()

    def more() -> bool:
        if max_blocks is not None:
            return blocks < max_blocks
        return another_block(start, blocks, seconds)

    with tracing.instrumented(tracer, tracing.DAEMON_TARGETS if trace else []):
        while more() and not result.cycles_failed:
            for kind in BLOCK:
                ends = None
                if kind == "cut":
                    ends = rng.choice(cut_candidates(net))
                    cut(net, ends)
                    outstanding = ends
                elif kind == "replug":
                    ends, outstanding = outstanding, None
                    replug(net, ends)
                result.cycles_attempted += 1
                if trace:
                    tracer.begin()
                t0 = clock()
                try:
                    cycle = daemon.run_cycle()
                except Exception:  # noqa: BLE001 - a raising cycle is a failed cycle
                    result.fail_cycle(traceback.format_exc())
                    break
                dt = (clock() - t0) * 1e3
                if trace:
                    ledger.add(tracer.end(), tracer.counters, kind)
                result.cycle_ms.append(dt)
                stats = cycle.map_result.stats
                result.probes.append(stats.total_probes)
                result.sim_ms.append(cycle.elapsed_ms)
                result.schedule.append(
                    {
                        "kind": kind,
                        "wire": ends,
                        "probes": stats.total_probes,
                        "sim_ms": cycle.elapsed_ms,
                        "routes_recomputed": cycle.routes_recomputed,
                        "seeded": cycle.incremental,
                    }
                )
                tag = f"cycle {len(result.schedule) - 1} ({kind})"
                _check_cycle(result, daemon, net, cycle, tag, pair_rng)
            blocks += 1
    result.rss_mb = rss_mb_self()
    result.detail["blocks"] = blocks
    if trace:
        result.per_layer = ledger.metrics()
        for kind in ("quiet", "cut", "replug"):
            result.per_layer[f"remapper.cycle_ms.{kind}"] = ledger.median_by_kind(kind)
        result.detail["ledger_by_kind"] = ledger.by_kind()
    result.detail["cycle_ms_by_kind"] = {
        kind: statistics.median(
            t for t, c in zip(result.cycle_ms, result.schedule) if c["kind"] == kind
        )
        for kind in ("quiet", "cut", "replug")
        if any(c["kind"] == kind for c in result.schedule)
    }
    return result
