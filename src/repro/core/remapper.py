"""The periodic remapping daemon: the system behavior of the abstract.

"The system periodically discovers the network topology and uses it to
compute and to distribute a set of mutually deadlock-free routes to all
network interfaces."

:class:`RemapperDaemon` packages one complete cycle — map, diff against the
previous map, and (only when something changed) recompute + verify +
distribute routes — and keeps a bounded history of recent cycles so
operators can see what changed when. The daemon is driven explicitly
(``run_cycle()``) so tests and simulations control time; a deployment
would call it on a timer.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.mapper import MapResult, MapSeed
from repro.core.mapper_protocol import (
    Mapper,
    get_mapper_spec,
    resolve_mapper_factory,
)
from repro.routing.compile_routes import RouteTable, compile_route_tables
from repro.routing.deadlock import routes_deadlock_free
from repro.routing.distribute import DistributionReport
from repro.routing.incremental import distribute_incremental
from repro.routing.paths import all_pairs_updown_paths
from repro.routing.updown import orient_updown
from repro.simulator.collision import CircuitModel, CollisionModel
from repro.simulator.faults import FaultModel
from repro.simulator.stack import build_service_stack
from repro.simulator.timing import MYRINET_TIMING, TimingModel
from repro.topology.analysis import recommended_search_depth
from repro.topology.delta import EMPTY_DELTA
from repro.topology.diff import MapDiff, diff_networks
from repro.topology.model import Network

__all__ = ["HISTORY_LIMIT", "RemapCycle", "RemapperDaemon"]

#: Cycles kept in :attr:`RemapperDaemon.history`. Each record holds its
#: cycle's whole map, so an unbounded log grows with the daemon's uptime.
HISTORY_LIMIT = 32


@dataclass(slots=True)
class RemapCycle:
    """Record of one map/diff/route cycle."""

    index: int
    map_result: MapResult
    diff: MapDiff
    routes_recomputed: bool
    deadlock_free: bool | None
    n_routes: int
    distribution: DistributionReport | None
    elapsed_ms: float
    #: Whether this cycle's map adopted subtrees from the previous cycle.
    incremental: bool = False
    #: Why an incremental cycle fell back to from-scratch, if it did
    #: (``None`` when it seeded successfully or seeding was never planned).
    seed_fallback: str | None = None
    #: Probes this cycle avoided versus the last from-scratch baseline
    #: (0 for unseeded cycles or before a baseline exists).
    probes_saved: int = 0
    #: Prior-map nodes adopted intact by this cycle's mapper.
    subtrees_kept: int = 0

    @property
    def changed(self) -> bool:
        return not self.diff.identical


class RemapperDaemon:
    """Drive periodic remapping against a (possibly mutating) network.

    The daemon holds a reference to the *actual* network object purely as
    the thing to probe — all knowledge flows through the probe service it
    constructs each cycle, so topology mutations between cycles are
    discovered in-band like the real system would.

    ``service_factory``, ``mapper_factory`` and ``depth_fn`` are injection
    points for harnesses that wrap the cycle (the chaos campaign runner
    injects fault models and mid-cycle event schedules through them); the
    defaults reproduce the plain quiescent daemon exactly.

    ``mapper_factory`` also accepts a :data:`~repro.core.mapper_protocol.
    MAPPER_REGISTRY` name ("berkeley", "myricom", ...): the daemon then
    builds that algorithm each cycle — with the daemon's own defaults
    where the algorithm's constructor accepts them — and builds its
    probe service with the spec's required service class.
    """

    def __init__(
        self,
        net: Network,
        mapper_host: str,
        *,
        collision: CollisionModel | None = None,
        timing: TimingModel = MYRINET_TIMING,
        search_depth: int | None = None,
        max_explorations: int | None = 5000,
        service_factory: Callable[[Network, str], object] | None = None,
        mapper_factory: Callable[[object, int], Mapper] | str | None = None,
        depth_fn: Callable[[Network, str], int] | None = None,
        faults: FaultModel | None = None,
        incremental: bool = False,
    ) -> None:
        self._net = net
        self._mapper_host = mapper_host
        self._collision = collision or CircuitModel()
        self._timing = timing
        self._fixed_depth = search_depth
        self._max_explorations = max_explorations
        self._service_factory = service_factory
        self._mapper_factory = mapper_factory
        # A registry name may require a specific probe-service class
        # (e.g. "selfid" -> SelfIdProbeService); resolve it once.
        self._service_cls: type | None = None
        if isinstance(mapper_factory, str):
            self._service_cls = get_mapper_spec(mapper_factory).service_cls
        self._depth_fn = depth_fn
        # ``faults`` is only consulted for delta planning: when the harness
        # injects a fault model through its service factory, passing the
        # same object here lets cycle N+1 read the fault-side delta journal
        # too. ``incremental`` turns seed planning on; every fallback path
        # degrades to the plain from-scratch cycle and says why.
        self._faults = faults
        self._incremental = incremental
        #: The most recent cycles, oldest first; ``index`` keeps counting
        #: past the bound.
        self.history: deque[RemapCycle] = deque(maxlen=HISTORY_LIMIT)
        self._cycle_index = itertools.count()
        # The default depth policy's last answer and the topology epoch it
        # was computed at: every Network mutator bumps the epoch (SAN012),
        # so an unchanged epoch means an unchanged depth.
        self._depth: int | None = None
        self._depth_epoch: int | None = None
        self.current_map: Network | None = None
        self.current_tables: dict[str, RouteTable] | None = None
        self._last_result: MapResult | None = None
        self._net_epoch: int | None = None
        self._fault_epoch: int | None = None
        self._scratch_probes: int | None = None

    # ------------------------------------------------------------------
    def _build_service(self) -> object:
        if self._service_factory is not None:
            return self._service_factory(self._net, self._mapper_host)
        return build_service_stack(
            self._net,
            self._mapper_host,
            collision=self._collision,
            timing=self._timing,
            service_cls=self._service_cls,
        )

    def _build_mapper(self, svc: object, depth: int) -> Mapper:
        factory = resolve_mapper_factory(
            self._mapper_factory if self._mapper_factory is not None
            else "berkeley",
            host_first=False,
            max_explorations=self._max_explorations,
        )
        return factory(svc, depth)

    def _plan_seed(self) -> tuple[MapSeed | None, str | None]:
        """Build a seed from the previous cycle's map and the delta
        journals, or explain why this cycle must run from scratch.

        The delta covers ``last map's epoch snapshot .. now``; the bounded
        journal window, an unbounded entry (probability reconfig) and any
        *added* connectivity (a plugged cable, a healed wire, a segment
        merge) all make incremental adoption unsound, so each returns a
        fallback reason instead of a seed.
        """
        prior = self._last_result
        if prior is None or self._net_epoch is None:
            return None, "no prior map to seed from"
        topo = self._net.affected_since(self._net_epoch)
        if topo is None:
            return None, "topology delta fell out of the journal window"
        fault = EMPTY_DELTA
        if self._faults is not None and self._fault_epoch is not None:
            fault = self._faults.affected_since(self._fault_epoch)
            if fault is None:
                return None, "fault delta fell out of the journal window"
        delta = topo.merge(fault)
        if delta.unbounded:
            return None, "delta is unbounded (not describable by wire ends)"
        if delta.added:
            return None, (
                "connectivity was added; a kept subtree cannot prove a "
                "wire it never probed does not exist"
            )
        return (
            MapSeed(
                network=prior.network,
                witnesses=prior.witnesses,
                affected=delta.removed,
                entries=prior.entry_ports,
            ),
            None,
        )

    def _search_depth(self) -> int:
        if self._fixed_depth:
            return self._fixed_depth
        if self._depth_fn is not None:
            return self._depth_fn(self._net, self._mapper_host)
        epoch = self._net.topology_epoch
        if self._depth is None or self._depth_epoch != epoch:
            self._depth = recommended_search_depth(self._net, self._mapper_host)
            self._depth_epoch = epoch
        return self._depth

    def run_cycle(self) -> RemapCycle:
        """One complete cycle; appends to and returns from ``history``."""
        depth = self._search_depth()
        svc = self._build_service()
        seed: MapSeed | None = None
        plan_fallback: str | None = None
        if self._incremental:
            seed, plan_fallback = self._plan_seed()
        # Snapshot the journals *before* mapping: anything that mutates
        # mid-run lands after these epochs and is charged to the next
        # cycle's delta, never silently skipped.
        net_epoch = self._net.topology_epoch
        fault_epoch = (
            self._faults.fault_epoch if self._faults is not None else None
        )
        mapper = self._build_mapper(svc, depth)
        if seed is not None:
            seeder = getattr(mapper, "seed_with", None)
            if seeder is None:
                seed, plan_fallback = None, "mapper does not support seeding"
            else:
                seeder(seed)
        result = mapper.map()
        new_map = result.network
        self._last_result = result
        self._net_epoch = net_epoch
        self._fault_epoch = fault_epoch
        probes_saved = 0
        if result.seeded:
            if self._scratch_probes is not None:
                probes_saved = max(
                    0, self._scratch_probes - result.stats.total_probes
                )
        else:
            self._scratch_probes = result.stats.total_probes

        if self.current_map is None:
            diff = MapDiff(identical=False)
        else:
            diff = diff_networks(self.current_map, new_map)

        seed_fallback: str | None = None
        if self._incremental and not result.seeded:
            seed_fallback = result.seed_fallback or plan_fallback

        elapsed = result.stats.elapsed_ms
        if diff.identical and self.current_tables is not None:
            cycle = RemapCycle(
                index=next(self._cycle_index),
                map_result=result,
                diff=diff,
                routes_recomputed=False,
                deadlock_free=None,
                n_routes=sum(len(t) for t in self.current_tables.values()),
                distribution=None,
                elapsed_ms=elapsed,
                incremental=result.seeded,
                seed_fallback=seed_fallback,
                probes_saved=probes_saved,
                subtrees_kept=result.kept_nodes,
            )
            self.history.append(cycle)
            return cycle

        orientation = orient_updown(new_map)
        paths = all_pairs_updown_paths(new_map, orientation)
        tables = compile_route_tables(new_map, paths, orientation=orientation)
        safe = routes_deadlock_free(tables)
        # Incremental distribution: push only per-host deltas against the
        # previous generation (the first cycle degenerates to a full push).
        report = distribute_incremental(
            new_map,
            self._mapper_host,
            tables,
            self.current_tables,
            timing=self._timing,
        )
        self.current_map = new_map
        self.current_tables = tables
        cycle = RemapCycle(
            index=next(self._cycle_index),
            map_result=result,
            diff=diff,
            routes_recomputed=True,
            deadlock_free=safe,
            n_routes=sum(len(t) for t in tables.values()),
            distribution=report,
            elapsed_ms=elapsed + report.elapsed_ms,
            incremental=result.seeded,
            seed_fallback=seed_fallback,
            probes_saved=probes_saved,
            subtrees_kept=result.kept_nodes,
        )
        self.history.append(cycle)
        return cycle

    # ------------------------------------------------------------------
    def route(self, src: str, dst: str):
        """The current source route between two hosts, or None."""
        if self.current_tables is None:
            return None
        table = self.current_tables.get(src)
        if table is None:
            return None
        compiled = table.routes.get(dst)
        return compiled.turns if compiled else None
