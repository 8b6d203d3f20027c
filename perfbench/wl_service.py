"""``service_openloop``: the map server under churn and open-loop lookups.

A :class:`MapServer` in its own process (``server_child.py``, two spawned
simulator workers) holds four tenants: ``now-a``, ``now-b``, ``now-c`` and
``now-full``, each mapped from a seeded host. All are mapped before timing
starts. Over loopback TCP:

- one *operator* connection cycles through the tenants in that order; each
  step cuts a seeded non-bridge switch-to-switch cable of the tenant (or,
  on the tenant's next turn, re-plugs it) and waits for ``map``. A block
  is six rotations, so every tenant gets three cuts and three re-plugs per
  block and every run holds the same mix; a cycle is the ``map`` round
  trip;
- one pipelined *querier* connection sends ``route`` lookups for seeded
  host pairs drawn uniformly from all tenants' pairs at ``RATE`` per
  second, each timed from the moment it was due, whatever the server is
  doing. Adopting a full-NOW map decodes its route tables on the server's
  event loop, and every lookup queued behind that decode waits for it.

Checked: every map was adopted and its response says the worker found
the map isomorphic and its routes deadlock-free. After the run, every
answered lookup's route is replayed on the fabric its ``generation`` was
mapped from and must deliver, and the routes served from each generation
must be deadlock-free together (``routes_deadlock_free`` over their
replayed channels), independently of the worker's verdict.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import sys
from collections import deque

from perfbench import tracing
from perfbench.common import (
    SETUP_REPS,
    RunResult,
    another_block,
    clock,
    cut,
    cut_candidates,
    percentile,
    replay,
    replug,
)
from repro.routing.compile_routes import CompiledRoute
from repro.routing.deadlock import routes_deadlock_free
from repro.service.client import MapClient
from repro.service.protocol import encode_frame, read_frame
from repro.service.tenant import TenantSpec, build_tenant_network

TENANTS = ("now-a", "now-b", "now-c", "now-full")
WORKERS = 2
#: Route lookups per second, open loop; far below the server's capacity.
RATE = 400.0
#: A run whose generator was later than this at p99 is flagged invalid.
LATE_BOUND_MS = 10.0
#: Six rotations (24 cycles, ~22 s on a 2-vCPU Xeon VM): a 45 s run then
#: holds 2 blocks, 48 cycles, so its tail (p79) is a ``now-full`` cycle.
#: Blocks of two rotations would put the tail among the subcluster cycles
#: in some runs and among the ``now-full`` ones in others.
ROTATIONS_PER_BLOCK = 6
#: A run measures at least two blocks, 12 ``now-full`` cycles, so its tail,
#: which needs 10 cycles beyond it, is a ``now-full`` cycle on a slow host too.
MIN_BLOCKS = 2
#: Upper bound on any single request, so a hung server fails the run.
OP_TIMEOUT_S = 120.0
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server_child.py")


class Tenant:
    """The operator's mirror of one tenant's fabric, and its history.

    At most one cable of a tenant is cut at a time, so a fabric is the
    initial one minus at most one wire, and cuts are always drawn from the
    initial fabric's candidates (computed once, before timing starts).
    """

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.net = build_tenant_network(spec)
        self.candidates = cut_candidates(self.net)
        self.outstanding = None
        #: generation -> the cable cut when that generation was mapped.
        self.mapped_with: dict[int, tuple | None] = {}
        self.cycles: list[dict] = []

    def fabric(self, generation: int):
        """The fabric ``generation`` was mapped from, or None if unknown."""
        if generation not in self.mapped_with:
            return None
        net = build_tenant_network(self.spec)
        if self.mapped_with[generation] is not None:
            cut(net, self.mapped_with[generation])
        return net


def tenant_specs(seed: int) -> list[TenantSpec]:
    rng = random.Random(f"service-hosts-{seed}")
    specs = []
    for name in TENANTS:
        hosts = sorted(build_tenant_network(TenantSpec(name=name, topology=name)).hosts)
        specs.append(
            TenantSpec(name=name, topology=name, mapper=rng.choice(hosts), seed=seed)
        )
    return specs


class ServerProcess:
    """The child process running the map server."""

    def __init__(self, specs: list[TenantSpec], trace: bool) -> None:
        self.specs = specs
        self.trace = trace
        self.proc: asyncio.subprocess.Process | None = None
        self.port = 0

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, CHILD,
            "--tenants", json.dumps([s.to_dict() for s in self.specs]),
            "--workers", str(WORKERS),
            "--trace", str(int(self.trace)),
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 28,
        )
        line = await asyncio.wait_for(self.proc.stdout.readline(), OP_TIMEOUT_S)
        self.port = json.loads(line)["port"]

    async def stop(self, client: MapClient) -> dict:
        """Ask the server to shut down; return its final report."""
        await client.request("shutdown")
        await client.close()
        out, _ = await asyncio.wait_for(self.proc.communicate(), OP_TIMEOUT_S)
        return json.loads(out.decode().strip().splitlines()[-1])

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


def _adopted(resp: dict) -> bool:
    """The map was adopted, isomorphic to ``N - F`` and deadlock-free."""
    return bool(resp.get("ok") and resp.get("isomorphic") and resp.get("deadlock_free"))


async def _map(client: MapClient, tenant: Tenant) -> dict:
    """One ``map`` round trip; records what the new generation mapped."""
    outstanding = tenant.outstanding
    t0 = clock()
    resp = await asyncio.wait_for(client.map(tenant.spec.name), OP_TIMEOUT_S)
    t1 = clock()
    if resp.get("ok"):
        tenant.mapped_with[resp["generation"]] = outstanding
    return {"t0": t0, "t1": t1, "resp": resp}


async def _setup(specs: list[TenantSpec], trace: bool):
    """Server process, operator connection, every tenant mapped once."""
    server = ServerProcess(specs, trace)
    tenants = {s.name: Tenant(s) for s in specs}
    try:
        await server.start()
        operator = MapClient("127.0.0.1", server.port)
        await operator.connect()
        async with MapClient("127.0.0.1", server.port) as second:
            # The largest tenant maps on one connection (one worker) while
            # the subclusters map one after another on the other.
            big, *small = sorted(tenants.values(), key=lambda t: -t.net.n_hosts)

            async def smalls():
                return [await _map(operator, t) for t in small]

            warm = await asyncio.gather(_map(second, big), smalls())
        for cycle in [warm[0], *warm[1]]:
            if not _adopted(cycle["resp"]):
                raise RuntimeError(f"warm-up map failed: {cycle['resp']}")
    except BaseException:
        await server.kill()
        raise
    return server, operator, tenants


async def _mutate(operator: MapClient, tenant: Tenant, rng: random.Random):
    if tenant.outstanding is None:
        ends = rng.choice(tenant.candidates)
        (node, port), _ = ends
        await operator.request("cut", tenant=tenant.spec.name, node=node, port=port)
        cut(tenant.net, ends)
        tenant.outstanding = ends
        return "cut", ends
    ends, tenant.outstanding = tenant.outstanding, None
    await operator.request(
        "plug", tenant=tenant.spec.name, a=list(ends[0]), b=list(ends[1])
    )
    replug(tenant.net, ends)
    return "replug", ends


class Querier:
    """Open-loop ``route`` lookups on one pipelined connection."""

    def __init__(self, tenants: dict[str, Tenant], seed: int) -> None:
        self.rng = random.Random(f"service-lookups-{seed}")
        self.pairs = [
            (name, src, dst)
            for name, t in sorted(tenants.items())
            for src in sorted(t.net.hosts)
            for dst in sorted(t.net.hosts)
            if src != dst
        ]
        self.pending: deque = deque()
        self.done: list[tuple] = []  # (due, sent, received, pair, response)
        self.stopping = asyncio.Event()

    async def send(self, writer: asyncio.StreamWriter) -> None:
        start = clock()
        i = 0
        while not self.stopping.is_set():
            due = start + i / RATE
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            tenant, src, dst = self.rng.choice(self.pairs)
            self.pending.append((due, clock(), (tenant, src, dst)))
            writer.write(
                encode_frame({"op": "route", "tenant": tenant, "src": src, "dst": dst})
            )
            await writer.drain()
            i += 1

    async def receive(self, reader: asyncio.StreamReader) -> None:
        while True:
            response = await read_frame(reader)
            if response is None:
                return  # the server closed the connection
            due, sent, pair = self.pending.popleft()
            self.done.append((due, sent, clock(), pair, response))


def _check_lookups(result: RunResult, querier: Querier, tenants: dict[str, Tenant]) -> None:
    """Replay every answered lookup on its generation's fabric; then check
    each generation's replayed routes for a channel dependency cycle."""
    replayed: dict[tuple, CompiledRoute | None] = {}
    fabrics: dict[tuple, object] = {}
    for due, _, received, (name, src, dst), resp in querier.done:
        result.routes_attempted += 1
        result.route_ms.append((received - due) * 1e3)
        if resp is None or not resp.get("ok"):
            result.fail_route(f"lookup {name} {src}->{dst}: {resp}")
            continue
        gen = (name, resp["generation"])
        key = (*gen, src, dst, tuple(resp["turns"]))
        if key not in replayed:
            if gen not in fabrics:
                fabrics[gen] = tenants[name].fabric(resp["generation"])
            fabric = fabrics[gen]
            replayed[key] = None if fabric is None else replay(fabric, src, dst, key[4])
        if replayed[key] is None:
            result.fail_route(
                f"lookup {name} {src}->{dst} gen {resp['generation']} did not deliver"
            )
    by_generation: dict[tuple, list[CompiledRoute]] = {}
    for key, route in replayed.items():
        if route is not None:
            by_generation.setdefault(key[:2], []).append(route)
    for (name, generation), routes in sorted(by_generation.items()):
        if not routes_deadlock_free(routes):
            result.fail_cycle(f"{name} gen {generation}: served routes can deadlock")
    result.detail["lookups_checked_unique"] = len(replayed)
    result.detail["generations_checked"] = len(by_generation)


def _ledger(result: RunResult, tenants: dict[str, Tenant], recorded: list[dict]) -> None:
    """Per-cycle spans: client round trip + server decode + worker stages."""
    by_tenant: dict[str, list[dict]] = {name: [] for name in tenants}
    for rec in recorded:
        by_tenant[rec["tenant"]].append(rec)
    ledger = tracing.Ledger()
    for name, tenant in tenants.items():
        # The first recorded cycle per tenant is its warm-up map.
        records = by_tenant[name][1:]
        if len(records) != len(tenant.cycles):
            result.fail_cycle(f"trace: {name} recorded {len(records)} cycles")
            return
        for cycle, rec in zip(tenant.cycles, records):
            trace = rec["trace"]
            if trace is None:
                result.fail_cycle(f"trace: {name} cycle came back without spans")
                continue
            spans = [(0, 1, None, "cycle", cycle["t0"], cycle["t1"])]
            worker = [tuple(s) for s in trace["spans"]]
            spans += [
                (0, 1000 + sid, 1 if parent is None else 1000 + parent, n, s, e)
                for _, sid, parent, n, s, e in worker
            ]
            spans.append((0, 2, 1, "worker.queue_wait", trace["submitted"], worker[0][4]))
            if rec["decode"] is not None:
                spans.append((0, 3, 1, "serialize.decode", *rec["decode"]))
            try:
                ledger.add(spans, trace["counters"], f"{name}/{cycle['kind']}")
            except ValueError as exc:
                result.fail_cycle(f"trace: {name}: {exc}")
    result.per_layer.update(ledger.metrics())
    result.detail["ledger_by_kind"] = ledger.by_kind()


async def _run(seed: int, seconds: float, trace: bool, max_blocks: int | None) -> RunResult:
    result = RunResult()
    specs = tenant_specs(seed)
    for rep in range(SETUP_REPS):
        t0 = clock()
        server, operator, tenants = await _setup(specs, trace)
        result.setup_s.append(clock() - t0)
        if rep < SETUP_REPS - 1:
            await server.stop(operator)
    result.detail["mapper_hosts"] = {s.name: s.mapper for s in specs}

    rng = random.Random(f"service-churn-{seed}")
    querier = Querier(tenants, seed)
    tasks: list[asyncio.Task] = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        tasks = [
            asyncio.create_task(querier.send(writer)),
            asyncio.create_task(querier.receive(reader)),
        ]
        blocks = 0
        start = clock()
        while not result.cycles_failed and (
            blocks < max_blocks
            if max_blocks is not None
            else blocks < MIN_BLOCKS or another_block(start, blocks, seconds)
        ):
            for _ in range(ROTATIONS_PER_BLOCK):
                for name in TENANTS:
                    tenant = tenants[name]
                    kind, ends = await _mutate(operator, tenant, rng)
                    result.cycles_attempted += 1
                    cycle = await _map(operator, tenant)
                    resp = cycle["resp"]
                    cycle["kind"] = kind
                    tenant.cycles.append(cycle)
                    result.cycle_ms.append((cycle["t1"] - cycle["t0"]) * 1e3)
                    result.probes.append(resp.get("probes", 0))
                    result.sim_ms.append(resp.get("elapsed_ms", 0.0))
                    result.schedule.append(
                        {"tenant": name, "kind": kind, "wire": ends,
                         "probes": resp.get("probes"), "sim_ms": resp.get("elapsed_ms"),
                         "generation": resp.get("generation"), "seeded": resp.get("seeded")}
                    )
                    if not _adopted(resp):
                        result.fail_cycle(f"{name} {kind}: map not adopted: {resp}")
            blocks += 1
        result.detail["blocks"] = blocks
        querier.stopping.set()
        await asyncio.wait_for(tasks[0], OP_TIMEOUT_S)
        deadline = clock() + OP_TIMEOUT_S
        while querier.pending and clock() < deadline:
            await asyncio.sleep(0.01)
        if querier.pending:
            result.fail_route(f"{len(querier.pending)} lookups never answered")
        stats = (await operator.request("stats"))["server"]["latency"]
        writer.close()
        report = await server.stop(operator)
    except BaseException:
        await server.kill()
        raise
    finally:
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError, ConnectionError):
                await task

    result.rss_mb = report["rss_server_mb"] + report["rss_worker_mb"]
    _check_lookups(result, querier, tenants)
    result.detail.update(result.route_latency())
    late = [(sent - due) * 1e3 for due, sent, *_ in querier.done]
    late_p99 = percentile(late, 0.99) if late else 0.0
    result.detail["loadgen"] = {
        "rate_per_s": RATE,
        "sent": len(querier.done),
        "late_ms_p99": late_p99,
        "late_bound_ms": LATE_BOUND_MS,
        "valid": late_p99 <= LATE_BOUND_MS,
        "transport": "loopback TCP",
    }
    if late_p99 > LATE_BOUND_MS:
        print(
            f"perfbench: FLAG: generator p99 lateness {late_p99:.3f} ms exceeds "
            f"{LATE_BOUND_MS} ms; this run's route latencies are not valid",
            file=sys.stderr,
        )
    if trace:
        _ledger(result, tenants, report["cycles"])
        result.per_layer["server.route_op_ms_p99"] = stats["route"]["p99_ms"]
        result.per_layer["server.map_op_ms_p50"] = stats["map"]["p50_ms"]
        result.per_layer["loadgen.late_ms_p99"] = late_p99
        result.per_layer["loadgen.sent"] = float(len(querier.done))
        result.per_layer.update(result.route_latency())
    return result


def run(
    seed: int, seconds: float, trace: bool, max_blocks: int | None = None
) -> RunResult:
    """The whole number of blocks nearest ``seconds`` but at least
    ``MIN_BLOCKS`` (or ``max_blocks``)."""
    return asyncio.run(_run(seed, seconds, trace, max_blocks))
