"""The map server under test, as its own process.

    python3 perfbench/server_child.py --tenants JSON --workers 2 --trace 0|1

Starts a :class:`MapServer` on a loopback port with a process pool of
``--workers`` spawned simulator workers, prints ``{"port": N}`` when it
listens, and serves until a client sends ``shutdown``. It then joins the
pool and prints one JSON line: the peak resident memory of the server and
of its largest worker and, with ``--trace 1``, every cycle's spans.

With ``--trace 1`` the workers run :func:`perfbench.tracing.
traced_run_map_job`, the pool stamps each job's submit time into its
payload, and the server's adoption decode and ``TenantState.adopt`` are
wrapped to collect each cycle's spans as it is adopted.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class StampingExecutor(Executor):
    """Forwards to a pool; stamps ``bench_submit`` into each job payload."""

    def __init__(self, inner: Executor) -> None:
        self._inner = inner

    def submit(self, fn, /, *args, **kwargs):
        if args and isinstance(args[0], dict):
            args[0]["bench_submit"] = time.perf_counter()
        return self._inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._inner.shutdown(wait=wait, cancel_futures=cancel_futures)


class CycleRecorder:
    """Collects each adopted cycle's worker spans and adoption decode."""

    def __init__(self) -> None:
        self.cycles: list[dict] = []
        self._decode: list[float] | None = None

    def install(self) -> None:
        from perfbench import tracing
        from repro.service import server, tenant

        decode = server.route_tables_from_dict
        adopt = tenant.TenantState.adopt

        def timed_decode(doc):
            start = time.perf_counter()
            try:
                return decode(doc)
            finally:
                self._decode = [start, time.perf_counter()]

        def recording_adopt(state, outcome, tables):
            self.cycles.append(
                {
                    "tenant": state.spec.name,
                    "trace": outcome.pop("bench_trace", None),
                    "decode": self._decode,
                }
            )
            self._decode = None
            return adopt(state, outcome, tables)

        server.run_map_job = tracing.traced_run_map_job
        server.route_tables_from_dict = timed_decode
        tenant.TenantState.adopt = recording_adopt


async def serve(tenants: list[dict], workers: int, recorder: CycleRecorder | None) -> None:
    from repro.service.server import MapServer
    from repro.service.tenant import TenantSpec

    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    )
    executor = pool if recorder is None else StampingExecutor(pool)
    server = MapServer([TenantSpec.from_dict(t) for t in tenants], executor=executor)
    try:
        _, port = await server.start("127.0.0.1", 0)
        print(json.dumps({"port": port}), flush=True)
        await server.wait_closed()
        # Let the shutdown op's own stop() and the connection handlers end.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=10)
    finally:
        await server.stop()
        pool.shutdown(wait=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tenants", required=True)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import perfbench  # noqa: F401 - puts the checkout's src on sys.path

    recorder = CycleRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    asyncio.run(serve(json.loads(args.tenants), args.workers, recorder))
    report = {
        "rss_server_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rss_worker_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "cycles": recorder.cycles if recorder is not None else [],
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
