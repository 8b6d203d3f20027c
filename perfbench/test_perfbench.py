"""The benchmark's own tests: determinism, the ledger identity, the CLI.

    python3 -m pytest perfbench -q

The workload tests run one short block each (about two minutes in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import common, tracing, wl_daemon, wl_fattree, wl_service

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    for module in (wl_daemon, wl_fattree, wl_service):
        monkeypatch.setattr(module, "SETUP_REPS", 1)
    monkeypatch.setattr(wl_service, "ROTATIONS_PER_BLOCK", 2)


def _assert_ledger_adds_up(result: common.RunResult) -> None:
    """Per cycle kind, the mean layer self times sum to the mean cycle."""
    for kind, row in result.detail["ledger_by_kind"].items():
        layers = sum(v for k, v in row.items() if k not in ("cycles", "cycle_ms"))
        assert layers == pytest.approx(row["cycle_ms"], rel=1e-9), kind


def _counts(result: common.RunResult) -> dict:
    return {
        "probes_per_cycle": result.probes,
        "sim_ms_per_cycle": result.sim_ms,
        "routing.routes": result.per_layer["routing.routes"],
        "deadlock.dependency_arcs": result.per_layer["deadlock.dependency_arcs"],
        "serialize.outcome_bytes": result.per_layer["serialize.outcome_bytes"],
    }


def test_daemon_same_seed_same_schedule_and_counts_other_seed_differs():
    a = wl_daemon.run(7, 0, True, max_blocks=1)
    b = wl_daemon.run(7, 0, True, max_blocks=1)
    c = wl_daemon.run(8, 0, False, max_blocks=1)
    for r in (a, b, c):
        assert r.correct, r.failures
    assert a.schedule == b.schedule
    assert _counts(a) == _counts(b)
    assert a.per_layer["routing.routes"] > 0
    assert a.per_layer["deadlock.dependency_arcs"] > 0
    _assert_ledger_adds_up(a)
    assert [s["kind"] for s in a.schedule].count("quiet") == 3
    assert a.detail["mapper_host"] != c.detail["mapper_host"]
    cuts = lambda r: [s["wire"] for s in r.schedule if s["kind"] == "cut"]  # noqa: E731
    assert cuts(a) != cuts(c)


def test_fattree_same_seed_same_hosts_and_probes_other_seed_differs():
    a = wl_fattree.run(7, 0, False, max_cycles=2)
    b = wl_fattree.run(7, 0, False, max_cycles=2)
    c = wl_fattree.run(8, 0, False, max_cycles=2)
    for r in (a, b, c):
        assert r.correct, r.failures
    assert a.schedule == b.schedule
    assert [s["mapper_host"] for s in a.schedule] != [
        s["mapper_host"] for s in c.schedule
    ]


def test_service_same_seed_same_schedule_and_counts_other_seed_differs():
    a = wl_service.run(7, 0, True, max_blocks=1)
    b = wl_service.run(7, 0, True, max_blocks=1)
    c = wl_service.run(8, 0, False, max_blocks=1)
    for r in (a, b, c):
        assert r.correct, r.failures
    assert a.schedule == b.schedule
    assert _counts(a) == _counts(b)
    assert a.per_layer["serialize.outcome_bytes"] > 0
    assert a.per_layer["trace.sizing_ms"] > 0
    _assert_ledger_adds_up(a)
    assert a.per_layer["route_ms_p99"] > 0 and "route_ms_p99" in c.detail
    assert c.detail["generations_checked"] > 0
    assert a.detail["mapper_hosts"] != c.detail["mapper_hosts"]
    cuts = lambda r: [s["wire"] for s in r.schedule if s["kind"] == "cut"]  # noqa: E731
    assert cuts(a) != cuts(c)


def test_cut_candidates_exclude_switch_bridges():
    from repro.topology.analysis import switch_bridges
    from repro.topology.generators import build_chain

    net = build_chain(4)
    assert switch_bridges(net)
    assert common.cut_candidates(net) == []


def test_tail_needs_ten_samples_beyond_and_never_undercuts_the_median():
    assert common.tail(list(range(1, 101))) == (90, 90)
    assert common.tail(list(range(1, 13)))[0] == 50
    assert common.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_a_run_holds_the_whole_number_of_blocks_nearest_its_seconds(monkeypatch):
    def at(elapsed: float, blocks: int) -> bool:
        monkeypatch.setattr(common, "clock", lambda: elapsed)
        return common.another_block(0.0, blocks, 45.0)

    assert at(0.0, 0)
    assert at(22.0, 1)  # two blocks (44 s) are nearer 45 s than one
    assert not at(44.0, 2)  # a third would end at 66 s
    assert not at(40.0, 2) and at(30.0, 2)


def test_ledger_reconciles_and_rejects_escaping_spans():
    spans = [
        (0, 1, None, "cycle", 0.0, 1.0),
        (0, 2, 1, "mapper.map", 0.1, 0.6),
        (0, 3, 2, "simulator.probe", 0.2, 0.5),
        (0, 4, 1, "iso.match", 0.7, 0.9),
    ]
    ledger = tracing.Ledger()
    ledger.add(spans, {}, "k")
    m = ledger.metrics()
    assert m["mapper.map_ms"] == pytest.approx(500.0)
    assert m["mapper.self_ms"] == pytest.approx(200.0)
    assert m["simulator.probe_ms"] == pytest.approx(300.0)
    assert m["trace.unattributed_ms"] == pytest.approx(300.0)
    layers, _ = tracing.self_times(spans)
    assert sum(layers.values()) == pytest.approx(1000.0)
    with pytest.raises(ValueError):
        tracing.self_times(spans + [(0, 5, 4, "iso.match", 0.8, 1.2)])
    with pytest.raises(ValueError):
        tracing.self_times(spans + [(0, 5, 1, "no.such.layer", 0.95, 0.99)])


def test_every_span_name_feeds_a_listed_metric():
    fed = {*tracing.LAYER_OF_SPAN.values(), *tracing.INCLUSIVE_OF_SPAN.values()}
    assert fed <= set(tracing.PER_LAYER)
    names = {name for _, _, name, _ in (
        *tracing.DAEMON_TARGETS, *tracing.MAP_TARGETS, *tracing.WORKER_TARGETS
    )}
    assert names | {"simulator.probe", "trace.sizing"} <= set(tracing.LAYER_OF_SPAN)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


def test_instrumented_restores_every_wrapped_attribute():
    from repro.core import remapper
    from repro.core.mapper import BerkeleyMapper

    before = (remapper.recommended_search_depth, BerkeleyMapper.__dict__["map"])
    with tracing.instrumented(tracing.Tracer(), tracing.DAEMON_TARGETS):
        assert remapper.recommended_search_depth is not before[0]
    assert (remapper.recommended_search_depth, BerkeleyMapper.__dict__["map"]) == before


def test_run_without_the_system_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fattree_cold_map",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
