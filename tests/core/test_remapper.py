"""Periodic remapping daemon tests: discover → diff → reroute."""

import pytest

from repro.core.remapper import HISTORY_LIMIT, RemapperDaemon
from repro.simulator.path_eval import PathStatus, evaluate_route
from repro.topology.builder import NetworkBuilder


@pytest.fixture()
def live_net():
    """A mutable network the daemon probes across cycles."""
    b = NetworkBuilder()
    b.switches("s0", "s1", "s2")
    b.hosts("h0", "h1", "h2", "h3")
    b.attach("h0", "s0", port=0)
    b.attach("h1", "s0", port=1)
    b.attach("h2", "s1", port=0)
    b.attach("h3", "s2", port=0)
    b.link("s0", "s1", port_a=4, port_b=4)
    b.link("s1", "s2", port_a=5, port_b=4)
    b.link("s0", "s2", port_a=5, port_b=5)
    return b.build()


class TestSteadyState:
    def test_first_cycle_computes_routes(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        cycle = daemon.run_cycle()
        assert cycle.routes_recomputed
        assert cycle.deadlock_free
        assert cycle.n_routes == 4 * 3
        assert cycle.distribution is not None and cycle.distribution.ok

    def test_unchanged_network_skips_recompute(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        second = daemon.run_cycle()
        assert not second.changed
        assert not second.routes_recomputed
        assert second.distribution is None
        assert len(daemon.history) == 2

    def test_route_lookup(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        assert daemon.route("h0", "h3") is None  # before any cycle
        daemon.run_cycle()
        turns = daemon.route("h0", "h3")
        out = evaluate_route(live_net, "h0", turns)
        assert out.status is PathStatus.DELIVERED
        assert out.delivered_to == "h3"


class TestAdaptation:
    def test_host_arrival_triggers_reroute(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        live_net.add_host("h4")
        live_net.connect("h4", 0, "s2", 1)
        cycle = daemon.run_cycle()
        assert cycle.changed
        assert "h4" in cycle.diff.hosts_added
        assert cycle.routes_recomputed
        assert daemon.route("h0", "h4") is not None

    def test_cable_failure_triggers_reroute_around(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        old_route = daemon.route("h0", "h3")
        # Pull the direct s0-s2 cable; h3 stays reachable via s1.
        live_net.disconnect(live_net.wire_at("s0", 5))
        cycle = daemon.run_cycle()
        assert cycle.changed and cycle.routes_recomputed
        new_route = daemon.route("h0", "h3")
        assert new_route != old_route
        out = evaluate_route(live_net, "h0", new_route)
        assert out.delivered_to == "h3"

    def test_host_departure(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        live_net.remove_node("h2")
        cycle = daemon.run_cycle()
        assert "h2" in cycle.diff.hosts_removed
        assert daemon.route("h0", "h2") is None

    def test_history_accumulates(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        for _ in range(3):
            daemon.run_cycle()
        assert [c.index for c in daemon.history] == [0, 1, 2]
        assert daemon.history[0].changed  # first cycle always "changes"
        assert not daemon.history[2].changed

    def test_history_is_bounded(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        for _ in range(HISTORY_LIMIT + 5):
            daemon.run_cycle()
        assert len(daemon.history) == HISTORY_LIMIT
        assert [c.index for c in daemon.history] == list(
            range(5, HISTORY_LIMIT + 5)
        )


class TestDepthPolicy:
    def test_unplugged_host_maps_the_mapper_component(self, live_net):
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        live_net.disconnect(live_net.wire_at("h3", 0))
        cycle = daemon.run_cycle()
        assert cycle.map_result.network.n_hosts == live_net.n_hosts - 1
        assert "h3" in cycle.diff.hosts_removed
        assert cycle.routes_recomputed and cycle.deadlock_free
        assert cycle.distribution is not None and cycle.distribution.ok

    def test_depth_reused_until_the_topology_changes(self, live_net, monkeypatch):
        import repro.core.remapper as remapper

        calls = []
        real = remapper.recommended_search_depth

        def counting(net, h0):
            calls.append(net.topology_epoch)
            return real(net, h0)

        monkeypatch.setattr(remapper, "recommended_search_depth", counting)
        daemon = RemapperDaemon(live_net, "h0")
        daemon.run_cycle()
        daemon.run_cycle()
        assert len(calls) == 1
        live_net.disconnect(live_net.wire_at("s0", 5))
        daemon.run_cycle()
        daemon.run_cycle()
        assert calls == [calls[0], live_net.topology_epoch]

    def test_explicit_depth_policies_are_not_cached(self, live_net):
        seen = []

        def depth_fn(net, h0):
            seen.append(h0)
            return 8

        daemon = RemapperDaemon(live_net, "h0", depth_fn=depth_fn)
        daemon.run_cycle()
        daemon.run_cycle()
        assert seen == ["h0", "h0"]
