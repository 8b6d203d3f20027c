"""The two-augmentation ``Q(v)`` solver against the network-simplex oracle.

Both must report the same ``Q(v)`` for every core node and hence the same
search depth ``Q + D + 1``; the cases cover parallel cables, a non-empty
``F``, several mapper hosts per network and single switch-switch cable
cuts (cuts that disconnect the network are skipped: ``D`` is undefined).
"""

from __future__ import annotations

import pytest

from repro.topology.analysis import (
    core_decomposition,
    q_value,
    recommended_search_depth,
    separated_set,
)
from repro.topology.generators import (
    build_chain,
    build_fat_tree,
    build_full_now,
    build_hypercube,
    build_mesh,
    build_ring,
    build_star,
    build_subcluster,
    build_three_tier_fat_tree,
    build_torus,
    random_san,
)
from repro.topology.model import Network
from tests.topology.q_oracle import (
    q_value_simplex,
    q_values_simplex,
    search_depth_simplex,
)


def _chain_with_tail() -> Network:
    """A host-on-every-switch chain plus a host-free two-switch tail (F)."""
    net = build_chain(4)
    net.add_switch("tail-0")
    net.add_switch("tail-1")
    net.connect("chain-s3", net.free_ports("chain-s3")[0], "tail-0", 0)
    net.connect("tail-0", 1, "tail-1", 0)
    assert separated_set(net) == {"tail-0", "tail-1"}
    return net


def _random(seed: int) -> Network:
    return random_san(
        n_switches=6 + seed % 4,
        n_hosts=3 + seed % 3,
        extra_links=seed % 4,
        parallel_link_prob=0.3,
        pendant_switches=seed % 3,
        seed=seed,
    )


NETWORKS = {
    "chain+tail": _chain_with_tail,
    "fat-tree": lambda: build_fat_tree(n_leaves=4, hosts_per_leaf=2),
    "clos-k4": lambda: build_three_tier_fat_tree(4),
    "ring": lambda: build_ring(5),
    "torus": lambda: build_torus(3, 3),
    "hypercube": lambda: build_hypercube(3),
    "mesh": lambda: build_mesh(3, 3),
    "star": lambda: build_star(4),
    **{f"random-{seed}": (lambda s=seed: _random(s)) for seed in range(12)},
}


def _mappers(net: Network, k: int = 3) -> list[str]:
    hosts = sorted(net.hosts)
    step = max(1, len(hosts) // k)
    return hosts[::step][:k]


def _switch_cuts(net: Network, limit: int | None = None) -> list[Network]:
    """Copies of ``net`` with one switch-switch cable pulled, kept connected."""
    out = []
    for wire in net.wires:
        a, b = wire.nodes
        if a == b or not (net.is_switch(a) and net.is_switch(b)):
            continue
        cut = net.copy()
        cut.disconnect(cut.wire_at(wire.a.node, wire.a.port))
        if cut.is_connected():
            out.append(cut)
        if limit is not None and len(out) == limit:
            break
    return out


def _assert_agree(net: Network, h0: str) -> None:
    d = core_decomposition(net, h0)
    assert d.q_values == q_values_simplex(net, h0)
    assert d.search_depth == search_depth_simplex(net, h0)
    assert recommended_search_depth(net, h0) == d.search_depth


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_agrees_with_oracle(name):
    net = NETWORKS[name]()
    for h0 in _mappers(net):
        _assert_agree(net, h0)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_agrees_with_oracle_after_a_cut(name):
    net = NETWORKS[name]()
    h0 = _mappers(net, 1)[0]
    for cut in _switch_cuts(net, limit=8):
        _assert_agree(cut, h0)


def test_random_networks_have_parallel_cables():
    for seed in range(12):
        pairs = [
            frozenset(w.nodes)
            for w in _random(seed).wires
            if w.a.node != w.b.node
        ]
        if len(pairs) != len(set(pairs)):
            return
    pytest.fail("no random case exercises parallel cables")


def test_subcluster_c():
    net = build_subcluster("C")
    for h0 in ["C-svc", *_mappers(net, 2)]:
        _assert_agree(net, h0)
    for cut in _switch_cuts(net, limit=6):
        _assert_agree(cut, "C-svc")


def test_full_now():
    net = build_full_now()
    _assert_agree(net, "C-svc")
    _assert_agree(_switch_cuts(net, limit=1)[0], "A-n00")


def test_single_node_queries_match_oracle():
    net = _random(5)
    h0 = sorted(net.hosts)[0]
    for v in net.nodes:
        assert q_value(net, h0, v) == q_value_simplex(net, h0, v)
