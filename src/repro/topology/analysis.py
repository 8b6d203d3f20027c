"""Graph-theoretic analyses from Sections 2 and 3.1.4 of the paper.

Implements:

- the network diameter ``D``;
- bridges and *switch-bridges* (bridges with switches at both ends);
- the set ``F`` of nodes separated from the hosts ``H`` by a switch-bridge
  (Lemma 1), computed two independent ways — by switch-bridge removal and by
  the max-flow/min-cut criterion the paper's proof uses;
- ``Q(v)`` (Definition 2): the length of the shortest path from the mapper
  ``h0`` through ``v`` and on to any host that repeats no edge in either
  direction, except that the first and last edge may coincide;
- ``Q = max Q(v)`` over the core (Definition 3) and the recommended
  exploration depth ``Q + D + 1`` (Section 3.1.4).

``Q(v)`` is computed exactly with a min-cost-flow formulation: a trail
``h0 → v → h`` with no repeated edge decomposes at ``v`` into two
edge-disjoint trails ``v → h0`` and ``v → h``; conversely two such trails
concatenate into a valid walk. With unit costs an optimal flow never routes
both directions of one wire (the 2-cycle would cancel), so the "no repeated
edge in either direction" constraint is enforced automatically. The flow
value is only 2, so two successive shortest augmenting paths solve it; the
residual network is built once per ``(net, h0)`` and reused for every ``v``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import networkx as nx

from repro.topology.model import Network, Wire

__all__ = [
    "CoreDecomposition",
    "bridges",
    "core_decomposition",
    "core_network",
    "diameter",
    "hop_distances",
    "q_max",
    "q_value",
    "recommended_search_depth",
    "separated_set",
    "separated_set_flow",
    "switch_bridges",
]

_SINK = "__sink__"


def _simple_graph(net: Network) -> nx.Graph:
    """Underlying simple graph with edge multiplicities (loopbacks dropped)."""
    g = nx.Graph()
    for node in net.nodes:
        g.add_node(node, kind=net.kind(node).value)
    for wire in net.wires:
        u, v = wire.nodes
        if u == v:
            continue  # loopback cables never affect connectivity
        if g.has_edge(u, v):
            g[u][v]["multiplicity"] += 1
        else:
            g.add_edge(u, v, multiplicity=1)
    return g


def diameter(net: Network) -> int:
    """The diameter ``D`` of the network (hop count over all node pairs)."""
    g = _simple_graph(net)
    if g.number_of_nodes() == 0:
        return 0
    return nx.diameter(g)


def hop_distances(net: Network, source: str) -> dict[str, int]:
    """Single-source hop distances (BFS) over the underlying simple graph."""
    return nx.single_source_shortest_path_length(_simple_graph(net), source)


def bridges(net: Network) -> list[Wire]:
    """All bridge wires: wires whose removal disconnects the network.

    A wire parallel to another wire between the same node pair is never a
    bridge, and loopback cables are never bridges.
    """
    g = _simple_graph(net)
    bridge_pairs = {
        frozenset((u, v))
        for u, v in nx.bridges(g)
        if g[u][v]["multiplicity"] == 1
    }
    return [
        w
        for w in net.wires
        if w.a.node != w.b.node and frozenset(w.nodes) in bridge_pairs
    ]


def switch_bridges(net: Network) -> list[Wire]:
    """Bridges with switches at both ends (the paper's *switch-bridge*)."""
    return [
        w
        for w in bridges(net)
        if net.is_switch(w.a.node) and net.is_switch(w.b.node)
    ]


def separated_set(net: Network) -> set[str]:
    """The set ``F``: nodes separated from all hosts by some switch-bridge.

    Computed directly from Lemma 1's characterization: for each switch-bridge,
    remove it; every node in a resulting component containing no host is in
    ``F``.
    """
    f: set[str] = set()
    g = _simple_graph(net)
    host_set = set(net.hosts)
    for wire in switch_bridges(net):
        u, v = wire.nodes
        g.remove_edge(u, v)
        for component in nx.connected_components(g):
            if not component & host_set:
                f |= component
        g.add_edge(u, v, multiplicity=1)
    return f


def separated_set_flow(net: Network) -> set[str]:
    """``F`` via the Max-Flow/Min-Cut criterion used in the Lemma 1 proof.

    A switch ``v`` is outside ``F`` iff two units of flow can be pushed from
    ``v`` to the host set with unit capacity on every wire. Hosts are never
    in ``F``.
    """
    if net.n_hosts == 0:
        return set(net.switches)
    dg = nx.DiGraph()
    for wire in net.wires:
        u, v = wire.nodes
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            if dg.has_edge(a, b):
                dg[a][b]["capacity"] += 1
            else:
                dg.add_edge(a, b, capacity=1)
    for host in net.hosts:
        dg.add_edge(host, _SINK, capacity=1)
    f: set[str] = set()
    for switch in net.switches:
        if switch not in dg:
            f.add(switch)  # fully disconnected switch
            continue
        value = nx.maximum_flow_value(dg, switch, _SINK)
        if value < 2:
            f.add(switch)
    return f


class _QSolver:
    """Residual flow network for every ``Q(v)`` of one ``(net, h0)``.

    The network is the one Definition 2 induces: a unit-cost arc per wire
    direction (parallel wires add capacity), capacity 2 on the arc from
    ``h0``'s attachment into ``h0`` (the first-and-last-edge anomaly), and
    zero-cost arcs ``h0 → SINK_H0``, ``host → SINK_ANY`` and both sinks
    ``→ SINK``. Arcs are integer-indexed in forward/reverse pairs, so the
    residual twin of arc ``e`` is ``e ^ 1``. It is built once; each
    :meth:`q` resets the capacities and pushes two units from ``v``.
    """

    __slots__ = ("_index", "_head", "_cost", "_cap", "_out", "_sink")

    def __init__(self, net: Network, h0: str) -> None:
        if not net.is_host(h0):
            raise ValueError(f"mapper node {h0} must be a host")
        nodes = net.nodes
        index = {node: i for i, node in enumerate(nodes)}
        sink_h0, sink_any, sink = len(nodes), len(nodes) + 1, len(nodes) + 2
        attach = net.host_attachment(h0)
        arc_cap: dict[tuple[int, int], int] = {}
        for wire in net.wires:
            a, b = wire.nodes
            if a == b:
                continue
            for u, w in ((a, b), (b, a)):
                cap = 1
                # Anomaly: the first and last edge of the walk may be the
                # same, i.e. h0's attachment wire may carry both trail ends
                # into h0.
                if attach is not None and w == h0 and u == attach.node:
                    cap = 2
                key = (index[u], index[w])
                arc_cap[key] = arc_cap.get(key, 0) + cap
        self._index = index
        self._head: list[int] = []
        self._cost: list[int] = []
        self._cap: list[int] = []
        self._out: list[list[int]] = [[] for _ in range(len(nodes) + 3)]
        self._sink = sink
        for (u, w), cap in arc_cap.items():
            self._arc(u, w, cap, 1)
        self._arc(index[h0], sink_h0, 1, 0)
        for host in net.hosts:
            self._arc(index[host], sink_any, 1, 0)
        self._arc(sink_h0, sink, 1, 0)
        self._arc(sink_any, sink, 1, 0)

    def _arc(self, u: int, w: int, cap: int, cost: int) -> None:
        self._out[u].append(len(self._head))
        self._head.append(w)
        self._cost.append(cost)
        self._cap.append(cap)
        self._out[w].append(len(self._head))
        self._head.append(u)
        self._cost.append(-cost)
        self._cap.append(0)

    def q(self, node: str) -> int | None:
        """Min cost of two units from ``node`` to SINK, or ``None``.

        Successive shortest paths: the fresh network has no negative
        cycle, so augmenting along a shortest path keeps it that way and
        the summed path costs are the min-cost-flow value. The first path
        sees only 0/1 costs (0-1 BFS); the second crosses the residual
        ``-1`` twins of the first (SPFA). No second path means no feasible
        flow, i.e. ``node`` has no ``Q``. For ``h0`` itself both units
        leave by its two sink arcs at cost 0.
        """
        v = self._index.get(node)
        if v is None:
            return None
        cap = self._cap[:]
        first = self._zero_one_bfs(v, cap)
        if first is None:
            return None
        second = self._spfa(v, cap)
        if second is None:
            return None
        return first + second

    def _augment(self, pred: list[int], cap: list[int]) -> None:
        head = self._head
        x = self._sink
        while True:
            e = pred[x]
            if e < 0:
                return
            cap[e] -= 1
            cap[e ^ 1] += 1
            x = head[e ^ 1]

    def _zero_one_bfs(self, v: int, cap: list[int]) -> int | None:
        head, cost, out, sink = self._head, self._cost, self._out, self._sink
        n = len(out)
        dist = [n + 1] * n
        pred = [-1] * n
        done = [False] * n
        dist[v] = 0
        queue = deque((v,))
        while queue:
            u = queue.popleft()
            if done[u]:
                continue
            if u == sink:
                self._augment(pred, cap)
                return dist[u]
            done[u] = True
            du = dist[u]
            for e in out[u]:
                if cap[e] <= 0:
                    continue
                w = head[e]
                dw = du + cost[e]
                if dw < dist[w]:
                    dist[w] = dw
                    pred[w] = e
                    if dw == du:
                        queue.appendleft(w)
                    else:
                        queue.append(w)
        return None

    def _spfa(self, v: int, cap: list[int]) -> int | None:
        head, cost, out, sink = self._head, self._cost, self._out, self._sink
        n = len(out)
        unreached = 2 * n + 2
        dist = [unreached] * n
        pred = [-1] * n
        queued = [False] * n
        dist[v] = 0
        queue = deque((v,))
        queued[v] = True
        while queue:
            u = queue.popleft()
            queued[u] = False
            du = dist[u]
            for e in out[u]:
                if cap[e] <= 0:
                    continue
                w = head[e]
                dw = du + cost[e]
                if dw < dist[w]:
                    dist[w] = dw
                    pred[w] = e
                    if not queued[w]:
                        queued[w] = True
                        queue.append(w)
        if dist[sink] == unreached:
            return None
        self._augment(pred, cap)
        return dist[sink]


def q_value(net: Network, h0: str, v: str) -> int | None:
    """``Q(v)`` of Definition 2, or ``None`` when undefined (``v`` in ``F``).

    Min-cost flow: supply 2 at ``v``; one unit must terminate at ``h0`` and
    one at any host (possibly ``h0`` again via its attachment wire, the
    Definition 2 anomaly, in which case the arc into ``h0`` carries 2).
    :func:`core_decomposition` reuses one solver for every ``v``.
    """
    return _QSolver(net, h0).q(v)


@dataclass(frozen=True, slots=True)
class CoreDecomposition:
    """Everything the exploration-depth bound of Section 3.1.4 needs."""

    h0: str
    diameter: int
    f_set: frozenset[str]
    q: int
    q_values: dict[str, int]

    @property
    def search_depth(self) -> int:
        """The paper's bound ``Q + D + 1`` on probe string length."""
        return self.q + self.diameter + 1

    @property
    def refined_search_depth(self) -> int:
        """``Q + D``: the refinement noted at the end of Section 3.2.7."""
        return self.q + self.diameter


def core_decomposition(net: Network, h0: str) -> CoreDecomposition:
    """Compute ``D``, ``F``, all ``Q(v)`` and ``Q`` in one pass."""
    solver = _QSolver(net, h0)
    f = separated_set(net)
    qvals: dict[str, int] = {}
    for node in net.nodes:
        if node in f:
            continue
        q = solver.q(node)
        if q is not None:
            qvals[node] = q
    q_star = max(qvals.values(), default=0)
    return CoreDecomposition(
        h0=h0,
        diameter=diameter(net),
        f_set=frozenset(f),
        q=q_star,
        q_values=qvals,
    )


def q_max(net: Network, h0: str) -> int:
    """``Q`` of Definition 3."""
    return core_decomposition(net, h0).q


def recommended_search_depth(net: Network, h0: str) -> int:
    """The exploration depth ``Q + D + 1`` the algorithm is proven with.

    Computed over ``h0``'s connected component, the only part of ``N`` a
    mapper at ``h0`` can reach: an unplugged cable elsewhere must not make
    ``D`` infinite. A component below the model's minimums (one switch, two
    hosts) has no proven depth; any small depth maps what little remains,
    so it gets 2.
    """
    if not net.is_host(h0):
        raise ValueError(f"mapper node {h0} must be a host")
    reach = nx.node_connected_component(_simple_graph(net), h0)
    if len(reach) < len(net.nodes):
        net = net.induced_subnetwork(reach)
    if net.n_switches < 1 or net.n_hosts < 2:
        return 2
    return core_decomposition(net, h0).search_depth


def core_network(net: Network) -> Network:
    """The core ``N - F`` as a standalone :class:`Network`."""
    keep = set(net.nodes) - separated_set(net)
    return net.induced_subnetwork(keep)
