"""Differential oracle for ``Q(v)``: one networkx min-cost flow per node.

This is the formulation :mod:`repro.topology.analysis` used before its
two-augmentation solver, kept here so the solver can be checked against an
independent implementation: a fresh ``nx.DiGraph`` per node, solved by
``nx.network_simplex``.
"""

from __future__ import annotations

import networkx as nx

from repro.topology.analysis import diameter, separated_set
from repro.topology.model import Network

_SINK = "__sink__"
_SINK_H0 = "__sink_h0__"
_SINK_ANY = "__sink_any__"


def q_value_simplex(net: Network, h0: str, v: str) -> int | None:
    """``Q(v)`` of Definition 2 by network simplex, or ``None`` if undefined."""
    if not net.is_host(h0):
        raise ValueError(f"mapper node {h0} must be a host")
    if v == h0:
        return 0
    dg = nx.DiGraph()
    attach = net.host_attachment(h0)
    for wire in net.wires:
        a, b = wire.nodes
        if a == b:
            continue
        for u, w in ((a, b), (b, a)):
            cap = 1
            # Anomaly: h0's attachment wire may carry both trail ends.
            if attach is not None and w == h0 and u == attach.node:
                cap = 2
            if dg.has_edge(u, w):
                dg[u][w]["capacity"] += cap
            else:
                dg.add_edge(u, w, capacity=cap, weight=1)
    if v not in dg:
        return None
    dg.add_edge(h0, _SINK_H0, capacity=1, weight=0)
    for host in net.hosts:
        dg.add_edge(host, _SINK_ANY, capacity=1, weight=0)
    dg.add_edge(_SINK_H0, _SINK, capacity=1, weight=0)
    dg.add_edge(_SINK_ANY, _SINK, capacity=1, weight=0)
    dg.nodes[v]["demand"] = -2
    dg.nodes[_SINK]["demand"] = 2
    try:
        cost, _ = nx.network_simplex(dg)
    except nx.NetworkXUnfeasible:
        return None
    return int(cost)


def q_values_simplex(net: Network, h0: str) -> dict[str, int]:
    """Every defined ``Q(v)`` over ``N - F``, as ``core_decomposition`` reports."""
    f = separated_set(net)
    out: dict[str, int] = {}
    for node in net.nodes:
        if node in f:
            continue
        q = q_value_simplex(net, h0, node)
        if q is not None:
            out[node] = q
    return out


def search_depth_simplex(net: Network, h0: str) -> int:
    """``Q + D + 1`` from the oracle's ``Q`` values."""
    return max(q_values_simplex(net, h0).values(), default=0) + diameter(net) + 1
