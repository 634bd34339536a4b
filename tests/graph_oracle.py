"""Graph oracles: the all-pairs disk build and the set-per-node edge-list build.

``build_topology`` tests every pair of nodes with the closed-disk rule,
with no strips or windows.  It takes the library build's arguments, so the twin run in
``test_sim.py`` can put it in place of the library's build, the deferred
builds of moved topologies included.  ``topology_from_edges`` is a copy
of the library's as it stood before the builders appended each link to a
per-node list and froze the list once, with the library's node-id rule (an
int >= 1, not a bool), distinct-id rule (checked after each id's own rule,
in list order) and link rule (both endpoints node ids, then both listed,
then distinct) written out in place.  It adds every edge to a
growing mutable set per node and copies each set into a frozenset, which
is plainly the rule as stated.  The property tests in ``test_graph.py``
compare the library against both, input errors included for edge lists.

The library stores each node's links as a tuple, in build order; ``links``
gives any topology's links as frozensets, the one form in which tests
compare the links of two topologies, or of one and a literal.
"""

import itertools
from typing import Iterable

from councilnet.errors import DuplicateNid, UnknownNode
from councilnet.graph import NodeId, Topology, _DiskTopology


def build_topology(node_specs, radius) -> _DiskTopology:
    """The all-pairs closed-disk build that the strip sweep must reproduce."""
    positions = {nid: (float(x), float(y)) for nid, (x, y) in node_specs}
    r = float(radius)
    r2 = r * r
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in positions}
    for u, v in itertools.combinations(positions, 2):
        (ux, uy), (vx, vy) = positions[u], positions[v]
        dx, dy = ux - vx, uy - vy
        if dx * dx + dy * dy <= r2:
            adj[u].add(v)
            adj[v].add(u)
    return _DiskTopology({u: frozenset(vs) for u, vs in adj.items()}, positions, r)


def links(t: Topology) -> dict[NodeId, frozenset[NodeId]]:
    """Each node of ``t`` mapped to its links as a frozenset, in ``t.adj``'s order."""
    return {u: frozenset(vs) for u, vs in t.adj.items()}


def check_nid(n) -> None:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"node ids must be ints >= 1, got {n!r}")


def topology_from_edges(
    nodes: Iterable[NodeId],
    edges: Iterable[tuple[NodeId, NodeId]],
) -> Topology:
    """Build a topology from an explicit node and edge list."""
    adj: dict[NodeId, set[NodeId]] = {}
    for n in nodes:
        check_nid(n)
        if n in adj:
            raise DuplicateNid(f"node id {n} appears more than once")
        adj[n] = set()
    for u, v in edges:
        check_nid(u)
        check_nid(v)
        if u not in adj or v not in adj:
            raise UnknownNode(f"edge ({u}, {v}) references an unknown node")
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Topology({u: frozenset(vs) for u, vs in adj.items()})
