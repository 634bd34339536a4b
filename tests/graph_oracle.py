"""Edge-list oracle: the set-per-node build.

A verbatim copy of ``topology_from_edges`` as it stood before the builders
appended each link to a per-node list and froze the list once.  It adds
every edge to a growing mutable set per node and copies each set into a
frozenset, which is plainly the rule as stated; the property tests in
``test_graph.py`` compare the library against it, input errors included.
"""

from typing import Iterable

from councilnet.errors import DuplicateNid, UnknownNode
from councilnet.graph import NodeId, Topology


def topology_from_edges(
    nodes: Iterable[NodeId],
    edges: Iterable[tuple[NodeId, NodeId]],
) -> Topology:
    """Build a topology from an explicit node and edge list."""
    node_list = list(nodes)
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in node_list}
    if len(adj) != len(node_list):
        raise DuplicateNid("node list contains repeated ids")
    if any(n < 1 for n in adj):
        raise ValueError("node ids must be >= 1")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u not in adj or v not in adj:
            raise UnknownNode(f"edge ({u}, {v}) references an unknown node")
        adj[u].add(v)
        adj[v].add(u)
    return Topology({u: frozenset(vs) for u, vs in adj.items()})
