"""First clustering phase: lowest-id head election, gateway identification,
and assembly of the head/gateway backbone.

The election is the classic iterative lowest-id rule: repeatedly, the
undecided node with the lowest id in its closed undecided neighbourhood
becomes a head and claims its undecided neighbours as members.  It maps each
node to its head, a head to itself, and runs on any graph, each component
on its own.  The members that can hear another cluster are the gateways,
and heads plus gateways together form a dominating backbone of the network.

``node_states`` gives each node's neighbour-role map, the table a CBRP HELLO
broadcast carries.  The simulator never builds it: a HELLO round only counts
one broadcast per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .graph import NodeId, Topology, _unknown_node, neighbors

ClusterId = int


class Role(str, Enum):
    HEAD = "head"
    MEMBER = "member"
    GATEWAY = "gateway"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class DominatingSet:
    """The head/gateway backbone, kept in ascending id order."""

    members: tuple[NodeId, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def node_states(t: Topology, roles: Optional[Mapping[NodeId, Role]] = None) -> dict[NodeId, dict[NodeId, Role]]:
    """Each node's neighbour-role map, ``{node: {neighbour: role}}``, in id
    order; roles are ``Role.UNDECIDED`` before election."""
    return {
        u: {v: roles[v] if roles is not None else Role.UNDECIDED for v in sorted(neighbors(t, u))}
        for u in sorted(t.nodes)
    }


def elect_heads(t: Topology) -> dict[NodeId, ClusterId]:
    """Iterative lowest-id election over any topology: each node mapped to
    its head, a head to itself, each head before its members.

    The produced heads are pairwise non-adjacent and every member sits one
    hop from its head.  A node's head is read from its own component only.

    One ascending pass over the nodes, skipping the decided ones, costs
    O(Σdeg + n log n).  It elects the same heads as taking the lowest
    undecided node once per head, because a node never becomes undecided
    again: the lowest undecided node is the first undecided one in the pass.
    A head's members are one C-level intersection of the undecided set with
    its adjacency, with no Python-level step per neighbour.  A head stays in
    the set, never met again: a later head that heard it would be its member.
    """
    adj = t.adj
    undecided = set(adj)
    head_of: dict[NodeId, ClusterId] = {}
    for head in sorted(adj):
        if head not in undecided:
            continue
        members = undecided.intersection(adj[head])
        undecided -= members
        head_of[head] = head
        head_of.update(dict.fromkeys(sorted(members), head))
    return head_of


def identify_gateways(t: Topology, head_of: Mapping[NodeId, ClusterId]) -> frozenset[NodeId]:
    """The members (nodes not mapped to themselves) that can hear a node of
    a different cluster.

    ``head_of`` maps every node of ``t``, as an election does, so a member
    hears another cluster exactly when its adjacency is not a subset of its
    own cluster's nodes: one C-level superset test per member after one
    pass that groups the nodes by cluster, O(n + Σdeg) in all, with no
    Python-level step per neighbour.  A member outside ``t`` raises
    ``UnknownNode``.
    """
    clusters: dict[ClusterId, set[NodeId]] = {}
    for nid, cid in head_of.items():
        nodes = clusters.get(cid)
        if nodes is None:
            nodes = clusters[cid] = set()
        nodes.add(nid)
    adj = t.adj
    try:
        return frozenset(
            [nid for nid, cid in head_of.items() if nid != cid and not clusters[cid].issuperset(adj[nid])]
        )
    except KeyError as missing:  # every cid keys ``clusters``, so only ``adj`` can miss
        raise _unknown_node(missing.args[0]) from None


def build_dominating_set(head_of: Mapping[NodeId, ClusterId], gateways: frozenset[NodeId]) -> DominatingSet:
    """The heads plus ``gateways``, in id order; ``phase2.cluster_form``
    checks that they dominate the topology."""
    return DominatingSet(tuple(sorted(gateways.union([nid for nid, cid in head_of.items() if nid == cid]))))
