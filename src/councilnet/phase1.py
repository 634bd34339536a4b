"""First clustering phase: lowest-id head election, gateway identification,
and assembly of the head/gateway backbone.

The election is the classic iterative lowest-id rule: repeatedly, the
undecided node with the lowest id in its closed undecided neighbourhood
becomes a head and claims its undecided neighbours as members.  Members that
can hear another cluster are then re-tagged as gateways, and heads plus
gateways together form a dominating backbone of the network.

``node_states`` gives each node's neighbour-role map, the table a CBRP HELLO
broadcast carries.  The simulator never builds it: a HELLO round only counts
one broadcast per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import DisconnectedTopology, ValidationError
from .graph import NodeId, Topology, is_connected, neighbors

ClusterId = int


class Role(str, Enum):
    HEAD = "head"
    MEMBER = "member"
    GATEWAY = "gateway"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class RoleAssignment:
    """Role tag and cluster identity for every node of a topology."""

    entries: Mapping[NodeId, tuple[Role, ClusterId]]
    gateways_identified: bool = False

    def role_of(self, nid: NodeId) -> Role:
        return self.entries[nid][0]


@dataclass(frozen=True)
class DominatingSet:
    """The head/gateway backbone, kept in ascending id order."""

    members: tuple[NodeId, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def node_states(t: Topology, ra: Optional[RoleAssignment] = None) -> dict[NodeId, dict[NodeId, Role]]:
    """Each node's neighbour-role map, ``{node: {neighbour: role}}``, in id
    order; roles are ``Role.UNDECIDED`` before election."""
    return {
        u: {v: ra.role_of(v) if ra is not None else Role.UNDECIDED for v in sorted(neighbors(t, u))}
        for u in sorted(t.nodes)
    }


def elect_heads(t: Topology) -> RoleAssignment:
    """Iterative lowest-id election over a connected topology.

    The produced heads are pairwise non-adjacent and every member sits one
    hop from its head.  Gateways are not identified yet.

    One ascending pass over the nodes, skipping the decided ones, costs
    O(Σdeg + n log n).  It elects the same heads as taking the lowest
    undecided node once per head, because a node never becomes undecided
    again: the lowest undecided node is the first undecided one in the pass.
    A head's members are one C-level intersection of its adjacency with the
    undecided set, with no Python-level step per neighbour.
    """
    if not is_connected(t):
        raise DisconnectedTopology("head election requires a connected topology")
    adj = t.adj
    head_role, member_role = Role.HEAD, Role.MEMBER
    undecided = set(adj)
    entries: dict[NodeId, tuple[Role, ClusterId]] = {}
    for head in sorted(adj):
        if head not in undecided:
            continue
        members = adj[head] & undecided
        undecided -= members
        undecided.discard(head)
        entries[head] = (head_role, head)
        entries.update(dict.fromkeys(sorted(members), (member_role, head)))
    return RoleAssignment(entries)


def identify_gateways(t: Topology, ra: RoleAssignment) -> RoleAssignment:
    """Re-tag every member that can hear a node of a different cluster.

    Heads are never re-tagged; gateways keep the cluster that elected them.
    ``ra`` tags every node of ``t``, as an election does, so a member hears
    another cluster exactly when its adjacency is not a subset of its own
    cluster's nodes: one C-level subset test per member after one pass that
    groups the nodes by cluster, O(n + Σdeg) in all, with no Python-level
    step per neighbour.  A member outside ``t`` raises ``UnknownNode``.
    """
    clusters: dict[ClusterId, set[NodeId]] = {}
    for nid, (_, cid) in ra.entries.items():
        nodes = clusters.get(cid)
        if nodes is None:
            nodes = clusters[cid] = set()
        nodes.add(nid)
    member_role, gateway_role = Role.MEMBER, Role.GATEWAY
    entries = dict(ra.entries)
    for nid, (role, cid) in ra.entries.items():
        if role is member_role and not neighbors(t, nid) <= clusters[cid]:
            entries[nid] = (gateway_role, cid)
    return RoleAssignment(entries, gateways_identified=True)


def build_dominating_set(t: Topology, ra: RoleAssignment) -> DominatingSet:
    """Heads and gateways in id order, found in one pass over the entries;
    ``phase2.cluster_form`` checks that they dominate ``t``."""
    if not ra.gateways_identified:
        raise ValidationError("dominating set needs gateways identified first")
    head_role, gateway_role = Role.HEAD, Role.GATEWAY
    members = tuple(
        sorted([nid for nid, (role, _) in ra.entries.items() if role is head_role or role is gateway_role])
    )
    return DominatingSet(members)
