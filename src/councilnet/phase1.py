"""First clustering phase: HELLO-table bookkeeping, lowest-id head election,
gateway identification, and assembly of the head/gateway backbone.

The election is the classic iterative lowest-id rule: repeatedly, the
undecided node with the lowest id in its closed undecided neighbourhood
becomes a head and claims its undecided neighbours as members.  Members that
can hear another cluster are then re-tagged as gateways, and heads plus
gateways together form a dominating backbone of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import DisconnectedTopology, DominationViolated, ValidationError
from .graph import NodeId, Topology, is_connected, is_dominating_set, neighbors

ClusterId = int


class Role(str, Enum):
    HEAD = "head"
    MEMBER = "member"
    GATEWAY = "gateway"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class NeighborTable:
    """One node's record of its direct neighbours and their advertised roles."""

    owner: NodeId
    entries: Mapping[NodeId, Role]


@dataclass(frozen=True)
class ClusterAdjacencyTable:
    """Which neighbouring cluster the owner can reach, and through which gateway.

    The listed gateway is always a neighbour of the owner or the owner itself.
    """

    owner: NodeId
    entries: Mapping[ClusterId, NodeId]


@dataclass(frozen=True)
class HelloMessage:
    sender: NodeId
    neighbor_table: NeighborTable
    cluster_adjacency: ClusterAdjacencyTable
    round: int

    def __post_init__(self) -> None:
        if self.neighbor_table.owner != self.sender:
            raise ValidationError("hello message must carry its sender's own table")
        if self.round < 0:
            raise ValidationError("round must be non-negative")


@dataclass(frozen=True)
class NodeState:
    """Per-node protocol state that gets snapshotted into HELLO broadcasts."""

    nid: NodeId
    neighbor_table: NeighborTable
    cluster_adjacency: ClusterAdjacencyTable


@dataclass(frozen=True)
class RoleAssignment:
    """Role tag and cluster identity for every node of a topology."""

    entries: Mapping[NodeId, tuple[Role, ClusterId]]
    gateways_identified: bool = False

    def role_of(self, nid: NodeId) -> Role:
        return self.entries[nid][0]

    def cid_of(self, nid: NodeId) -> ClusterId:
        return self.entries[nid][1]

    @property
    def heads(self) -> frozenset[NodeId]:
        return frozenset(n for n, (role, _) in self.entries.items() if role is Role.HEAD)

    @property
    def gateways(self) -> frozenset[NodeId]:
        return frozenset(n for n, (role, _) in self.entries.items() if role is Role.GATEWAY)

    def cluster_nodes(self, cid: ClusterId) -> frozenset[NodeId]:
        return frozenset(n for n, (_, c) in self.entries.items() if c == cid)


@dataclass(frozen=True)
class DominatingSet:
    """The head/gateway backbone, kept in ascending id order."""

    members: tuple[NodeId, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def neighbor_table(t: Topology, u: NodeId, ra: Optional[RoleAssignment] = None) -> NeighborTable:
    """Table of u's neighbours with their roles (undecided before election)."""
    entries = {}
    for v in sorted(neighbors(t, u)):
        entries[v] = ra.role_of(v) if ra is not None else Role.UNDECIDED
    return NeighborTable(u, entries)


def node_states(t: Topology, ra: Optional[RoleAssignment] = None) -> dict[NodeId, NodeState]:
    """Protocol state for every node, with adjacency tables once roles exist."""
    adjacency = cluster_adjacency_tables(t, ra) if ra is not None and ra.gateways_identified else {}
    states = {}
    for u in sorted(t.nodes):
        adj = adjacency.get(u, ClusterAdjacencyTable(u, {}))
        states[u] = NodeState(u, neighbor_table(t, u, ra), adj)
    return states


def build_hello(state: NodeState, round: int) -> HelloMessage:
    """Snapshot a node's tables into one periodic broadcast."""
    return HelloMessage(state.nid, state.neighbor_table, state.cluster_adjacency, round)


def elect_heads(t: Topology) -> RoleAssignment:
    """Iterative lowest-id election over a connected topology.

    The produced heads are pairwise non-adjacent and every member sits one
    hop from its head.  Gateways are not identified yet.

    One ascending pass over the nodes, skipping the decided ones, costs
    O(Σdeg + n log n).  It elects the same heads as taking the lowest
    undecided node once per head, because a node never becomes undecided
    again: the lowest undecided node is the first undecided one in the pass.
    """
    if not is_connected(t):
        raise DisconnectedTopology("head election requires a connected topology")
    entries: dict[NodeId, tuple[Role, ClusterId]] = {}
    for head in sorted(t.nodes):
        if head in entries:
            continue
        entries[head] = (Role.HEAD, head)
        for member in sorted([v for v in neighbors(t, head) if v not in entries]):
            entries[member] = (Role.MEMBER, head)
    return RoleAssignment(entries)


def identify_gateways(t: Topology, ra: RoleAssignment) -> RoleAssignment:
    """Re-tag every member that can hear a node of a different cluster.

    Heads are never re-tagged; gateways keep the cluster that elected them.
    """
    entries = dict(ra.entries)
    for nid in sorted(ra.entries):
        role, cid = ra.entries[nid]
        if role is not Role.MEMBER:
            continue
        if any(ra.cid_of(v) != cid for v in neighbors(t, nid)):
            entries[nid] = (Role.GATEWAY, cid)
    return RoleAssignment(entries, gateways_identified=True)


def cluster_adjacency_tables(t: Topology, ra: RoleAssignment) -> dict[NodeId, ClusterAdjacencyTable]:
    """Per-node routes to neighbouring clusters.

    When several gateways of one cluster reach the same neighbour cluster,
    the lowest-id gateway within reach is recorded as the route.
    """
    if not ra.gateways_identified:
        raise ValidationError("cluster adjacency needs gateways identified first")
    tables = {}
    for u in sorted(t.nodes):
        own = ra.cid_of(u)
        entries: dict[ClusterId, NodeId] = {}
        for g in sorted({u} | set(neighbors(t, u))):
            if ra.role_of(g) is not Role.GATEWAY:
                continue
            g_cid = ra.cid_of(g)
            if g_cid == own:
                targets = {ra.cid_of(w) for w in neighbors(t, g)} - {own}
            else:
                targets = {g_cid}
            for target in sorted(targets):
                entries.setdefault(target, g)
        tables[u] = ClusterAdjacencyTable(u, entries)
    return tables


def build_dominating_set(t: Topology, ra: RoleAssignment) -> DominatingSet:
    """Union of heads and gateways, checked against the domination property."""
    if not ra.gateways_identified:
        raise ValidationError("dominating set needs gateways identified first")
    members = tuple(sorted(ra.heads | ra.gateways))
    if not is_dominating_set(t, members):
        raise DominationViolated(f"heads and gateways {members} do not dominate the topology")
    return DominatingSet(members)
