"""Cluster maintenance under mobility: local updates versus full re-formation.

A cluster tolerates head departures up to n - k (with n heads at formation
and threshold k); one more departure, or losing too large a fraction of its
gateways, forces the whole network to re-form.  Smaller changes are applied
locally: departed nodes are dropped from their host cluster and visitors are
attached to the cluster they wandered into, joining its council only when
fully connected to every sitting head.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import AbstractSet, Iterable, Optional, Sequence

from .errors import UnknownCluster, UnknownNode, ValidationError
from .graph import NodeId, Topology, neighbors
from .phase1 import (
    ClusterId,
    Role,
    build_dominating_set,
    elect_heads,
    identify_gateways,
)
from .phase2 import Cluster, Council, Partition, cluster_form


class MaintenanceAction(str, Enum):
    NONE = "none"
    LOCAL_UPDATE = "local_update"
    REFORM = "reform"


@dataclass(frozen=True)
class ClusterHealth:
    """Change bookkeeping for one cluster since its formation."""

    n0: int
    gateways0: int = 0
    heads_departed: int = 0
    gateways_lost: int = 0
    arrivals: int = 0

    @property
    def gateways_lost_fraction(self) -> float:
        if self.gateways0 == 0:
            return 0.0
        return min(1.0, self.gateways_lost / self.gateways0)

    @property
    def changed(self) -> bool:
        return bool(self.heads_departed or self.gateways_lost or self.arrivals)


def baseline_health(cluster: Cluster) -> ClusterHealth:
    return ClusterHealth(n0=cluster.n, gateways0=len(cluster.gateways))


def classify_change(
    health: ClusterHealth, k: int, gateway_threshold: float = 0.5
) -> MaintenanceAction:
    """Re-form when strictly more than n - k heads left, or too many gateways.

    ``k`` is the cluster's threshold.  Exactly n - k departures still leave
    k heads standing, so the boundary stays a local update.
    """
    if health.heads_departed > health.n0 - k:
        return MaintenanceAction.REFORM
    if health.gateways_lost_fraction > gateway_threshold:
        return MaintenanceAction.REFORM
    if health.changed:
        return MaintenanceAction.LOCAL_UPDATE
    return MaintenanceAction.NONE


class _WorkingPartition:
    """A partition under change, edited in place and built once by ``freeze``.

    A cluster's heads, members and gateways become mutable sets on its first
    change, and the node index follows every move, so lookups see the edits
    made so far.  Clusters keep their order; untouched ones keep their
    ``Cluster`` objects, and a cluster left without nodes is dropped.
    Without edits, ``freeze`` returns the partition it started from.
    """

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self.clusters = {c.cluster_id: c for c in partition.clusters}
        self.node_index = dict(partition.node_index)
        self.edits: dict[ClusterId, tuple[set[NodeId], set[NodeId], set[NodeId]]] = {}

    def _groups(self, cid: ClusterId) -> tuple[set[NodeId], set[NodeId], set[NodeId]]:
        if cid not in self.edits:
            c = self.clusters[cid]
            self.edits[cid] = (set(c.council.heads), set(c.members), set(c.gateways))
        return self.edits[cid]

    def heads(self, cid: ClusterId) -> AbstractSet[NodeId]:
        edited = self.edits.get(cid)
        return self.clusters[cid].council.heads if edited is None else edited[0]

    def head_clusters(self, nodes: Iterable[NodeId]) -> set[ClusterId]:
        """Ids of the clusters whose council lists one of ``nodes``."""
        index = self.node_index
        return {index[u] for u in nodes if u in index and u in self.heads(index[u])}

    def depart(self, node: NodeId) -> tuple[ClusterId, Role]:
        """Drop a node from its cluster; returns the cluster's id and the
        node's role in it."""
        cid = self.node_index.pop(node, None)
        if cid is None:
            raise UnknownNode(f"node {node} is not assigned to any cluster")
        heads, members, gateways = self._groups(cid)
        role = Role.HEAD if node in heads else Role.GATEWAY if node in gateways else Role.MEMBER
        heads.discard(node)
        members.discard(node)
        gateways.discard(node)
        return cid, role

    def visit(
        self, t: Topology, node: NodeId, visiting: ClusterId, prior_role: Optional[Role]
    ) -> str:
        if visiting not in self.clusters:
            raise UnknownCluster(f"no cluster with id {visiting}")
        if node in self.node_index:
            _, role = self.depart(node)
            prior_role = role if prior_role is None else prior_role
        heads, near = self.heads(visiting), neighbors(t, node)
        if near.isdisjoint(heads):
            raise ValidationError(f"node {node} has no link to a head of cluster {visiting}")
        joins = (
            heads <= near
            and prior_role is not Role.GATEWAY
            and not self.head_clusters(near) - {visiting}
        )
        self._groups(visiting)[0 if joins else 1].add(node)
        self.node_index[node] = visiting
        return "issue_new_share" if joins else "member_only"

    def freeze(self) -> Partition:
        if not self.edits:
            return self.partition
        clusters = []
        for cid, c in self.clusters.items():
            if cid in self.edits:
                heads, members, gateways = map(frozenset, self.edits[cid])
                c = Cluster(Council(heads, cid), members, gateways, c.k)
            if c.all_nodes:
                clusters.append(c)
        return Partition(clusters)


def _count_departure(health: ClusterHealth, role: Role) -> ClusterHealth:
    if role is Role.HEAD:
        return replace(health, heads_departed=health.heads_departed + 1)
    if role is Role.GATEWAY:
        return replace(health, gateways_lost=health.gateways_lost + 1)
    return health


def handle_departure(
    partition: Partition,
    node: NodeId,
    health: Optional[ClusterHealth] = None,
) -> tuple[Partition, ClusterHealth]:
    """Drop a node from its host cluster and record the loss.

    The formation-time head count n0 is kept for the re-formation trigger;
    only the live head set shrinks.  The departed node's share must be
    excluded from future quorums by the caller and dies at the next refresh.
    """
    work = _WorkingPartition(partition)
    cid, role = work.depart(node)
    if health is None:
        health = baseline_health(partition.cluster(cid))
    return work.freeze(), _count_departure(health, role)


def handle_visitor(
    t: Topology,
    partition: Partition,
    node: NodeId,
    visiting: ClusterId,
    prior_role: Optional[Role] = None,
) -> tuple[Partition, str]:
    """Attach a wandering node to the cluster it entered.

    It joins the council only when adjacent to every sitting head, was not a
    gateway, and is adjacent to no head of any other cluster; the council
    then grows to n + 1 and keeps its threshold k, since the new head's
    share lies on the existing degree-(k-1) polynomial.  Returns the tag
    ``issue_new_share`` when the caller must derive a share for the new
    head, else ``member_only``.
    """
    work = _WorkingPartition(partition)
    tag = work.visit(t, node, visiting, prior_role)
    return work.freeze(), tag


def apply_departures(
    t: Topology,
    partition: Partition,
    departed: Sequence[NodeId],
    healths: dict[ClusterId, ClusterHealth],
) -> tuple[Partition, dict[ClusterId, ClusterHealth], bool, list[tuple[ClusterId, NodeId]]]:
    """Apply one maintenance pass's departures, in order, to one working copy.

    Each node leaves its cluster as in ``handle_departure``, and then visits
    the lowest-id other cluster with a head it hears, as in
    ``handle_visitor``, which counts an arrival there.  A later departure
    sees the heads that joined earlier.  Returns the new partition, the
    updated healths, whether a node heard no other cluster's head, and the
    ``(cluster, node)`` joins whose new heads need shares.  Without
    departures it returns ``partition`` and ``healths`` themselves, uncopied.
    """
    if not departed:
        return partition, healths, False, []
    work = _WorkingPartition(partition)
    healths = dict(healths)
    stranded = False
    joined: list[tuple[ClusterId, NodeId]] = []
    for nid in departed:
        cid, role = work.depart(nid)
        healths[cid] = _count_departure(healths[cid], role)
        dest = min(work.head_clusters(neighbors(t, nid)) - {cid}, default=None)
        if dest is None:
            stranded = True
            continue
        if work.visit(t, nid, dest, role) == "issue_new_share":
            joined.append((dest, nid))
        healths[dest] = replace(healths[dest], arrivals=healths[dest].arrivals + 1)
    return work.freeze(), healths, stranded, joined


def reform(t: Topology) -> Partition:
    """Run the full two-phase pipeline from scratch on the current topology.

    Secrets must be re-split by the caller afterwards; old shares are void.
    """
    roles = identify_gateways(t, elect_heads(t))
    return cluster_form(t, build_dominating_set(t, roles))
