"""Cluster maintenance under mobility: local updates versus full re-formation.

A cluster tolerates head departures up to n - k (with n heads at formation
and threshold k); one more departure, or losing too large a fraction of its
gateways, forces the whole network to re-form.  Smaller changes are applied
locally: departed nodes are dropped from their host cluster and visitors are
attached to the cluster they wandered into, joining its council only when
fully connected to every sitting head.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .errors import UnknownCluster, UnknownNode, ValidationError
from .graph import NodeId, Topology, neighbors
from .phase1 import (
    ClusterId,
    Role,
    build_dominating_set,
    elect_heads,
    identify_gateways,
)
from .phase2 import Cluster, Council, Partition, _head_clusters, cluster_form


class MaintenanceAction(str, Enum):
    NONE = "none"
    LOCAL_UPDATE = "local_update"
    REFORM = "reform"


@dataclass(frozen=True)
class ClusterHealth:
    """Change bookkeeping for one cluster since its formation, kept from its
    first change on, with the baseline (n0, gateways0) read from the
    cluster just before that change: the cluster as formed."""

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
    """A partition under change: its ``Cluster`` values by id, in partition
    order, and the node index, turned back into a ``Partition`` by ``freeze``.

    Each edit replaces one cluster with a new ``Cluster`` that copies only
    the group it changes (heads, members or gateways), at O(group size), and
    the node index follows every move, so lookups see the edits made so
    far.  Untouched clusters and groups keep their objects, and ``freeze``
    drops a cluster left without nodes.
    """

    def __init__(self, partition: Partition) -> None:
        self.clusters = {c.cluster_id: c for c in partition.clusters}
        self.node_index = dict(partition.node_index)

    def head_clusters(self, nodes: Iterable[NodeId]) -> set[ClusterId]:
        return _head_clusters(self.node_index, self.clusters, nodes)

    def heads(self) -> set[NodeId]:
        return set().union(*(c.council.heads for c in self.clusters.values()))

    def depart(self, node: NodeId) -> Cluster:
        """Drop a node from its cluster; returns the cluster as it was
        before the edit."""
        cid = self.node_index.pop(node, None)
        if cid is None:
            raise UnknownNode(f"node {node} is not assigned to any cluster")
        c = self.clusters[cid]
        council, members, gateways = c.council, c.members, c.gateways
        if node in council.heads:
            council = Council(council.heads - {node}, cid)
        elif node in gateways:
            gateways = gateways - {node}
        else:
            members = members - {node}
        self.clusters[cid] = Cluster(council, members, gateways, c.k)
        return c

    def visit(
        self, near: frozenset[NodeId], node: NodeId, visiting: ClusterId, prior_role: Optional[Role]
    ) -> str:
        """Attach ``node`` to ``visiting``; ``near`` holds the heads ``node``
        hears, and may hold any of its other neighbours."""
        if visiting not in self.clusters:
            raise UnknownCluster(f"no cluster with id {visiting}")
        if node in self.node_index:
            role = self.depart(node).role_of(node)
            prior_role = role if prior_role is None else prior_role
        # Read after the departure, which may have edited this very cluster.
        c = self.clusters[visiting]
        heads = c.council.heads
        if near.isdisjoint(heads):
            raise ValidationError(f"node {node} has no link to a head of cluster {visiting}")
        joins = (
            heads <= near
            and prior_role is not Role.GATEWAY
            and not self.head_clusters(near) - {visiting}
        )
        if joins:
            self.clusters[visiting] = Cluster(Council(heads | {node}, visiting), c.members, c.gateways, c.k)
        else:
            self.clusters[visiting] = Cluster(c.council, c.members | {node}, c.gateways, c.k)
        self.node_index[node] = visiting
        return "issue_new_share" if joins else "member_only"

    def freeze(self) -> Partition:
        return Partition([c for c in self.clusters.values() if c.all_nodes])


def _first_change(health: Optional[ClusterHealth], before: Cluster) -> ClusterHealth:
    """``health``, or the baseline of ``before``, the cluster just before its first change."""
    return baseline_health(before) if health is None else health


def _count_departure(health: Optional[ClusterHealth], before: Cluster, node: NodeId) -> ClusterHealth:
    h = _first_change(health, before)
    role = before.role_of(node)
    if role is Role.HEAD:
        return ClusterHealth(h.n0, h.gateways0, h.heads_departed + 1, h.gateways_lost, h.arrivals)
    if role is Role.GATEWAY:
        return ClusterHealth(h.n0, h.gateways0, h.heads_departed, h.gateways_lost + 1, h.arrivals)
    return h


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
    before = work.depart(node)
    return work.freeze(), _count_departure(health, before, node)


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
    tag = work.visit(neighbors(t, node), node, visiting, prior_role)
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
    sees the heads that joined earlier: the heads a node hears come from
    one ``neighbor_index`` of the working heads, kept for the whole pass.  ``healths`` may hold only the
    clusters changed since formation; a cluster's first change adds its
    entry, with the baseline read just before that change.  Returns the new
    partition, the updated healths, whether a node heard no other cluster's
    head, and the ``(cluster, node)`` joins whose new heads need shares;
    without departures, ``partition`` and ``healths`` themselves, uncopied.
    """
    if not departed:
        return partition, healths, False, []
    work = _WorkingPartition(partition)
    # Edited with the partition (a departure discards its node, a join adds
    # it), so every node it holds heads the cluster ``work.node_index`` gives.
    heads = t.neighbor_index(work.heads())
    healths = dict(healths)
    stranded = False
    joined: list[tuple[ClusterId, NodeId]] = []
    for nid in departed:
        before = work.depart(nid)
        heads.discard(nid)
        cid = before.cluster_id
        healths[cid] = _count_departure(healths.get(cid), before, nid)
        near = heads.near(nid)
        dest = min({work.node_index[h] for h in near} - {cid}, default=None)
        if dest is None:
            stranded = True
            continue
        h = _first_change(healths.get(dest), work.clusters[dest])
        if work.visit(near, nid, dest, before.role_of(nid)) == "issue_new_share":
            heads.add(nid)
            joined.append((dest, nid))
        healths[dest] = ClusterHealth(h.n0, h.gateways0, h.heads_departed, h.gateways_lost, h.arrivals + 1)
    return work.freeze(), healths, stranded, joined


def reform(t: Topology) -> Partition:
    """Run the full two-phase pipeline from scratch on the current topology.

    Secrets must be re-split by the caller afterwards; old shares are void.
    """
    roles = identify_gateways(t, elect_heads(t))
    return cluster_form(t, build_dominating_set(t, roles))
