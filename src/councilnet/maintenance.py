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
from typing import Optional

from .errors import UnknownCluster, UnknownNode, ValidationError
from .graph import NodeId, Topology, neighbors
from .phase1 import (
    ClusterId,
    Role,
    build_dominating_set,
    elect_heads,
    identify_gateways,
)
from .phase2 import Cluster, Partition, cluster_form


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


def _without_node(cluster: Cluster, node: NodeId) -> Cluster:
    return replace(
        cluster,
        council=replace(cluster.council, heads=cluster.council.heads - {node}),
        members=cluster.members - {node},
        gateways=cluster.gateways - {node},
    )


def _swap_cluster(p: Partition, new_cluster: Cluster) -> Partition:
    clusters = [new_cluster if c.cluster_id == new_cluster.cluster_id else c for c in p.clusters]
    return Partition(c for c in clusters if c.all_nodes)


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
    cid = partition.node_index.get(node)
    if cid is None:
        raise UnknownNode(f"node {node} is not assigned to any cluster")
    cluster = partition.cluster(cid)
    role = cluster.role_of(node)
    if health is None:
        health = baseline_health(cluster)
    if role is Role.HEAD:
        health = replace(health, heads_departed=health.heads_departed + 1)
    elif role is Role.GATEWAY:
        health = replace(health, gateways_lost=health.gateways_lost + 1)
    return _swap_cluster(partition, _without_node(cluster, node)), health


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
    try:
        cluster = partition.cluster(visiting)
    except KeyError:
        raise UnknownCluster(f"no cluster with id {visiting}") from None

    current = partition.node_index.get(node)
    if current is not None:
        if prior_role is None:
            prior_role = partition.cluster(current).role_of(node)
        partition = _swap_cluster(partition, _without_node(partition.cluster(current), node))
        cluster = partition.cluster(visiting)

    heads, near = cluster.council.heads, neighbors(t, node)
    if not near & heads:
        raise ValidationError(f"node {node} has no link to a head of cluster {visiting}")

    joins = (
        heads <= near
        and prior_role is not Role.GATEWAY
        and not partition.head_clusters(near) - {visiting}
    )

    if joins:
        updated = replace(cluster, council=replace(cluster.council, heads=heads | {node}))
        return _swap_cluster(partition, updated), "issue_new_share"

    updated = replace(cluster, members=cluster.members | {node})
    return _swap_cluster(partition, updated), "member_only"


def reform(t: Topology) -> Partition:
    """Run the full two-phase pipeline from scratch on the current topology.

    Secrets must be re-split by the caller afterwards; old shares are void.
    """
    roles = identify_gateways(t, elect_heads(t))
    return cluster_form(t, build_dominating_set(t, roles))
