"""Maintenance-pass oracles: the per-node in-touch scan and a cache-free planner.

``departures`` is the loop that opened ``sim._maintenance_pass`` before
the scan walked clusters, with its miss counts kept as a set of the nodes
with a miss pending.  It visits every node of the topology in ascending id
order, looks up its cluster, and tests that node alone, which is plainly
the rule as stated: a node out of touch departs if it has a miss pending,
else its miss becomes pending.  The property test in ``test_sim.py``
compares ``maintenance._departures`` against it.

``plan_pass`` is the pass's planner written from the rules, with none of
the engine's shortcuts: a health for every cluster, one departure at a time
through ``handle_departure`` and ``handle_visitor``, every cluster
classified, and ``verify_partition`` run on every pass.  The twin run in
``test_sim.py`` puts it in place of ``maintenance.plan_pass``, the one
name ``sim`` plans with, and compares the plans.
"""

from dataclasses import replace

from councilnet.graph import NodeId, Topology, neighbors
from councilnet.maintenance import (
    ClusterHealth,
    MaintenanceAction,
    PassMemory,
    PassPlan,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
)
from councilnet.phase1 import ClusterId
from councilnet.phase2 import Partition, verify_partition


def departures(t: Topology, p: Partition, missed: frozenset[NodeId]) -> tuple[list[NodeId], frozenset[NodeId]]:
    departed: list[NodeId] = []
    pending: set[NodeId] = set()
    for nid in sorted(t.nodes):
        cid = p.node_index.get(nid)
        if cid is None:
            continue
        cluster = p.cluster(cid)
        if nid in cluster.council.heads:
            # A topology has no self-loops, so nid never hears itself.
            nodes = cluster.council.heads | cluster.members | cluster.gateways
            in_touch = len(nodes) == 1 or not neighbors(t, nid).isdisjoint(nodes)
        else:
            in_touch = not neighbors(t, nid).isdisjoint(cluster.council.heads)
        if in_touch:
            continue
        if nid in missed:
            departed.append(nid)
        else:
            pending.add(nid)
    return departed, frozenset(pending)


def baselines(p: Partition) -> dict[ClusterId, ClusterHealth]:
    """A health for every cluster of ``p``, each as formed."""
    return {c.cluster_id: baseline_health(c) for c in p.clusters}


def plan_pass(t, p, memory: PassMemory, gateway_threshold) -> PassPlan:
    """``maintenance.plan_pass`` with no sparse health, no quiet pass and no
    skipped partition check: ``memory.clean`` is ignored, and
    ``memory.healths`` must hold a health for every cluster of ``p``, as
    the plan's memory does.  No argument is modified.

    Each departed node, in ascending id order, leaves its cluster and visits
    the lowest-id other cluster with a head it hears; a node that hears none
    strands.  Every cluster is classified.  The partition is checked on
    every pass, and its verdict forces a re-form only on a settled pass:
    nothing stranded, no cluster re-forming and no miss pending.
    """
    healths = dict(memory.healths)
    departed, missed = departures(t, p, memory.missed)
    stranded = False
    joined: list[tuple[ClusterId, NodeId]] = []
    for nid in departed:
        cid = p.node_index[nid]
        role = p.cluster(cid).role_of(nid)
        p, healths[cid] = handle_departure(p, nid, healths[cid])
        near = neighbors(t, nid)
        visits = {c.cluster_id for c in p.clusters if c.council.heads & near} - {cid}
        if not visits:
            stranded = True
            continue
        dest = min(visits)
        p, tag = handle_visitor(t, p, nid, dest, role)
        if tag == "issue_new_share":
            joined.append((dest, nid))
        healths[dest] = replace(healths[dest], arrivals=healths[dest].arrivals + 1)

    decisions = {
        c.cluster_id: classify_change(healths[c.cluster_id], c.k, gateway_threshold)
        for c in p.clusters
    }
    log = [
        (cid, action.value, healths[cid].heads_departed, healths[cid].gateways_lost_fraction)
        for cid, action in sorted(decisions.items())
        if action is not MaintenanceAction.NONE
    ]
    cluster_reform = MaintenanceAction.REFORM in decisions.values()
    settled = not (stranded or cluster_reform or missed)
    damaged = bool(verify_partition(t, p)) and settled
    reforms = stranded or cluster_reform or damaged
    if reforms and (stranded or not cluster_reform):
        log.append((-1, "reform", 0, 0.0))
    clean = (t, p) if not reforms and settled and not departed else None
    return PassPlan(departed, p, PassMemory(healths, missed, clean), joined, log, reforms)
