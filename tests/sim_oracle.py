"""Maintenance-pass oracles: the per-node in-touch scan and a cache-free pass.

``departures`` is a verbatim copy of the loop that opened
``sim._maintenance_pass`` before the scan walked clusters.  It visits every
node of the topology in ascending id order, looks up its cluster, and tests
that node alone, which is plainly the rule as stated; the property test in
``test_sim.py`` compares ``sim._departures`` against it.

``maintenance_pass`` is the whole pass written from the rules, with none of
the engine's shortcuts: a health for every cluster, one departure at a time
through ``handle_departure`` and ``handle_visitor``, every cluster
classified, and ``verify_partition`` run on every pass.  The twin run in
``test_sim.py`` puts it in place of ``sim._maintenance_pass``.
"""

from dataclasses import replace

from councilnet import sim
from councilnet.graph import NodeId, Topology, neighbors
from councilnet.maintenance import (
    ClusterHealth,
    MaintenanceAction,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
    reform,
)
from councilnet.phase1 import ClusterId
from councilnet.phase2 import Partition, verify_partition


def departures(t: Topology, p: Partition, miss_counts: dict[NodeId, int]) -> list[NodeId]:
    departed: list[NodeId] = []
    for nid in sorted(t.nodes):
        cid = p.node_index.get(nid)
        if cid is None:
            continue
        cluster = p.cluster(cid)
        if nid in cluster.council.heads:
            # A topology has no self-loops, so nid never hears itself.
            nodes = cluster.all_nodes
            in_touch = len(nodes) == 1 or not neighbors(t, nid).isdisjoint(nodes)
        else:
            in_touch = not neighbors(t, nid).isdisjoint(cluster.council.heads)
        if in_touch:
            miss_counts.pop(nid, None)
        else:
            misses = miss_counts[nid] = miss_counts.get(nid, 0) + 1
            if misses >= 2:
                departed.append(nid)
    return departed


def baselines(p: Partition) -> dict[ClusterId, ClusterHealth]:
    """A health for every cluster of ``p``, each as formed."""
    return {c.cluster_id: baseline_health(c) for c in p.clusters}


def maintenance_pass(state: "sim.SimState", round_no: int) -> tuple[bool, bool]:
    """``sim._maintenance_pass`` with no sparse health, no quiet pass and no
    skipped partition check; ``state.healths`` must hold a health for every
    cluster of ``state.partition``, and keeps one after the pass.

    Each departed node, in ascending id order, has its share revoked, leaves
    its cluster and visits the lowest-id other cluster with a head it hears;
    a node that hears none strands.  Every cluster is classified.  The
    partition is checked on every pass, and its verdict forces a re-form
    only on a settled pass: nothing stranded, no cluster re-forming and no
    miss pending.  A re-form re-baselines every new cluster here.
    """
    sc = state.scenario
    t, p = state.topology, state.partition
    healths = dict(state.healths)
    departed = departures(t, p, state.miss_counts)
    stranded = False
    joined: list[tuple[ClusterId, NodeId]] = []
    for nid in departed:
        del state.miss_counts[nid]
        cid = p.node_index[nid]
        role = p.cluster(cid).role_of(nid)
        state.share_ledger[cid].revoke(nid)
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
    state.partition = p

    decisions = {
        c.cluster_id: classify_change(healths[c.cluster_id], c.k, sc.gateway_threshold)
        for c in p.clusters
    }
    for cid, action in sorted(decisions.items()):
        if action is not MaintenanceAction.NONE:
            health = healths[cid]
            state.decision_log.append(
                (round_no, cid, action.value, health.heads_departed, health.gateways_lost_fraction)
            )

    cluster_reform = MaintenanceAction.REFORM in decisions.values()
    settled = not (stranded or cluster_reform or state.miss_counts)
    damaged = bool(verify_partition(t, p)) and settled
    if stranded or cluster_reform or damaged:
        if stranded or not cluster_reform:
            state.decision_log.append((round_no, -1, "reform", 0, 0.0))
        sim._install(state, reform(t))
        state.healths = baselines(state.partition)
        return False, True
    state.healths = healths
    for dest, nid in joined:
        problem = state.share_ledger[dest].issue(nid, state.compromised)
        if problem:
            state.violations.append(problem)
    return bool(departed), False
