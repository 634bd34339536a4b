"""In-touch oracle: the per-node scan of the maintenance pass.

A verbatim copy of the loop that opened ``sim._maintenance_pass`` before
the scan walked clusters.  It visits every node of the topology in
ascending id order, looks up its cluster, and tests that node alone, which
is plainly the rule as stated; the property test in ``test_sim.py``
compares ``sim._departures`` against it.
"""

from councilnet.graph import NodeId, Topology, neighbors
from councilnet.phase2 import Partition


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
