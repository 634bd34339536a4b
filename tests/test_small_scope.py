"""Formation on every connected labelled graph on 1 to 5 nodes.

Small-scope checking: exhaustive over all small inputs rather than sampled.
``check_every_graph(n)`` forms each connected graph on nodes ``1..n`` and
checks the formation properties the paper states:

- the head/gateway backbone dominates and induces a connected subgraph;
- ``verify_partition`` finds nothing wrong;
- every council is a clique;
- each cluster's k is ``choose_threshold(n).k`` for its council size n;
- every cluster id is a node.

Tier-1 runs it up to 5 nodes (772 graphs); CI also runs it at 6 nodes
(26,704 graphs).
"""

import itertools

import pytest

from councilnet.graph import is_clique, is_connected, is_dominating_set, topology_from_edges
from councilnet.phase1 import build_dominating_set, elect_heads, identify_gateways
from councilnet.phase2 import cluster_form, verify_partition
from councilnet.shamir import choose_threshold


def connected_graphs(n):
    """Every connected graph on nodes ``1..n``, one per edge set."""
    nodes = range(1, n + 1)
    pairs = list(itertools.combinations(nodes, 2))
    for mask in range(1 << len(pairs)):
        t = topology_from_edges(nodes, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        if is_connected(t):
            yield t


def check_formation(t):
    head_of = elect_heads(t)
    backbone = build_dominating_set(head_of, identify_gateways(t, head_of))
    members = set(backbone.members)
    assert is_dominating_set(t, members), t.edges
    induced = [(u, v) for u, v in t.edges if u in members and v in members]
    assert is_connected(topology_from_edges(backbone.members, induced)), t.edges
    partition = cluster_form(t, backbone)
    assert verify_partition(t, partition) == [], t.edges
    for c in partition.clusters:
        assert is_clique(t, c.council.heads), t.edges
        assert c.k == choose_threshold(c.n).k, t.edges
        assert c.cluster_id in t.nodes, t.edges


def check_every_graph(n):
    """Check formation on every connected graph on ``n`` nodes; return how
    many there are."""
    count = 0
    for t in connected_graphs(n):
        check_formation(t)
        count += 1
    return count


# Connected labelled graphs on n nodes: OEIS A001187.
@pytest.mark.parametrize("n, graphs", [(1, 1), (2, 1), (3, 4), (4, 38), (5, 728)])
def test_formation_on_every_connected_graph(n, graphs):
    assert check_every_graph(n) == graphs
