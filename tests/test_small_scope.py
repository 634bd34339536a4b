"""Formation and the maintenance planner on every labelled graph on a few nodes.

Small-scope checking: exhaustive over all small inputs rather than sampled.
``check_every_graph(n)`` forms each connected graph on nodes ``1..n`` and
checks the formation properties the paper states:

- the head/gateway backbone dominates and induces a connected subgraph;
- ``verify_partition`` finds nothing wrong;
- every council is a clique;
- each cluster's k is ``choose_threshold(n)`` for its council size n;
- every cluster id is a node.

Tier-1 runs it up to 5 nodes (772 graphs); CI also runs it at 6 nodes
(26,704 graphs).  Tier-1 also forms and verifies each of those graphs with
every node's neighbour tuple reversed, which must change nothing.

``check_every_disconnected_graph(n)`` takes every disconnected graph on
``1..n``: ``reform`` refuses it, while the formation chain under it forms
each component as it forms that component alone, cluster by cluster, into
a partition ``verify_partition`` accepts.  Tier-1 runs it on 2 to 6 nodes
(6,391 graphs); CI also runs it at 7 nodes (230,896 graphs).

``check_every_pass_pair(n, passes)`` takes every connected t with its
formation p = ``reform(t)`` and every labelled t' on the same nodes,
connected or not, and plans up to ``passes`` HELLO passes over t' from a
fresh ``PassMemory()``, stopping at a re-form.  It collects the witnesses
against four properties of the paper's maintenance rules:

- (a) a node departs only with a miss pending, after two passes running out
  of touch with its cluster;
- (b) no cluster vanishes unless the pass re-forms;
- (c) a clean memory's partition verifies, with every node in touch;
- (d) a cluster logs a decision only in a pass that changed its health.

Tier-1 runs it on 4 nodes (2,432 pairs) for two and three passes; CI runs
(a) and (c) on 5 nodes (745,472 pairs) for three passes.  (b) and (d) fail
today, through ROADMAP item 19's two defects, so their tests are strict
xfails.

``check_every_lattice_move(spacing, radius)`` runs the position path, which
the edge-list graphs above never reach: it places nodes ``1..4`` on a 3×3
lattice of the given spacing in every way (3,024 placements), keeps those
connected under the radius and forms each with ``reform``.  Then it moves
each node to each free lattice point and plans two HELLO passes over the
moved disk topology, whose links stay unbuilt while it plans, and over an
edge-list copy of its links; the plans and the ``verify_partition`` verdicts
must agree.  Tier-1 runs it at spacing 0.1 and radius √0.02, the lattice's
diagonal, which neither number gives exactly in binary (the rounded diagonal
falls just outside the rounded radius); CI runs it at (1, 1), (0.1, 0.1),
(0.3, 0.3·√2) and (1, 2).
"""

import itertools
import math

import pytest

from councilnet.errors import DisconnectedTopology
from councilnet.graph import (
    Topology,
    build_topology,
    is_clique,
    is_connected,
    is_dominating_set,
    move_nodes,
    topology_from_edges,
)
from councilnet.maintenance import PassMemory, plan_pass, reform
from councilnet.phase1 import build_dominating_set, elect_heads, identify_gateways
from councilnet.phase2 import cluster_form, verify_partition
from councilnet.scenario import Scenario
from councilnet.shamir import choose_threshold


def labelled_graphs(n):
    """Every graph on nodes ``1..n``, one per edge set."""
    nodes = range(1, n + 1)
    pairs = list(itertools.combinations(nodes, 2))
    for mask in range(1 << len(pairs)):
        yield topology_from_edges(nodes, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def connected_graphs(n):
    """Every connected graph on nodes ``1..n``, one per edge set."""
    return filter(is_connected, labelled_graphs(n))


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
        assert c.k == choose_threshold(c.n), t.edges
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


def components(t):
    """The node sets of ``t``'s components."""
    found, seen = [], set()
    for u in sorted(t.nodes):
        if u in seen:
            continue
        component, frontier = {u}, [u]
        while frontier:
            fresh = set(t.adj[frontier.pop()]) - component
            component |= fresh
            frontier += fresh
        seen |= component
        found.append(component)
    return found


def check_every_disconnected_graph(n):
    """Check formation on every disconnected graph on ``n`` nodes against
    the union of its components' partitions; return how many there are."""
    count = 0
    for t in labelled_graphs(n):
        parts = components(t)
        if len(parts) == 1:
            continue
        count += 1
        with pytest.raises(DisconnectedTopology, match="^head election requires a connected topology$"):
            reform(t)
        head_of = elect_heads(t)
        partition = cluster_form(t, build_dominating_set(head_of, identify_gateways(t, head_of)))
        alone = {}
        for nodes in parts:
            sub = topology_from_edges(sorted(nodes), [(u, v) for u, v in t.edges if u in nodes])
            alone.update((c.cluster_id, c) for c in reform(sub).clusters)
        assert {c.cluster_id: c for c in partition.clusters} == alone, t.edges
        assert verify_partition(t, partition) == [], t.edges
    return count


# Disconnected labelled graphs on n nodes: 2**(n(n-1)/2) less OEIS A001187.
@pytest.mark.parametrize("n, graphs", [(2, 1), (3, 4), (4, 26), (5, 296), (6, 6064)])
def test_formation_on_every_disconnected_graph(n, graphs):
    assert check_every_disconnected_graph(n) == graphs


def reversed_links(t):
    """``t`` with each node's neighbour tuple reversed."""
    return Topology({u: tuple(reversed(vs)) for u, vs in t.adj.items()})


# The edge-list build keeps each node's links in list order when no link
# repeats, and in hash order otherwise, so no output may read that order.
# The verdicts are on each graph's own partition and on the last graph's,
# which breaks the rules for about two in three graphs, so the order of
# the messages counts too.
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_formation_and_verdicts_ignore_the_order_of_each_nodes_links(n):
    last = None
    for t in connected_graphs(n):
        flipped = reversed_links(t)
        p = reform(t)
        assert reform(flipped) == p, t.edges
        for q in [p] if last is None else [p, last]:
            assert verify_partition(flipped, q) == verify_partition(t, q), t.edges
        last = p


def out_of_touch(t, p):
    """The nodes out of touch with their cluster, by the paper's rule: a head
    is in touch when it hears another node of its cluster or is its only
    node, and any other node when it hears a head of its cluster."""
    out = set()
    for c in p.clusters:
        heads = c.council.heads
        nodes = heads | c.members | c.gateways
        for u in nodes:
            heard = nodes if u in heads else heads
            if heard != {u} and heard.isdisjoint(t.adj[u]):
                out.add(u)
    return out


def check_every_pass_pair(n, passes):
    """Plan up to ``passes`` passes over every pair (t, t') on ``n`` nodes,
    at a scenario's default gateway threshold; return the number of pairs
    and the witnesses against each property, keyed ``"a"`` to ``"d"``."""
    later = [(t2, sorted(t2.edges)) for t2 in labelled_graphs(n)]
    witnesses = {"a": [], "b": [], "c": [], "d": []}
    pairs = 0
    for t in connected_graphs(n):
        formed, edges = reform(t), sorted(t.edges)
        for t2, edges2 in later:
            pairs += 1
            p, memory, was_out = formed, PassMemory(), set()
            for i in range(passes):
                plan = plan_pass(t2, p, memory, Scenario.gateway_threshold)
                where = (edges, edges2, i)
                now_out = out_of_touch(t2, p)
                if not set(plan.departed) <= memory.missed & was_out & now_out:
                    witnesses["a"].append((where, plan.departed))
                if not plan.reforms and not {c.cluster_id for c in p.clusters} <= {
                    c.cluster_id for c in plan.partition.clusters
                }:
                    witnesses["b"].append(where)
                if plan.memory.clean is not None:
                    clean_t, clean_p = plan.memory.clean
                    if clean_t is not t2 or verify_partition(clean_t, clean_p) or out_of_touch(clean_t, clean_p):
                        witnesses["c"].append(where)
                for cid, *_ in plan.log:
                    if cid != -1 and plan.memory.healths.get(cid) == memory.healths.get(cid):
                        witnesses["d"].append((where, cid))
                if plan.reforms:
                    break
                p, memory, was_out = plan.partition, plan.memory, now_out
    return pairs, witnesses


# 38 connected graphs on 4 nodes, each against the 2**6 labelled graphs.
@pytest.mark.parametrize("passes", [2, 3])
def test_planner_on_every_pass_pair(passes):
    pairs, witnesses = check_every_pass_pair(4, passes)
    assert pairs == 2432
    assert witnesses["a"] == []
    assert witnesses["c"] == []


ITEM_19 = "known defect, ROADMAP item 19: "


@pytest.mark.xfail(strict=True, reason=ITEM_19 + "a cluster whose every node departs in one pass is dropped unclassified")
def test_no_cluster_vanishes_without_a_reform():
    assert check_every_pass_pair(4, 2)[1]["b"] == []


@pytest.mark.xfail(strict=True, reason=ITEM_19 + "a changed cluster logs local_update again on every later pass")
def test_a_cluster_logs_only_when_its_health_changed():
    assert check_every_pass_pair(4, 3)[1]["d"] == []


def plan_two_passes(t, p):
    """The verdict on ``p`` over ``t``, then, for each of up to two HELLO
    passes planned over ``t`` from a fresh memory, what the pass decided,
    the memory it hands on and the verdict on its partition."""
    seen = [verify_partition(t, p)]
    memory = PassMemory()
    for _ in range(2):
        plan = plan_pass(t, p, memory, Scenario.gateway_threshold)
        clean = plan.memory.clean
        seen.append(
            (
                plan.departed,
                plan.partition,
                plan.joined,
                plan.log,
                plan.reforms,
                plan.memory.healths,
                plan.memory.missed,
                None if clean is None else (clean[0] is t, clean[1]),
                verify_partition(t, plan.partition),
            )
        )
        if plan.reforms:
            break
        p, memory = plan.partition, plan.memory
    return seen


def check_every_lattice_move(spacing, radius):
    """Check every single-node move of every connected placement of 4 nodes
    on a 3×3 lattice; return the number of connected placements and of
    passes planned over the moved disk topologies."""
    lattice = [(i * spacing, j * spacing) for i in range(3) for j in range(3)]
    placements = passes = 0
    for spots in itertools.permutations(lattice, 4):
        t = build_topology(list(enumerate(spots, 1)), radius)
        if not is_connected(t):
            continue
        placements += 1
        formed = reform(t)
        for nid in range(1, 5):
            for spot in lattice:
                if spot in spots:
                    continue
                moved = move_nodes(t, {nid: spot})
                on_disk = plan_two_passes(moved, formed)
                assert "adj" not in vars(moved), (spots, nid, spot)  # planned from positions alone
                twin = topology_from_edges(sorted(moved.nodes), sorted(moved.edges))
                assert plan_two_passes(twin, formed) == on_disk, (spots, nid, spot)
                passes += len(on_disk) - 1
    return placements, passes


def test_every_lattice_move_plans_alike_on_positions_and_links():
    assert check_every_lattice_move(0.1, math.sqrt(0.02)) == (864, 32160)
