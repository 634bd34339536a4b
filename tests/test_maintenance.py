import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.errors import (
    DisconnectedTopology,
    UnknownCluster,
    UnknownNode,
    ValidationError,
)
from councilnet.graph import build_topology, neighbors, topology_from_edges
from councilnet.maintenance import (
    ClusterHealth,
    MaintenanceAction,
    _WorkingPartition,
    apply_departures,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
    reform,
)
from councilnet.phase1 import Role
from councilnet.phase2 import Cluster, Council, Partition, verify_partition
from councilnet.shamir import issue_share, reconstruct, split_secret
from councilnet.topologies import random_connected, size_ladder, two_cluster_seven


def health(n0, departed=0, gateways0=0, lost=0, arrivals=0):
    return ClusterHealth(
        n0=n0,
        gateways0=gateways0,
        heads_departed=departed,
        gateways_lost=lost,
        arrivals=arrivals,
    )


class TestClassifyChange:
    def test_boundary_is_strict_for_3_2(self):
        assert classify_change(health(3, departed=1), 2) is MaintenanceAction.LOCAL_UPDATE
        assert classify_change(health(3, departed=2), 2) is MaintenanceAction.REFORM

    def test_boundary_is_strict_for_5_3(self):
        assert classify_change(health(5, departed=2), 3) is MaintenanceAction.LOCAL_UPDATE
        assert classify_change(health(5, departed=3), 3) is MaintenanceAction.REFORM

    def test_no_change_is_none(self):
        assert classify_change(health(3), 2) is MaintenanceAction.NONE

    def test_arrival_alone_is_local_update(self):
        assert classify_change(health(3, arrivals=1), 2) is MaintenanceAction.LOCAL_UPDATE

    def test_gateway_fraction_trigger(self):
        ok = health(3, gateways0=4, lost=2)
        assert classify_change(ok, 2, gateway_threshold=0.5) is MaintenanceAction.LOCAL_UPDATE
        bad = health(3, gateways0=4, lost=3)
        assert classify_change(bad, 2, gateway_threshold=0.5) is MaintenanceAction.REFORM

    def test_singleton_cluster_reforms_on_any_head_loss(self):
        assert classify_change(health(1, departed=1), 1) is MaintenanceAction.REFORM

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_departures(self, n, low, extra):
        k = n // 2 + 1
        lo = classify_change(health(n, departed=min(low, n)), k)
        hi = classify_change(health(n, departed=min(low + extra, n)), k)
        order = {
            MaintenanceAction.NONE: 0,
            MaintenanceAction.LOCAL_UPDATE: 1,
            MaintenanceAction.REFORM: 2,
        }
        assert order[hi] >= order[lo]


class TestHandleDeparture:
    def setup_method(self):
        self.t = two_cluster_seven()
        self.p = reform(self.t)

    def test_head_departure_bookkeeping(self):
        p2, h = handle_departure(self.p, 3)
        assert h.n0 == 3  # formation count kept for the trigger
        assert h.heads_departed == 1
        cluster = p2.cluster(1)
        assert cluster.council.heads == frozenset({1, 5})
        assert cluster.n == 2

    def test_member_departure_leaves_counter(self):
        p2, h = handle_departure(self.p, 2)
        assert h.heads_departed == 0
        assert 2 not in p2.node_index

    def test_last_gateway_fraction_hits_one(self):
        p2, h = handle_departure(self.p, 4)
        assert h.gateways_lost_fraction == 1.0

    def test_unassigned_node_rejected(self):
        p2, _ = handle_departure(self.p, 2)
        with pytest.raises(UnknownNode):
            handle_departure(p2, 2)

    def test_cumulative_health_passes_through(self):
        p2, h1 = handle_departure(self.p, 3)
        _, h2 = handle_departure(p2, 5, h1)
        assert h2.heads_departed == 2
        assert classify_change(h2, self.p.cluster(1).k) is MaintenanceAction.REFORM

    def test_only_head_leaves_a_cluster_holding_its_gateway(self):
        # A cluster that loses its only head still holds its gateway, so it
        # is kept, with no council, for the pass to re-form.
        p = Partition([Cluster(Council(frozenset({1}), 1), frozenset(), frozenset({2}), 1)])
        p2, h = handle_departure(p, 1)
        c = p2.cluster(1)
        assert (c.council.heads, c.members, c.gateways) == (frozenset(), frozenset(), frozenset({2}))
        assert dict(p2.node_index) == {2: 1}
        assert h.heads_departed == 1


class TestHandleVisitor:
    def make_topology_with_visitor(self, links):
        edges = list(two_cluster_seven().edges) + [(8, peer) for peer in links]
        return topology_from_edges(range(1, 9), edges)

    def test_fully_connected_visitor_joins_council(self):
        t = self.make_topology_with_visitor({1, 3, 5})
        p = reform(two_cluster_seven())
        p2, tag = handle_visitor(t, p, 8, 1)
        assert tag == "issue_new_share"
        cluster = p2.cluster(1)
        assert cluster.council.heads == frozenset({1, 3, 5, 8})
        # the new head's share lies on the existing degree-1 polynomial
        assert (cluster.n, cluster.k) == (4, 2)

    def test_partially_connected_visitor_stays_member(self):
        t = self.make_topology_with_visitor({1})
        p = reform(two_cluster_seven())
        p2, tag = handle_visitor(t, p, 8, 1)
        assert tag == "member_only"
        assert 8 in p2.cluster(1).members

    def test_gateway_never_joins_a_council(self):
        # node 4 hears the whole council of cluster 6 but is a marked gateway
        t = two_cluster_seven()
        p = reform(t)
        p2, tag = handle_visitor(t, p, 4, 6, prior_role=Role.GATEWAY)
        assert tag == "member_only"
        assert 4 in p2.cluster(6).members
        assert 4 not in p2.cluster(6).council.heads

    def test_cross_cluster_head_adjacency_blocks_join(self):
        # visitor hears all of cluster 6's council but also head 5 of cluster 1
        edges = list(two_cluster_seven().edges) + [(8, 6), (8, 5)]
        t = topology_from_edges(range(1, 9), edges)
        p = reform(two_cluster_seven())
        p2, tag = handle_visitor(t, p, 8, 6)
        assert tag == "member_only"

    def test_reassignment_moves_the_node(self):
        # node 7 gains a link to head 5 and wanders over to cluster 1
        edges = list(two_cluster_seven().edges) + [(7, 5)]
        t = topology_from_edges(range(1, 8), edges)
        p = reform(two_cluster_seven())
        p2, tag = handle_visitor(t, p, 7, 1)
        assert tag == "member_only"
        assert p2.node_index[7] == 1
        c = p2.cluster(6)
        assert 7 not in c.council.heads | c.members | c.gateways

    @pytest.mark.parametrize(
        "node, tag, heads, members, gateways",
        [
            (3, "issue_new_share", {1, 3, 5}, {2}, {4}),  # a head rejoins its council
            (2, "member_only", {1, 3, 5}, {2}, {4}),
            (4, "member_only", {1, 3, 5}, {2, 4}, set()),  # a gateway returns a member
        ],
        ids=["head", "member", "gateway"],
    )
    def test_visit_to_its_own_cluster(self, node, tag, heads, members, gateways):
        # the node leaves cluster 1 first, so the visit sees the cluster
        # without it and places it exactly once
        t = two_cluster_seven()
        p = reform(t)
        p2, got = handle_visitor(t, p, node, 1)
        assert got == tag
        cluster = p2.cluster(1)
        assert (cluster.council.heads, cluster.members, cluster.gateways) == (heads, members, gateways)
        assert p2.clusters[1] is p.clusters[1]
        assert verify_partition(t, p2) == []

    def test_unknown_cluster(self):
        t = two_cluster_seven()
        p = reform(t)
        with pytest.raises(UnknownCluster):
            handle_visitor(t, p, 2, 99)

    def test_visitor_without_head_link_rejected(self):
        t = self.make_topology_with_visitor({2})  # only touches a plain member
        p = reform(two_cluster_seven())
        with pytest.raises(ValidationError):
            handle_visitor(t, p, 8, 1)

    def test_enlarged_share_set_keeps_the_secret(self):
        secret, k, prime = 6, 2, 13
        shares = split_secret(secret, k, (1, 3, 5), 9, prime)
        new = issue_share(shares[:k], 8, k, prime)
        enlarged = list(shares) + [new]
        for subset in itertools.combinations(enlarged, k):
            assert reconstruct(subset, k, prime) == secret


def scanned_destination(t, p, node, left):
    """The old all-cluster scan for a departed node's new cluster."""
    for c in sorted(p.clusters, key=lambda c: c.cluster_id):
        if c.cluster_id != left and neighbors(t, node) & c.council.heads:
            return c.cluster_id
    return None


def scanned_join(t, p, node, visiting, prior_role):
    """handle_visitor's old join decision, over a partition without node."""
    other_heads = frozenset().union(
        *(c.council.heads for c in p.clusters if c.cluster_id != visiting)
    )
    return (
        p.cluster(visiting).council.heads <= neighbors(t, node)
        and prior_role is not Role.GATEWAY
        and not neighbors(t, node) & other_heads
    )


class TestLookupsMatchScans:
    @given(st.integers(8, 40), st.integers(0, 2**16), st.data())
    @settings(max_examples=150, deadline=None)
    def test_destination_and_join_match_old_scans(self, n, seed, data):
        # a formed partition on a topology whose links then change, as if
        # nodes had moved; nodes depart one by one, each placed as a visitor
        # the way _maintenance_pass places it, or wander directly
        t0 = random_connected(n, seed=seed)
        p = reform(t0)
        ids = sorted(t0.nodes)
        toggled = data.draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=n))
        edges = set(t0.edges) ^ {(min(e), max(e)) for e in toggled if e[0] != e[1]}
        # some nodes move next to every head of one council and away from
        # all other heads, so that joins are common; they go first
        movers = data.draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(p.clusters), max_size=n))
        for u, c in movers.items():
            heads = {h for d in p.clusters for h in d.council.heads if h != u}
            edges -= {(min(u, h), max(u, h)) for h in heads - c.council.heads}
            edges |= {(min(u, h), max(u, h)) for h in heads & c.council.heads}
        t = topology_from_edges(ids, edges)
        for node in list(movers) + data.draw(st.lists(st.sampled_from(ids), max_size=n)):
            if node not in p.node_index:
                continue
            cid = p.node_index[node]
            prior = p.cluster(cid).role_of(node)
            without, _ = handle_departure(p, node)
            dest = min(_WorkingPartition(without).head_clusters(neighbors(t, node)) - {cid}, default=None)
            assert dest == scanned_destination(t, without, node, cid)
            if dest is None:
                p = without
                continue
            expected = scanned_join(t, without, node, dest, prior)
            if data.draw(st.booleans()):
                p, tag = handle_visitor(t, without, node, dest, prior_role=prior)
            else:  # still assigned: handle_visitor moves it and finds its role
                p, tag = handle_visitor(t, p, node, dest)
            assert tag == ("issue_new_share" if expected else "member_only")
            assert p.node_index[node] == dest


def fold_without_node(cluster, node):
    return replace(
        cluster,
        council=replace(cluster.council, heads=cluster.council.heads - {node}),
        members=cluster.members - {node},
        gateways=cluster.gateways - {node},
    )


def fold_swap_cluster(p, new_cluster):
    clusters = [new_cluster if c.cluster_id == new_cluster.cluster_id else c for c in p.clusters]
    return Partition(c for c in clusters if c.council.heads | c.members | c.gateways)


def fold_departure(p, node, health):
    """handle_departure as it was before the working copy: one partition
    rebuild per event."""
    cluster = p.cluster(p.node_index[node])
    role = cluster.role_of(node)
    if role is Role.HEAD:
        health = replace(health, heads_departed=health.heads_departed + 1)
    elif role is Role.GATEWAY:
        health = replace(health, gateways_lost=health.gateways_lost + 1)
    return fold_swap_cluster(p, fold_without_node(cluster, node)), health


def heard_clusters(p, near):
    """Ids of the clusters with a head in ``near``, by a scan of every council."""
    return {c.cluster_id for c in p.clusters if c.council.heads & near}


def fold_visitor(t, p, node, visiting, prior_role):
    """handle_visitor as it was before the working copy, for a node that
    has already left its cluster."""
    cluster = p.cluster(visiting)
    heads, near = cluster.council.heads, neighbors(t, node)
    joins = (
        heads <= near
        and prior_role is not Role.GATEWAY
        and not heard_clusters(p, near) - {visiting}
    )
    if joins:
        updated = replace(cluster, council=replace(cluster.council, heads=heads | {node}))
        return fold_swap_cluster(p, updated), "issue_new_share"
    return fold_swap_cluster(p, replace(cluster, members=cluster.members | {node})), "member_only"


def sequential_fold(t, p, departed, healths):
    """The maintenance pass's departure loop as it was: one event at a time."""
    healths = dict(healths)
    stranded = False
    joined = []
    for nid in departed:
        cid = p.node_index[nid]
        prior_role = p.cluster(cid).role_of(nid)
        p, healths[cid] = fold_departure(p, nid, healths[cid])
        dest = min(heard_clusters(p, neighbors(t, nid)) - {cid}, default=None)
        if dest is None:
            stranded = True
            continue
        p, tag = fold_visitor(t, p, nid, dest, prior_role)
        healths[dest] = replace(healths[dest], arrivals=healths[dest].arrivals + 1)
        if tag == "issue_new_share":
            joined.append((dest, nid))
    return p, healths, stranded, joined


def hand_partition():
    """Clusters 1 (heads 1, 3, 5; member 8; gateway 4), 6 (heads 6, 7;
    member 9) and 10 (head 10; members 11, 12), and a topology in which
    nodes 4, 8, 9, 10, 11 and 12 have moved."""
    def cluster(heads, members=(), gateways=()):
        heads = frozenset(heads)
        k = len(heads) // 2 + 1
        return Cluster(Council(heads, min(heads)), frozenset(members), frozenset(gateways), k)

    p = Partition([cluster({1, 3, 5}, {2, 8}, {4}), cluster({6, 7}, {9}), cluster({10}, {11, 12})])
    edges = [(1, 2), (1, 3), (1, 5), (3, 5), (4, 5), (6, 7), (4, 6)]
    edges += [(8, 6), (8, 7)]  # 8 hears only cluster 6's council: it joins
    edges += [(9, 1), (9, 3), (9, 5), (9, 8)]  # 9 hears cluster 1's council and 8
    edges += [(10, 5), (11, 1), (11, 3), (11, 5), (11, 10)]  # 12 hears no one
    return topology_from_edges(range(1, 13), edges), p


def assert_sparse_matches_dense(t, p, departed):
    """apply_departures from no healths agrees with it from every cluster's
    baseline: a cluster's first change takes the same baseline."""
    dense_in = {c.cluster_id: baseline_health(c) for c in p.clusters}
    p_dense, dense, *rest_dense = apply_departures(t, p, departed, dense_in)
    p_sparse, sparse, *rest_sparse = apply_departures(t, p, departed, {})
    assert p_sparse == p_dense and rest_sparse == rest_dense
    assert all(sparse[cid] == dense[cid] for cid in sparse)
    assert all(dense[cid] == dense_in[cid] for cid in dense.keys() - sparse.keys())


class TestBatchMatchesSequentialFold:
    def test_joins_gateways_blocked_join_and_emptied_cluster(self):
        t, p = hand_partition()
        healths = {c.cluster_id: baseline_health(c) for c in p.clusters}
        departed = [4, 8, 9, 10, 11, 12]
        batch = apply_departures(t, p, departed, healths)
        assert batch == sequential_fold(t, p, departed, healths)
        p2, healths2, stranded, joined = batch
        # 8 joins cluster 6; 9 then hears its new head 8, so it may not join
        # cluster 1; 11 joins cluster 1; 12 is stranded
        assert joined == [(6, 8), (1, 11)]
        assert stranded
        assert p2.cluster(1).council.heads == {1, 3, 5, 11}
        assert p2.cluster(1).members == {2, 9, 10}
        # gateway 4 visits cluster 6 and, having been a gateway, stays a member
        assert p2.cluster(6).council.heads == {6, 7, 8}
        assert p2.cluster(6).members == {4}
        # every node of cluster 10 departed: it is dropped
        assert [c.cluster_id for c in p2.clusters] == [1, 6]
        assert healths2[1] == replace(healths[1], gateways_lost=1, arrivals=3)
        assert healths2[10].heads_departed == 1
        # the input is untouched, and unchanged clusters are carried over
        assert p == hand_partition()[1]
        assert_sparse_matches_dense(t, p, departed)

    @pytest.mark.parametrize("kind", ["edges", "disk"])
    def test_a_departed_head_is_heard_no_more(self, kind):
        # Head 2 leaves cluster 1 and, hearing the heads of clusters 3 and
        # 4, lands in cluster 3 as a member; node 5 then hears only 2, no
        # head at all, and strands.  On the disk each link is exactly r long.
        def lone(head, members=()):
            return Cluster(Council(frozenset(head), min(head)), frozenset(members), frozenset(), 1)

        p = Partition([lone({1, 2}), lone({3}), lone({4}, {5})])
        specs = [(1, (5.0, 5.0)), (2, (0.0, 0.0)), (3, (1.0, 0.0)), (4, (0.0, 1.0)), (5, (-1.0, 0.0))]
        t = build_topology(specs, 1.0)
        if kind == "edges":
            t = topology_from_edges(range(1, 6), t.edges)
        assert t.edges == {(2, 3), (2, 4), (2, 5)}
        healths = {c.cluster_id: baseline_health(c) for c in p.clusters}
        batch = apply_departures(t, p, [2, 5], healths)
        assert batch == sequential_fold(t, p, [2, 5], healths)
        p2, _, stranded, joined = batch
        assert stranded and joined == []
        assert p2.cluster(3).members == {2} and 5 not in p2.node_index

    def test_unchanged_clusters_keep_their_objects(self):
        t, p = hand_partition()
        healths = {c.cluster_id: baseline_health(c) for c in p.clusters}
        p2, *_ = apply_departures(t, p, [12], healths)
        assert p2.cluster(1) is p.cluster(1) and p2.cluster(6) is p.cluster(6)

    def test_no_departures_return_the_inputs_themselves(self):
        t, p = hand_partition()
        healths = {c.cluster_id: baseline_health(c) for c in p.clusters}
        p2, healths2, stranded, joined = apply_departures(t, p, [], healths)
        assert p2 is p and healths2 is healths
        assert not stranded and joined == []

    @given(st.integers(8, 40), st.integers(0, 2**16), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_sequential_fold(self, n, seed, data):
        # as in TestLookupsMatchScans: a formed partition on a topology whose
        # links then change, some nodes steered next to one council's heads
        t0 = random_connected(n, seed=seed)
        p = reform(t0)
        ids = sorted(t0.nodes)
        toggled = data.draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=n))
        edges = set(t0.edges) ^ {(min(e), max(e)) for e in toggled if e[0] != e[1]}
        movers = data.draw(st.dictionaries(st.sampled_from(ids), st.sampled_from(p.clusters), max_size=n))
        for u, c in movers.items():
            heads = {h for d in p.clusters for h in d.council.heads if h != u}
            edges -= {(min(u, h), max(u, h)) for h in heads - c.council.heads}
            edges |= {(min(u, h), max(u, h)) for h in heads & c.council.heads}
        t = topology_from_edges(ids, edges)
        rest = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=n))
        departed = list(dict.fromkeys(list(movers) + rest))
        healths = {c.cluster_id: baseline_health(c) for c in p.clusters}
        assert apply_departures(t, p, departed, healths) == sequential_fold(t, p, departed, healths)
        assert_sparse_matches_dense(t, p, departed)


class TestReform:
    def test_idempotent_on_static_topology(self):
        t = size_ladder()
        assert reform(t) == reform(t)

    def test_council_shrinks_when_its_triangle_breaks(self):
        t = two_cluster_seven()
        edges = set(t.edges) - {(3, 5)}
        t2 = topology_from_edges(range(1, 8), edges)
        p = reform(t2)
        cluster = p.cluster(1)
        # without the 3-5 link only a backbone pair remains around head 1
        assert cluster.council.heads == frozenset({1, 5})
        assert verify_partition(t2, p) == []

    def test_disconnected_topology_rejected(self):
        t = topology_from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedTopology):
            reform(t)

    def test_baseline_health_snapshot(self):
        p = reform(two_cluster_seven())
        h = baseline_health(p.cluster(1))
        assert (h.n0, p.cluster(1).k, h.gateways0) == (3, 2, 1)
        assert not h.changed
