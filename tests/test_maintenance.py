import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.errors import (
    DisconnectedTopology,
    UnknownCluster,
    UnknownNode,
    ValidationError,
)
from councilnet.graph import neighbors, topology_from_edges
from councilnet.maintenance import (
    ClusterHealth,
    MaintenanceAction,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
    reform,
)
from councilnet.phase1 import Role
from councilnet.phase2 import verify_partition
from councilnet.shamir import ThresholdPolicy, issue_share, reconstruct, split_secret
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
        assert 7 not in p2.cluster(6).all_nodes

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
        shares = split_secret(secret, ThresholdPolicy(3, k), (1, 3, 5), 9, prime)
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
            dest = min(without.head_clusters(neighbors(t, node)) - {cid}, default=None)
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
