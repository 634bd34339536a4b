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
from councilnet.graph import topology_from_edges
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
from councilnet.topologies import size_ladder, two_cluster_seven


def health(n0, k, departed=0, gateways0=0, lost=0, arrivals=0):
    return ClusterHealth(
        cluster_id=1,
        n0=n0,
        k=k,
        gateways0=gateways0,
        heads_departed=departed,
        gateways_lost=lost,
        arrivals=arrivals,
    )


class TestClassifyChange:
    def test_boundary_is_strict_for_3_2(self):
        assert classify_change(health(3, 2, departed=1)) is MaintenanceAction.LOCAL_UPDATE
        assert classify_change(health(3, 2, departed=2)) is MaintenanceAction.REFORM

    def test_boundary_is_strict_for_5_3(self):
        assert classify_change(health(5, 3, departed=2)) is MaintenanceAction.LOCAL_UPDATE
        assert classify_change(health(5, 3, departed=3)) is MaintenanceAction.REFORM

    def test_no_change_is_none(self):
        assert classify_change(health(3, 2)) is MaintenanceAction.NONE

    def test_arrival_alone_is_local_update(self):
        assert classify_change(health(3, 2, arrivals=1)) is MaintenanceAction.LOCAL_UPDATE

    def test_gateway_fraction_trigger(self):
        ok = health(3, 2, gateways0=4, lost=2)
        assert classify_change(ok, gateway_threshold=0.5) is MaintenanceAction.LOCAL_UPDATE
        bad = health(3, 2, gateways0=4, lost=3)
        assert classify_change(bad, gateway_threshold=0.5) is MaintenanceAction.REFORM

    def test_singleton_cluster_reforms_on_any_head_loss(self):
        assert classify_change(health(1, 1, departed=1)) is MaintenanceAction.REFORM

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_monotone_in_departures(self, n, low, extra):
        k = n // 2 + 1
        lo = classify_change(health(n, k, departed=min(low, n)))
        hi = classify_change(health(n, k, departed=min(low + extra, n)))
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
        assert classify_change(h2) is MaintenanceAction.REFORM


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
        assert (h.n0, h.k, h.gateways0) == (3, 2, 1)
        assert not h.changed
