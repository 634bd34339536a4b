import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.errors import InvalidDominatingSet, UnknownNode
from councilnet.graph import is_clique, neighbors, topology_from_edges
from councilnet.maintenance import reform
from councilnet.phase1 import DominatingSet
from councilnet.phase2 import (
    Cluster,
    Council,
    Partition,
    cluster_form,
    find_council_clique,
    verify_partition,
)
from councilnet.topologies import (
    complete_graph,
    random_connected,
    size_ladder,
    star,
    triangle,
    two_cluster_seven,
)


def pairwise_head_adjacency(t, p):
    """The all-cluster-pairs cross-cluster head check, as an oracle."""
    found = []
    for i, a in enumerate(p.clusters):
        for b in p.clusters[i + 1:]:
            for ha in sorted(a.council.heads & t.nodes):
                touching = neighbors(t, ha) & b.council.heads
                if touching:
                    found.append(
                        f"heads {ha} (cluster {a.cluster_id}) and {sorted(touching)} "
                        f"(cluster {b.cluster_id}) are adjacent"
                    )
    return found


def head_adjacency_messages(t, p):
    return [v for v in verify_partition(t, p) if v.endswith("are adjacent")]


def council_only(heads, cid=None):
    heads = frozenset(heads)
    council = Council(heads, min(heads) if cid is None else cid)
    return Cluster(council, frozenset(), frozenset(), k=1)


class TestFindCouncilClique:
    def test_triangle(self):
        assert find_council_clique(triangle(), 1) == frozenset({1, 2, 3})

    def test_two_cluster_seven_grows_past_low_member(self):
        # node 2 only touches head 1, so the triangle {1,3,5} wins
        assert find_council_clique(two_cluster_seven(), 1) == frozenset({1, 3, 5})

    def test_star_pairs_with_lowest_leaf(self):
        assert find_council_clique(star(3), 1) == frozenset({1, 2})

    def test_no_triangle_with_core_restricts_partner(self):
        t = topology_from_edges([1, 2, 3], [(1, 2), (1, 3)])
        assert find_council_clique(t, 1, core=frozenset({3})) == frozenset({1, 3})
        assert find_council_clique(t, 1, core=frozenset({9})) == frozenset({1})

    def test_forbidden_respected(self):
        got = find_council_clique(two_cluster_seven(), 1, forbidden=frozenset({5}))
        assert 5 not in got
        assert got == frozenset({1, 2})  # no triangle left, lowest neighbour joins

    def test_all_neighbors_forbidden_leaves_singleton(self):
        got = find_council_clique(triangle(), 1, forbidden=frozenset({2, 3}))
        assert got == frozenset({1})

    def test_head_in_forbidden_rejected(self):
        with pytest.raises(ValueError):
            find_council_clique(triangle(), 1, forbidden=frozenset({1}))

    def test_unknown_head(self):
        with pytest.raises(UnknownNode):
            find_council_clique(triangle(), 9)

    def test_always_a_clique_containing_head(self):
        for seed in range(20):
            t = random_connected(8, seed=seed)
            for h in sorted(t.nodes):
                got = find_council_clique(t, h)
                assert h in got
                assert is_clique(t, got)

    def test_pairs_up_when_head_has_neighbors(self):
        # default-core calls always find at least a partner
        for seed in range(20):
            t = random_connected(12, seed=seed)
            for h in sorted(t.nodes):
                if neighbors(t, h):
                    assert len(find_council_clique(t, h)) >= 2


class TestClusterForm:
    def test_two_cluster_seven_partition(self):
        t = two_cluster_seven()
        p = cluster_form(t, DominatingSet((1, 4, 5)))
        by_cid = {c.cluster_id: c for c in p.clusters}
        assert set(by_cid) == {1, 6}
        assert by_cid[1].council.heads == frozenset({1, 3, 5})
        assert by_cid[1].members == frozenset({2})
        assert by_cid[1].gateways == frozenset({4})
        assert (by_cid[1].n, by_cid[1].k) == (3, 2)
        assert by_cid[6].council.heads == frozenset({6})
        assert by_cid[6].members == frozenset({7})
        assert by_cid[6].gateways == frozenset()
        assert (by_cid[6].n, by_cid[6].k) == (1, 1)

    def test_single_node(self):
        t = topology_from_edges([3], [])
        p = cluster_form(t, DominatingSet((3,)))
        assert len(p.clusters) == 1
        assert p.clusters[0].council.heads == frozenset({3})
        assert p.clusters[0].n == 1

    def test_locally_complete_cluster_heads_everyone_but_gateway(self):
        p = reform(size_ladder())
        big = {c.cluster_id: c for c in p.clusters}[13]
        assert big.council.heads == frozenset({13, 14, 15, 16, 17})
        # the sixth fully connected node serves as the gateway out
        assert 12 in {c.cluster_id: c for c in p.clusters}[8].gateways

    def test_size_ladder_council_sizes(self):
        p = reform(size_ladder())
        assert sorted(c.n for c in p.clusters) == [2, 3, 4, 5]

    def test_invalid_dominating_set_rejected(self):
        with pytest.raises(InvalidDominatingSet):
            cluster_form(two_cluster_seven(), DominatingSet((1,)))

    def test_deterministic(self):
        t = two_cluster_seven()
        assert cluster_form(t, DominatingSet((1, 4, 5))) == cluster_form(
            t, DominatingSet((1, 4, 5))
        )

    def test_node_index_matches_clusters(self):
        t = two_cluster_seven()
        p = cluster_form(t, DominatingSet((1, 4, 5)))
        assert p.node_index == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 6, 7: 6}


class TestPartitionProperties:
    def test_random_graphs_form_clean_partitions(self):
        for seed in range(30):
            t = random_connected(10 + 2 * seed, seed=seed)
            p = reform(t)
            assert verify_partition(t, p) == []

    def test_councils_are_triangle_composed(self):
        # every 3-subset of a council of size >= 3 is itself a clique
        for seed in range(12):
            t = random_connected(30, seed=seed)
            for c in reform(t).clusters:
                if c.n >= 3:
                    for sub in itertools.combinations(sorted(c.council.heads), 3):
                        assert is_clique(t, sub)

    def test_termination_bound(self):
        for seed in range(12):
            t = random_connected(40, seed=seed)
            p = reform(t)
            assert len(p.clusters) <= len(t.nodes)
            assert set(p.node_index) == set(t.nodes)


class TestPartitionLookup:
    def test_cluster_by_id(self):
        p = reform(two_cluster_seven())
        for c in p.clusters:
            assert p.cluster(c.cluster_id) is c

    def test_unknown_cluster_id_raises_key_error(self):
        p = reform(two_cluster_seven())
        with pytest.raises(KeyError):
            p.cluster(2)

    def test_first_cluster_wins_on_a_repeated_id(self):
        first, second = council_only({1}, cid=1), council_only({2}, cid=1)
        assert Partition([first, second]).cluster(1) is first

    def test_first_cluster_wins_on_a_repeated_node(self):
        p = Partition(council_only(heads) for heads in ({1, 2}, {2, 3}))
        assert p.node_index == {1: 1, 2: 1, 3: 2}

    def test_council_size_is_n(self):
        c = Cluster(Council(frozenset({4, 6}), 4), frozenset({5}), frozenset({7}), k=2)
        assert c.n == 2


class TestVerifyPartition:
    def test_formed_partition_is_clean(self):
        t = two_cluster_seven()
        p = reform(t)
        assert verify_partition(t, p) == []

    def test_adjacent_cross_cluster_heads_flagged(self):
        t = two_cluster_seven()
        bad = Partition(
            [
                Cluster(Council(frozenset({1, 3, 5}), 1), frozenset({2}), frozenset(), k=2),
                Cluster(Council(frozenset({4}), 4), frozenset({6, 7}), frozenset(), k=1),
            ]
        )
        found = verify_partition(t, bad)
        assert any("adjacent" in v for v in found)

    def test_missing_node_flagged(self):
        t = two_cluster_seven()
        bad = Partition(
            [Cluster(Council(frozenset({1, 3, 5}), 1), frozenset({2, 4, 6}), frozenset(), k=2)]
        )
        found = verify_partition(t, bad)
        assert any("not assigned" in v for v in found)

    def test_non_clique_council_flagged(self):
        t = two_cluster_seven()
        bad = Partition(
            [
                Cluster(
                    Council(frozenset({1, 2, 4}), 1),
                    frozenset({3, 5, 6, 7}),
                    frozenset(),
                    k=2,
                )
            ]
        )
        found = verify_partition(t, bad)
        assert any("not a clique" in v for v in found)

    def test_member_without_head_link_flagged(self):
        t = two_cluster_seven()
        bad = Partition(
            [
                Cluster(Council(frozenset({1, 3, 5}), 1), frozenset({2, 6}), frozenset({4}), k=2),
                Cluster(Council(frozenset({7}), 7), frozenset(), frozenset(), k=1),
            ]
        )
        found = verify_partition(t, bad)
        assert any("member 6" in v for v in found)

    def test_bad_threshold_flagged(self):
        t = triangle()
        bad = Partition(
            [Cluster(Council(frozenset({1, 2, 3}), 1), frozenset(), frozenset(), k=4)]
        )
        found = verify_partition(t, bad)
        assert any("threshold" in v for v in found)

    def test_adjacent_heads_across_three_clusters_match_oracle(self):
        # every head touches every other; clusters are listed out of id order
        t = complete_graph(7)
        bad = Partition(
            [council_only({5, 6}), council_only({1, 2}), council_only({3, 4, 7}, cid=3)]
        )
        found = head_adjacency_messages(t, bad)
        assert len(found) == 6
        assert found == pairwise_head_adjacency(t, bad)

    def test_head_shared_by_two_councils_matches_oracle(self):
        t = two_cluster_seven()
        bad = Partition([council_only({1, 3, 5}), council_only({4, 5}), council_only({6, 7})])
        found = head_adjacency_messages(t, bad)
        assert found
        assert found == pairwise_head_adjacency(t, bad)

    @given(
        st.integers(0, 2**28 - 1),
        st.lists(st.frozensets(st.integers(1, 10), min_size=1, max_size=4), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_head_adjacency_matches_oracle_on_arbitrary_councils(self, mask, councils):
        # councils may overlap, need not be cliques, and may list heads 9
        # and 10, which the topology lacks: those are reported, not raised
        pairs = list(itertools.combinations(range(1, 9), 2))
        t = topology_from_edges(range(1, 9), [e for i, e in enumerate(pairs) if mask & (1 << i)])
        p = Partition(council_only(heads) for heads in councils)
        assert head_adjacency_messages(t, p) == pairwise_head_adjacency(t, p)
        unknown = [
            f"cluster {c.cluster_id}: heads {sorted(c.council.heads - t.nodes)} are not in the topology"
            for c in p.clusters
            if c.council.heads - t.nodes
        ]
        found = verify_partition(t, p)
        assert [v for v in found if ": heads " in v and v.endswith("not in the topology")] == unknown
