import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from councilnet.errors import InvalidDominatingSet, UnknownNode, ValidationError
from councilnet.graph import Topology, build_topology, is_clique, move_nodes, neighbors, topology_from_edges
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

    def test_repeated_cluster_id_is_refused(self):
        with pytest.raises(ValidationError, match=r"cluster ids \[1\] listed more than once"):
            Partition([council_only({1}, cid=1), council_only({2}, cid=1)])

    def test_node_in_two_clusters_is_refused(self):
        with pytest.raises(ValidationError, match=r"nodes \[2\] listed more than once"):
            Partition(council_only(heads) for heads in ({1, 2}, {2, 3}))

    @pytest.mark.parametrize("groups", [({1, 2}, {2}, ()), ({1}, {2}, {2}), ({1, 2}, (), {2})])
    def test_node_in_two_groups_of_one_cluster_is_refused(self, groups):
        heads, members, gateways = map(frozenset, groups)
        with pytest.raises(ValidationError, match=r"^partition has nodes \[2\] listed more than once$"):
            Partition([Cluster(Council(heads, 1), members, gateways, k=1)])

    def test_repeated_id_and_node_are_both_named(self):
        with pytest.raises(ValidationError) as err:
            Partition([council_only({1, 3}, cid=1), council_only({3, 4}, cid=1)])
        assert str(err.value) == (
            "partition has cluster ids [1] listed more than once and nodes [3] listed more than once"
        )

    @given(st.integers(1, 40), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_every_formed_partition_is_accepted(self, n, seed):
        # reform builds its result through the checking constructor
        t = random_connected(n, seed=seed)
        assert reform(t).node_index.keys() == t.nodes

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

    def test_gateway_without_head_link_flagged(self):
        # gateway 4 hears head 3 of the other cluster, but no head of its own
        t = topology_from_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        bad = Partition(
            [
                Cluster(Council(frozenset({1}), 1), frozenset({2}), frozenset({4}), k=1),
                Cluster(Council(frozenset({3}), 3), frozenset(), frozenset(), k=1),
            ]
        )
        assert verify_partition(t, bad) == ["cluster 1: gateway 4 is not adjacent to any head"]

    def test_empty_council_flagged(self):
        # a cluster of members with no head: its members hear no head by
        # definition, so the empty council is its one violation
        t = topology_from_edges([1, 2], [(1, 2)])
        c = Cluster(Council(frozenset(), 1), frozenset({1, 2}), frozenset(), k=1)
        assert verify_partition(t, Partition([c])) == ["cluster 1 has an empty council"]

    def test_bad_threshold_flagged(self):
        t = triangle()
        bad = Partition(
            [Cluster(Council(frozenset({1, 2, 3}), 1), frozenset(), frozenset(), k=4)]
        )
        found = verify_partition(t, bad)
        assert any("threshold" in v for v in found)

    @pytest.mark.parametrize("k", [2.5, True, "2", 0, 4], ids=["float", "bool", "str", "zero", "above-n"])
    def test_threshold_outside_the_rule_is_one_violation(self, k):
        # shamir's threshold rule: an int, never a bool, in 1..n
        c = Cluster(Council(frozenset({1, 2, 3}), 1), frozenset(), frozenset(), k=k)
        assert verify_partition(triangle(), Partition([c])) == [
            f"cluster 1: threshold k={k!r} must be an integer in 1..3"
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_threshold_within_the_rule_is_clean(self, k):
        c = Cluster(Council(frozenset({1, 2, 3}), 1), frozenset(), frozenset(), k=k)
        assert verify_partition(triangle(), Partition([c])) == []

    def test_adjacent_heads_across_three_clusters_match_oracle(self):
        # every head touches every other; clusters are listed out of id order
        t = complete_graph(7)
        bad = Partition(
            [council_only({5, 6}), council_only({1, 2}), council_only({3, 4, 7}, cid=3)]
        )
        found = head_adjacency_messages(t, bad)
        assert len(found) == 6
        assert found == pairwise_head_adjacency(t, bad)

    def test_head_shared_by_two_councils_is_refused(self):
        with pytest.raises(ValidationError, match=r"nodes \[5\]"):
            Partition([council_only({1, 3, 5}), council_only({4, 5}), council_only({6, 7})])

    @given(
        st.integers(0, 2**28 - 1),
        st.lists(st.integers(0, 5), min_size=10, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_head_adjacency_matches_oracle_on_arbitrary_councils(self, mask, owners):
        # owners[i] places node i + 1 in one of up to five disjoint councils
        # (index 5 leaves it out); councils need not be cliques, and may
        # list heads 9 and 10, which the topology lacks: those are
        # reported, not raised
        councils = [{u for u, o in enumerate(owners, 1) if o == j} for j in range(5)]
        pairs = list(itertools.combinations(range(1, 9), 2))
        t = topology_from_edges(range(1, 9), [e for i, e in enumerate(pairs) if mask & (1 << i)])
        p = Partition(council_only(heads) for heads in councils if heads)
        assert head_adjacency_messages(t, p) == pairwise_head_adjacency(t, p)
        unknown = [
            f"cluster {c.cluster_id}: heads {sorted(c.council.heads - t.nodes)} are not in the topology"
            for c in p.clusters
            if c.council.heads - t.nodes
        ]
        found = verify_partition(t, p)
        assert [v for v in found if ": heads " in v and v.endswith("not in the topology")] == unknown

    @pytest.mark.parametrize(
        "heads, members, gateways, message",
        [
            ({1}, {2, 9}, set(), "cluster 1: members [9] are not in the topology"),
            ({1, 9}, {2}, set(), "cluster 1: heads [9] are not in the topology"),
            ({1}, set(), {2, 9}, "cluster 1: gateways [9] are not in the topology"),
        ],
        ids=["member", "head", "gateway"],
    )
    def test_node_outside_topology_is_named_once(self, heads, members, gateways, message):
        t = topology_from_edges([1, 2], [(1, 2)])
        c = Cluster(Council(frozenset(heads), 1), frozenset(members), frozenset(gateways), k=1)
        assert verify_partition(t, Partition([c])) == [message]

    @pytest.mark.parametrize(
        "heads, cid, messages",
        [
            ({1, 9, 10}, 10, ["nodes [2] are not assigned to any cluster", "cluster 10: heads [9, 10] are not in the topology"]),
            ({1}, 9, ["nodes [2] are not assigned to any cluster", "cluster id 9 is not a topology node"]),
        ],
        ids=["one-of-the-heads", "not-a-head"],
    )
    def test_cluster_id_outside_topology_is_named_once(self, heads, cid, messages):
        t = topology_from_edges([1, 2], [(1, 2)])
        c = Cluster(Council(frozenset(heads), cid), frozenset(), frozenset(), k=1)
        assert verify_partition(t, Partition([c])) == messages

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=8, max_size=8),
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.lists(st.integers(0, 5), min_size=10, max_size=10),
        st.lists(st.integers(0, 2), min_size=10, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    # a council {9} over nodes 1..8: its cluster id is a head the topology lacks
    @example([(u, 0) for u in range(8)], (0, 0), [5] * 8 + [0, 5], [0] * 10)
    def test_check_on_unbuilt_links_matches_the_built_links(self, spots, jump, owners, roles):
        # nodes 1..8 on a quarter-radius grid, so that some pairs are
        # exactly a radius apart; node 1 then moves, leaving the links
        # unbuilt.  owners[i] places node i + 1 in one of up to five
        # clusters (index 5 leaves it out) and roles[i] makes it a head,
        # member or gateway there; nodes 9 and 10, which the topology
        # lacks, may be placed too, and a cluster may have no head
        built = build_topology([(u, (x / 4, y / 4)) for u, (x, y) in enumerate(spots, 1)], 1.0)
        moved = move_nodes(built, {1: (jump[0] / 4, jump[1] / 4)})
        placed = list(zip(owners, roles))
        clusters = []
        for j in range(5):
            heads, members, gateways = groups = [
                frozenset(u for u, spot in enumerate(placed, 1) if spot == (j, role)) for role in range(3)
            ]
            if any(groups):
                council = Council(heads, min(heads) if heads else 100 + j)
                clusters.append(Cluster(council, members, gateways, k=1))
        p = Partition(clusters)
        found = verify_partition(moved, p)
        assert "adj" not in vars(moved)
        assert found == verify_partition(Topology(moved.adj), p)
        # each node the topology lacks is listed in exactly one message
        stray = p.node_index.keys() - moved.nodes
        listed = [int(u) for v in found for ids in re.findall(r"\[([\d, ]+)\]", v) for u in ids.split(", ")]
        listed += [int(u) for v in found for u in re.findall(r"^cluster id (\d+) is not a topology node$", v)]
        assert {u: listed.count(u) for u in stray} == dict.fromkeys(stray, 1)
