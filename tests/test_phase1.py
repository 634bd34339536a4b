import random

import pytest

from councilnet.errors import InvalidDominatingSet
from councilnet.graph import is_dominating_set, neighbors, topology_from_edges
from councilnet.phase1 import Role, build_dominating_set, elect_heads, identify_gateways, node_states
from councilnet.phase2 import cluster_form
from councilnet.topologies import random_connected, triangle, two_cluster_seven


def path3():
    return topology_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def heads(head_of):
    return frozenset(u for u, c in head_of.items() if u == c)


def cluster(head_of, cid):
    return frozenset(u for u, c in head_of.items() if c == cid)


def gateways(t):
    return identify_gateways(t, elect_heads(t))


def backbone(t):
    head_of = elect_heads(t)
    return build_dominating_set(head_of, identify_gateways(t, head_of))


class TestElectHeads:
    def test_path_heads_and_members(self):
        head_of = elect_heads(path3())
        assert sorted(heads(head_of)) == [1, 3]
        assert head_of[2] == 1
        assert cluster(head_of, 3) == frozenset({3})

    def test_single_node_heads_itself(self):
        t = topology_from_edges([5], [])
        assert elect_heads(t) == {5: 5}

    def test_two_cluster_seven(self):
        head_of = elect_heads(two_cluster_seven())
        assert sorted(heads(head_of)) == [1, 4]
        assert cluster(head_of, 1) == frozenset({1, 2, 3, 5})
        assert cluster(head_of, 4) == frozenset({4, 6, 7})

    def test_disconnected_elects_per_component(self):
        t = topology_from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert elect_heads(t) == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_no_two_heads_adjacent(self):
        for seed in range(12):
            t = random_connected(24, seed=seed)
            elected = heads(elect_heads(t))
            for h in elected:
                assert not neighbors(t, h) & elected

    def test_every_member_one_hop_from_head(self):
        for seed in range(12):
            t = random_connected(24, seed=seed)
            for n, head in elect_heads(t).items():
                if n != head:
                    assert head in neighbors(t, n)

    def test_permutation_invariant(self):
        rng = random.Random(4)
        base = random_connected(20, seed=20)
        specs = sorted((nid, base.positions[nid]) for nid in base.nodes)
        for _ in range(5):
            rng.shuffle(specs)
            from councilnet.graph import build_topology

            shuffled = build_topology(specs, base.radius)
            assert elect_heads(shuffled) == elect_heads(base)


class TestIdentifyGateways:
    def test_two_cluster_seven_gateway_is_five(self):
        t = two_cluster_seven()
        assert gateways(t) == frozenset({5})
        assert elect_heads(t)[5] == 1  # stays in its electing cluster

    def test_path_midpoint_becomes_gateway(self):
        assert gateways(path3()) == frozenset({2})

    def test_single_cluster_yields_none(self):
        assert gateways(triangle()) == frozenset()
        assert heads(elect_heads(triangle())) == frozenset({1})

    def test_heads_never_retagged(self):
        for seed in range(8):
            t = random_connected(24, seed=seed)
            head_of = elect_heads(t)
            assert not identify_gateways(t, head_of) & heads(head_of)


class TestDominatingSet:
    def test_two_cluster_seven(self):
        ds = backbone(two_cluster_seven())
        assert ds.members == (1, 4, 5)
        assert ds.size == 3

    def test_path(self):
        assert backbone(path3()).members == (1, 2, 3)

    def test_single_node(self):
        assert backbone(topology_from_edges([9], [])).members == (9,)

    def test_violation_is_detected(self):
        # a hand-built map with no heads at all, every node in a cluster no
        # node heads, cannot dominate, which cluster_form, the one
        # domination check, refuses
        t = path3()
        headless = dict.fromkeys(t.nodes, 0)
        with pytest.raises(InvalidDominatingSet):
            cluster_form(t, build_dominating_set(headless, identify_gateways(t, headless)))

    def test_proposition_on_random_graphs(self):
        for seed in range(25):
            t = random_connected(10 + seed, seed=seed)
            assert is_dominating_set(t, backbone(t).members)


class TestHello:
    def test_isolated_node_sends_empty_tables(self):
        t = topology_from_edges([1], [])
        assert node_states(t) == {1: {}}

    def test_triangle_node_two_lists_both_neighbors(self):
        assert node_states(triangle())[2] == {1: Role.UNDECIDED, 3: Role.UNDECIDED}

    def test_roles_appear_in_tables_after_election(self):
        t = two_cluster_seven()
        head_of, gateway = elect_heads(t), gateways(t)
        roles = {
            u: Role.HEAD if u == c else Role.GATEWAY if u in gateway else Role.MEMBER
            for u, c in head_of.items()
        }
        states = node_states(t, roles)
        assert list(states) == sorted(t.nodes)
        assert states[1][5] is Role.GATEWAY
        assert states[6][4] is Role.HEAD
        for u, table in states.items():
            assert list(table) == sorted(neighbors(t, u))
