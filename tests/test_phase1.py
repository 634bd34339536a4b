import random

import pytest

from councilnet.errors import DisconnectedTopology, InvalidDominatingSet, ValidationError
from councilnet.graph import is_dominating_set, neighbors, topology_from_edges
from councilnet.phase1 import (
    Role,
    RoleAssignment,
    build_dominating_set,
    elect_heads,
    identify_gateways,
    node_states,
)
from councilnet.phase2 import cluster_form
from councilnet.topologies import random_connected, triangle, two_cluster_seven
from formation_oracle import tagged


def path3():
    return topology_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def full_roles(t):
    return identify_gateways(t, elect_heads(t))


class TestElectHeads:
    def test_path_heads_and_members(self):
        ra = elect_heads(path3())
        assert sorted(tagged(ra, Role.HEAD)) == [1, 3]
        assert ra.role_of(2) is Role.MEMBER
        assert ra.entries[2][1] == 1
        assert tagged(ra, cid=3) == frozenset({3})

    def test_single_node_heads_itself(self):
        t = topology_from_edges([5], [])
        ra = elect_heads(t)
        assert tagged(ra, Role.HEAD) == frozenset({5})
        assert ra.entries[5][1] == 5

    def test_two_cluster_seven(self):
        ra = elect_heads(two_cluster_seven())
        assert sorted(tagged(ra, Role.HEAD)) == [1, 4]
        assert tagged(ra, cid=1) == frozenset({1, 2, 3, 5})
        assert tagged(ra, cid=4) == frozenset({4, 6, 7})

    def test_disconnected_rejected(self):
        t = topology_from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
        with pytest.raises(DisconnectedTopology):
            elect_heads(t)

    def test_no_two_heads_adjacent(self):
        for seed in range(12):
            t = random_connected(24, seed=seed)
            heads = tagged(elect_heads(t), Role.HEAD)
            for h in heads:
                assert not neighbors(t, h) & heads

    def test_every_member_one_hop_from_head(self):
        for seed in range(12):
            t = random_connected(24, seed=seed)
            ra = elect_heads(t)
            for n in t.nodes:
                if ra.role_of(n) is Role.MEMBER:
                    assert ra.entries[n][1] in neighbors(t, n)

    def test_permutation_invariant(self):
        rng = random.Random(4)
        base = random_connected(20, seed=20)
        specs = sorted((nid, base.positions[nid]) for nid in base.nodes)
        for _ in range(5):
            rng.shuffle(specs)
            from councilnet.graph import build_topology

            shuffled = build_topology(specs, base.radius)
            assert elect_heads(shuffled).entries == elect_heads(base).entries


class TestIdentifyGateways:
    def test_two_cluster_seven_gateway_is_five(self):
        ra = full_roles(two_cluster_seven())
        assert tagged(ra, Role.GATEWAY) == frozenset({5})
        assert ra.entries[5][1] == 1  # stays in its electing cluster

    def test_path_midpoint_becomes_gateway(self):
        ra = full_roles(path3())
        assert tagged(ra, Role.GATEWAY) == frozenset({2})

    def test_single_cluster_yields_none(self):
        ra = full_roles(triangle())
        assert tagged(ra, Role.GATEWAY) == frozenset()
        assert tagged(ra, Role.HEAD) == frozenset({1})

    def test_heads_never_retagged(self):
        for seed in range(8):
            t = random_connected(24, seed=seed)
            before = elect_heads(t)
            after = identify_gateways(t, before)
            assert tagged(before, Role.HEAD) == tagged(after, Role.HEAD)


class TestDominatingSet:
    def test_two_cluster_seven(self):
        t = two_cluster_seven()
        ds = build_dominating_set(t, full_roles(t))
        assert ds.members == (1, 4, 5)
        assert ds.size == 3

    def test_path(self):
        t = path3()
        assert build_dominating_set(t, full_roles(t)).members == (1, 2, 3)

    def test_single_node(self):
        t = topology_from_edges([9], [])
        assert build_dominating_set(t, full_roles(t)).members == (9,)

    def test_requires_gateways_identified(self):
        t = path3()
        with pytest.raises(ValidationError):
            build_dominating_set(t, elect_heads(t))

    def test_violation_is_detected(self):
        # hand-built assignment with no heads at all cannot dominate, which
        # cluster_form, the one domination check, refuses
        t = path3()
        broken = RoleAssignment(
            {n: (Role.MEMBER, 1) for n in t.nodes}, gateways_identified=True
        )
        with pytest.raises(InvalidDominatingSet):
            cluster_form(t, build_dominating_set(t, broken))

    def test_proposition_on_random_graphs(self):
        for seed in range(25):
            t = random_connected(10 + seed, seed=seed)
            ds = build_dominating_set(t, full_roles(t))
            assert is_dominating_set(t, ds.members)


class TestHello:
    def test_isolated_node_sends_empty_tables(self):
        t = topology_from_edges([1], [])
        assert node_states(t) == {1: {}}

    def test_triangle_node_two_lists_both_neighbors(self):
        assert node_states(triangle())[2] == {1: Role.UNDECIDED, 3: Role.UNDECIDED}

    def test_roles_appear_in_tables_after_election(self):
        t = two_cluster_seven()
        ra = full_roles(t)
        states = node_states(t, ra)
        assert list(states) == sorted(t.nodes)
        assert states[1][5] is Role.GATEWAY
        assert states[6][4] is Role.HEAD
        for u, table in states.items():
            assert list(table) == sorted(neighbors(t, u))
