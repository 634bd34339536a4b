import importlib.util
import itertools
import json
import random
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import graph_oracle
import ledger_oracle
import pytest
import sim_oracle as oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from state_checks import check_state, formed_clusters

from councilnet.audit import audit_dump, audit_secrecy
from councilnet.errors import (
    DisconnectedTopology,
    ParseError,
    UnknownNode,
    ValidationError,
)
from councilnet import graph, phase2, sim
from councilnet.graph import Topology, topology_from_edges
from councilnet.ledger import ClusterLedger
from councilnet.maintenance import apply_departures, reform
from councilnet.phase2 import Cluster, Council, Partition, verify_partition
from councilnet.scenario import load_scenario, scenario_from_dict
from councilnet.shamir import DEFAULT_PRIME
from councilnet.sim import compromise, dump_state, initialize, run, step
from councilnet.topologies import random_connected

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# The benchmark's scenario generator, loaded from its file and never edited.
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios.py"

STATIC_SEVEN = {
    "seed": 7,
    "rounds": 10,
    "field_prime": 13,
    "nodes": [{"nid": n} for n in range(1, 8)],
    "edges": [[1, 2], [1, 3], [1, 5], [3, 5], [4, 5], [4, 6], [4, 7], [6, 7]],
}


def mobile_scenario(walkers=("2",), rounds=4):
    nodes = [
        {"nid": 1, "pos": [0.0, 0.0]},
        {"nid": 2, "pos": [0.8, 0.0]},
        {"nid": 3, "pos": [0.4, 0.6]},
        {"nid": 4, "pos": [0.5, -0.8]},
        {"nid": 5, "pos": [1.45, -0.8]},
        {"nid": 6, "pos": [2.35, -0.8]},
    ]
    if "2" in walkers:
        nodes[1].update(waypoints=[[1.45, 0.1]], speed=3.0)
    if "3" in walkers:
        nodes[2].update(waypoints=[[2.9, -0.1]], speed=3.0)
    return scenario_from_dict({"seed": 3, "rounds": rounds, "radius": 1.0, "nodes": nodes})


def drifting_head_scenario(**extra):
    # clusters 1 (heads 1, 3; member 2; gateway 4) and 5 (head 5 alone);
    # node 5 reaches (0.9, 0.9), in range of head 3, in round 2
    nodes = [
        {"nid": 1, "pos": [0.0, 0.0]},
        {"nid": 2, "pos": [0.0, 0.9]},
        {"nid": 3, "pos": [0.9, 0.0]},
        {"nid": 4, "pos": [1.6, 0.0]},
        {"nid": 5, "pos": [1.8, 0.9], "waypoints": [[0.9, 0.9]], "speed": 0.45},
    ]
    return scenario_from_dict(dict({"seed": 1, "rounds": 3, "radius": 1.0, "nodes": nodes}, **extra))


def head_swap_scenario():
    # cluster 1: heads 1 and 5 (n = k = 2), gateway 3; cluster 2: heads 2, 4
    # and 6.  In round 1 head 1 walks over to cluster 2 and head 2 to where
    # it hears only head 5; both depart in round 2, node 1 first.
    nodes = [
        {"nid": 1, "pos": [0.1, 0.9], "waypoints": [[2.5, 0.0]], "speed": 5.0},
        {"nid": 2, "pos": [1.7, 0.7], "waypoints": [[0.5, 1.4]], "speed": 5.0},
        {"nid": 3, "pos": [0.9, 0.2]},
        {"nid": 4, "pos": [2.4, 0.0]},
        {"nid": 5, "pos": [0.0, 0.6]},
        {"nid": 6, "pos": [1.7, 0.1]},
    ]
    return scenario_from_dict({"seed": 1, "rounds": 2, "radius": 1.0, "nodes": nodes})


def vanishing_cluster_scenario():
    # cluster 1: heads 1 and 5, member 2, gateway 6; cluster 3: head 3 and
    # member 4.  In round 1 node 3 walks next to head 5 and node 4 next to
    # head 1, out of each other's range, so both depart in round 2.
    nodes = [
        {"nid": 1, "pos": [0.2, 0.8]},
        {"nid": 2, "pos": [0.3, 1.4]},
        {"nid": 3, "pos": [2.1, 1.5], "waypoints": [[1.4, 0.2]], "speed": 5.0},
        {"nid": 4, "pos": [2.2, 1.0], "waypoints": [[0.9, 1.5]], "speed": 5.0},
        {"nid": 5, "pos": [1.1, 0.7]},
        {"nid": 6, "pos": [1.8, 0.7]},
    ]
    return scenario_from_dict({"seed": 1, "rounds": 2, "radius": 1.0, "nodes": nodes})


def small_mobile_scenario(seed, n=100, rounds=40, prime=1009):
    """random_connected placement at 1.3x its radius, 30% movers on 8
    waypoints at a quarter radius per round, refresh every 4 rounds, and an
    adversary holding 5% of the nodes from round 2."""
    t = random_connected(n, seed=seed)
    radius = 1.3 * t.radius
    rng = random.Random(seed)
    movers = set(rng.sample(sorted(t.nodes), n * 3 // 10))
    nodes = []
    for nid in sorted(t.nodes):
        node = {"nid": nid, "pos": list(t.positions[nid])}
        if nid in movers:
            node["waypoints"] = [[rng.random(), rng.random()] for _ in range(8)]
            node["speed"] = radius / 4
        nodes.append(node)
    adversary = {"compromise_round": 2, "nodes": rng.sample(sorted(t.nodes), n // 20)}
    return scenario_from_dict(
        {
            "seed": seed,
            "rounds": rounds,
            "radius": radius,
            "refresh_interval_rounds": 4,
            "field_prime": prime,
            "adversary": adversary,
            "nodes": nodes,
        }
    )


def benchmark_scenario(recipe, seed, rounds):
    """The ``perfbench`` workload ``recipe`` (a function name of its
    scenario generator) at ``seed``, cut to ``rounds`` rounds."""
    spec = importlib.util.spec_from_file_location("perfbench_scenarios", WORKLOADS)
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    return scenario_from_dict({**getattr(scenarios, recipe)(seed), "rounds": rounds})


def parking(sc):
    """``sc`` with each mover keeping one or two of its waypoints, so that
    movers park at different rounds and the set that moves keeps changing."""
    return replace(sc, nodes=tuple(replace(s, waypoints=s.waypoints[: 1 + s.nid % 2]) for s in sc.nodes))


def toggled(t, u, v):
    """``t`` with the link between u and v added or removed, and its
    positions and radius kept.  On a position-mode topology the toggled link
    lasts until the next move, whose build from this hand-assembled
    topology is a full one."""
    flipped = topology_from_edges(sorted(t.nodes), t.edges ^ {(min(u, v), max(u, v))})
    return Topology(flipped.adj, t.positions, t.radius)


def assert_same_outputs(a, b, where, tmp):
    """Two copies of one run agree on every output, the dump's bytes included."""
    assert a.metrics == b.metrics, where
    assert a.decision_log == b.decision_log, where
    assert a.miss_counts == b.miss_counts, where
    assert a.violations == b.violations, where
    assert a.halted == b.halted, where
    assert a.partition == b.partition, where
    dumps = tmp / "a.json", tmp / "b.json"
    dump_state(a, dumps[0])
    dump_state(b, dumps[1])
    assert dumps[0].read_bytes() == dumps[1].read_bytes(), where


def step_uncached(state, toggle=None):
    """Step ``state`` with every cache defeated and three layers run by the
    tests' oracles: no refresh memo in any ledger; each link build the
    all-pairs one (``graph_oracle``), the maintenance pass the reference one
    (``sim_oracle``: the per-node in-touch scan, a health for every cluster,
    no quiet pass and the partition checked on every pass) and each refresh
    the ledger oracle's.  ``state.healths`` must hold a health for every
    cluster.  ``toggle``, None or a pair of nodes, is applied with
    ``toggled`` inside the same patch, so a deferred build it reads is the
    oracle's too."""
    for ledger in state.share_ledger.values():
        ledger._checked = None
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graph, "build_topology", graph_oracle.build_topology)
        m.setattr(sim, "_maintenance_pass", oracle.maintenance_pass)
        m.setattr(ClusterLedger, "refresh", ledger_oracle.OracleLedger.refresh)
        if toggle is not None:
            state.topology = toggled(state.topology, *toggle)
        step(state)


def assert_twins_agree(sc, toggles=()):
    """Run ``sc`` twice, the second copy from the all-pairs build and
    through ``step_uncached``, and compare the copies after every round.
    ``toggles`` gives, for each of the first rounds, None or a pair of nodes
    whose link both copies toggle before it, in edge-list and position mode
    alike."""
    cached = initialize(sc)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim, "build_topology", graph_oracle.build_topology)
        uncached = initialize(sc)
    uncached.healths = oracle.baselines(uncached.partition)
    with tempfile.TemporaryDirectory() as tmp:
        while cached.round < sc.rounds and not cached.halted:
            toggle = toggles[cached.round] if cached.round < len(toggles) else None
            if toggle is not None:
                cached.topology = toggled(cached.topology, *toggle)
            step(cached)
            step_uncached(uncached, toggle)
            assert_same_outputs(cached, uncached, f"round {cached.round}", Path(tmp))


def count_verify_calls(monkeypatch):
    """Route every module attribute bound to ``verify_partition``, however
    it was imported, through a counter; returns the list of calls."""
    calls = []
    verify = phase2.verify_partition

    def counted(t, p):
        calls.append(len(t.nodes))
        return verify(t, p)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "councilnet" and vars(module).get("verify_partition") is verify:
            monkeypatch.setattr(module, "verify_partition", counted)
    return calls


@st.composite
def quiet_pass_runs(draw):
    """A small scenario, edge-list or mobile, and for each round either None
    or a pair of nodes whose link is toggled before that round is stepped."""
    n = draw(st.integers(2, 12))
    t = random_connected(n, seed=draw(st.integers(0, 2**16)))
    nids = sorted(t.nodes)
    rounds = draw(st.integers(1, 10))
    data = {
        "seed": draw(st.integers(0, 3)),
        "rounds": rounds,
        "field_prime": 1009,
        "hello_interval_rounds": draw(st.integers(1, 3)),
    }
    if draw(st.booleans()):
        data["edges"] = sorted(t.edges)
        data["nodes"] = [{"nid": nid} for nid in nids]
    else:
        data["radius"] = t.radius
        movers = draw(st.sets(st.sampled_from(nids), max_size=n // 3))
        points = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)
        data["nodes"] = [{"nid": nid, "pos": list(t.positions[nid])} for nid in nids]
        for node in data["nodes"]:
            if node["nid"] in movers:
                node["waypoints"] = draw(st.lists(points, min_size=1, max_size=3))
                node["speed"] = t.radius * draw(st.sampled_from([0.25, 0.5, 1.0]))
    if draw(st.booleans()):
        data["adversary"] = {
            "compromise_round": draw(st.integers(1, rounds)),
            "nodes": draw(st.lists(st.sampled_from(nids), max_size=3)),
        }
    pairs = st.tuples(st.sampled_from(nids), st.sampled_from(nids)).filter(lambda uv: uv[0] != uv[1])
    # At most two toggles, so that most runs also hold still for a while.
    toggle_rounds = draw(st.sets(st.integers(0, rounds - 1), max_size=2))
    toggles = [draw(pairs) if r in toggle_rounds else None for r in range(rounds)]
    return scenario_from_dict(data), toggles


@st.composite
def scan_inputs(draw):
    """A topology, a partition and pending misses for the in-touch scan.

    The partition is formed on a connected topology that then loses some
    links, possibly followed by departures applied as a maintenance pass
    applies them (councils lose heads, clusters gain members), or drawn
    freely: each node in one group of one cluster, so that a cluster may
    have a lone head, no head, or heads that hear nobody.  Either way it
    assigns exactly the topology's nodes, and misses name only those.
    """
    n = draw(st.integers(1, 16))
    nids = range(1, n + 1)
    kind = draw(st.sampled_from(["formed", "departed", "free"]))
    if kind == "free":
        pairs = list(itertools.combinations(nids, 2))
        t = topology_from_edges(nids, draw(st.lists(st.sampled_from(pairs))) if pairs else [])
        groups = [([], [], []) for _ in range(draw(st.integers(1, 4)))]
        for u in nids:
            groups[draw(st.integers(0, len(groups) - 1))][draw(st.integers(0, 2))].append(u)
        p = Partition(
            tuple(
                Cluster(Council(frozenset(heads), cid), frozenset(members), frozenset(gateways), 1)
                for cid, (heads, members, gateways) in enumerate(groups, 1)
                if heads or members or gateways
            )
        )
    else:
        formed = random_connected(n, seed=draw(st.integers(0, 2**16)))
        p = reform(formed)
        edges = sorted(formed.edges)
        cut = draw(st.sets(st.sampled_from(edges), max_size=4)) if edges else set()
        t = topology_from_edges(nids, [e for e in edges if e not in cut])
        for _ in range(draw(st.integers(0, 4)) if kind == "departed" else 0):
            # Only a node that hears another cluster's head can move there;
            # any other departure strands it, and the pass re-forms instead.
            movers = [u for u in nids if p.head_clusters(t.adj[u]) - {p.node_index[u]}]
            if not movers:
                break
            p = apply_departures(t, p, [draw(st.sampled_from(movers))], {})[0]
    misses = draw(st.dictionaries(st.sampled_from(nids), st.integers(1, 3), max_size=6))
    return t, p, misses


def cluster(cid, heads, members=(), gateways=()):
    return Cluster(Council(frozenset(heads), cid), frozenset(members), frozenset(gateways), 1)


class TestDepartureScan:
    @given(scan_inputs())
    # a lone head is in touch though it hears nobody, and its miss clears
    @example((topology_from_edges([1, 2, 3], [(2, 3)]), Partition((cluster(1, [1]), cluster(2, [2], [3]))), {1: 1}))
    # head 1 hears only member 3 and is in touch; head 2 hears nobody and departs
    @example((topology_from_edges([1, 2, 3], [(1, 3)]), Partition((cluster(1, [1, 2], [3]),)), {2: 1}))
    @settings(max_examples=300, deadline=None)
    def test_cluster_walk_matches_per_node_oracle(self, inputs):
        t, p, misses = inputs
        expected, got = dict(misses), dict(misses)
        assert sim._departures(t, p, got) == oracle.departures(t, p, expected)
        assert list(got.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "positions, clusters",
        [
            # head 2's only cluster node in range is head 1, exactly r away
            pytest.param(
                {1: (0.0, 0.0), 2: (3.0, 4.0), 3: (0.0, -4.0)},
                [cluster(1, [1, 2], [3])],
                id="head-hears-head",
            ),
            # head 1 hears no head (head 2 is far off), only member 3, exactly r away
            pytest.param(
                {1: (0.0, 0.0), 2: (20.0, 0.0), 3: (3.0, 4.0), 4: (20.0, 3.0)},
                [cluster(1, [1, 2], [3, 4])],
                id="head-hears-member",
            ),
            # member 2 is exactly r from the one head of its cluster
            pytest.param(
                {1: (0.0, 0.0), 2: (-3.0, -4.0), 3: (9.0, 0.0)},
                [cluster(1, [1], [2]), cluster(3, [3])],
                id="member-hears-head",
            ),
        ],
    )
    def test_a_node_exactly_r_away_keeps_its_peer_in_touch(self, positions, clusters):
        # the distances are 3-4-5 triangles at r = 5, so exact in floats
        built = graph.build_topology(sorted(positions.items()), 5.0)
        p = Partition(tuple(clusters))
        for t in (built, graph.move_nodes(built, {})):
            misses = dict.fromkeys(positions, 1)
            assert sim._departures(t, p, misses) == [] and misses == {}
            assert oracle.departures(t, p, {}) == []


class TestLoadScenario:
    def test_minimal_single_node(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"nodes": [{"nid": 1, "pos": [0, 0]}], "radius": 1.0}))
        sc = load_scenario(path)
        assert sc.rounds == 0
        assert sc.gateway_threshold == 0.5
        assert sc.field_prime == 2**61 - 1

    def test_duplicate_nids_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"radius": 1.0, "nodes": [{"nid": 1, "pos": [0, 0]}, {"nid": 1, "pos": [1, 0]}]})
        )
        with pytest.raises(ValidationError):
            load_scenario(path)

    def test_fixture_file_uses_edge_list_mode(self):
        sc = load_scenario(SCENARIOS / "two_cluster_seven.json")
        assert len(sc.nodes) == 7
        assert sc.static
        assert len(sc.edges) == 8

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_scenario(tmp_path / "nope.json")

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'nodes': []\n}")
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert "line" in str(err.value)

    def test_adversary_must_reference_known_nodes(self):
        data = dict(STATIC_SEVEN, adversary={"compromise_round": 1, "nodes": [99]})
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_negative_speed_rejected(self):
        data = {
            "radius": 1.0,
            "nodes": [{"nid": 1, "pos": [0, 0], "speed": -1.0}],
        }
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_prime_must_exceed_node_ids(self):
        data = dict(STATIC_SEVEN, field_prime=7)
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_composite_prime_rejected(self):
        data = dict(STATIC_SEVEN, field_prime=15)
        with pytest.raises(ValidationError):
            scenario_from_dict(data)


class TestInitialize:
    def test_two_cluster_fixture(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        by_cid = {c.cluster_id: c for c in state.partition.clusters}
        assert set(by_cid) == {1, 6}
        ledger1 = state.share_ledger[1]
        ledger6 = state.share_ledger[6]
        assert (len(ledger1.shares), ledger1.k) == (3, 2)
        assert (len(ledger6.shares), ledger6.k) == (1, 1)

    def test_single_node(self):
        state = initialize(
            scenario_from_dict({"radius": 1.0, "rounds": 0, "nodes": [{"nid": 1, "pos": [0, 0]}]})
        )
        assert len(state.partition.clusters) == 1
        only = state.share_ledger[1]
        assert (len(only.shares), only.k) == (1, 1)

    def test_hundred_node_random_scenario_is_clean(self):
        t = random_connected(100, seed=5)
        nodes = [{"nid": n, "pos": list(t.positions[n])} for n in sorted(t.nodes)]
        sc = scenario_from_dict({"radius": t.radius, "rounds": 0, "nodes": nodes})
        state = initialize(sc)
        assert verify_partition(state.topology, state.partition) == []

    def test_disconnected_initial_topology_rejected(self):
        sc = scenario_from_dict(
            {
                "radius": 1.0,
                "nodes": [{"nid": 1, "pos": [0, 0]}, {"nid": 2, "pos": [9, 9]}],
            }
        )
        with pytest.raises(DisconnectedTopology, match="^initial topology must be connected$"):
            initialize(sc)

    def test_connectivity_is_checked_once(self, monkeypatch):
        sc = scenario_from_dict(STATIC_SEVEN)
        calls = []
        is_connected = graph.is_connected

        def counted(t):
            calls.append(len(t.nodes))
            return is_connected(t)

        # Every module attribute bound to the function, however it was imported.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "councilnet" and vars(module).get("is_connected") is is_connected:
                monkeypatch.setattr(module, "is_connected", counted)
        initialize(sc)
        assert calls == [7]

    def test_waypoint_queues_only_for_nodes_with_waypoints(self):
        assert initialize(scenario_from_dict(STATIC_SEVEN)).pending_waypoints == {}
        state = initialize(mobile_scenario(walkers=("2", "3")))
        assert state.pending_waypoints == {2: [(1.45, 0.1)], 3: [(2.9, -0.1)]}
        step(state)
        # Both walkers reach their only waypoint; the others never move.
        assert state.pending_waypoints == {2: [], 3: []}
        positions = state.topology.positions
        assert positions[2] == (1.45, 0.1) and positions[1] == (0.0, 0.0)


class TestStep:
    def test_static_scenario_never_changes(self):
        sc = scenario_from_dict(STATIC_SEVEN)
        state = initialize(sc)
        first = state.partition
        for _ in range(sc.rounds):
            step(state)
        assert state.partition == first
        assert sum(r.reforms for r in state.metrics) == 0
        assert sum(r.updates for r in state.metrics) == 0
        assert [r.cluster_count for r in state.metrics] == [2] * 10

    def test_two_departing_heads_force_reform(self):
        state = initialize(mobile_scenario(walkers=("2", "3")))
        for _ in range(4):
            step(state)
        per_round = [(r.updates, r.reforms) for r in state.metrics]
        assert per_round[0] == (0, 0)  # first miss recorded, nothing departed yet
        assert per_round[1] == (0, 1)  # two of three heads out -> re-formation
        assert state.violations == []

    def test_single_departing_head_is_local_update(self):
        state = initialize(mobile_scenario(walkers=("2",)))
        for _ in range(4):
            step(state)
        per_round = [(r.updates, r.reforms) for r in state.metrics]
        assert per_round[1] == (1, 0)
        assert sum(r.reforms for r in state.metrics) == 0
        # the departed head joined the neighbouring council and got a share
        assert 2 in state.partition.cluster(5).council.heads
        assert 2 in state.share_ledger[5].shares
        assert state.violations == []

    def test_hello_round_counts(self):
        sc = scenario_from_dict(dict(STATIC_SEVEN, hello_interval_rounds=3, rounds=6))
        state = initialize(sc)
        for _ in range(6):
            step(state)
        assert [r.hellos for r in state.metrics] == [7, 0, 0, 7, 0, 0]

    def test_heads_drifting_into_range_force_reform(self):
        # head 5 walks into range of head 3 while every node stays in touch
        # with its own cluster: no misses are pending, only the partition
        # check can see the damage
        state = initialize(drifting_head_scenario())
        step(state)
        before = state.partition
        step(state)
        assert verify_partition(state.topology, before)
        assert [r.reforms for r in state.metrics] == [0, 1]
        assert [e for e in state.decision_log if e[0] == 2] == [(2, -1, "reform", 0, 0.0)]
        assert verify_partition(state.topology, state.partition) == []
        assert state.violations == []

    def test_stale_partition_between_hello_rounds_is_no_violation(self):
        state = initialize(drifting_head_scenario(hello_interval_rounds=2))
        step(state)
        step(state)  # not a HELLO round: the partition goes stale unnoticed
        assert verify_partition(state.topology, state.partition)
        assert state.violations == []
        step(state)  # the next HELLO round repairs it
        assert [r.reforms for r in state.metrics] == [0, 0, 1]
        assert verify_partition(state.topology, state.partition) == []
        assert state.violations == []

    def test_joiner_is_not_issued_a_share_in_a_reforming_pass(self):
        # node 1's departure leaves council {1, 5} below k, so the pass
        # re-forms; node 2, joining that council next to head 5 in the same
        # pass, must not be issued a share from the single live one
        state = initialize(head_swap_scenario())
        step(state)
        step(state)
        assert [r.reforms for r in state.metrics] == [0, 1]
        assert state.violations == []

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a cluster whose every node departs in one pass is dropped "
        "before classification, so its re-form-level head loss is ignored and its ledger "
        "lingers in share_ledger; dropping the in-partition filter on the classified "
        "healths, reading k from state.share_ledger[cid].k and deleting the orphaned "
        "ledger fixes it, but changes waypoint-1k's stored digests in perfbench/digests.json",
    )
    def test_cluster_whose_nodes_all_depart_forces_reform(self):
        # cluster 3 loses its only head, 1 > n0 - k = 0 departures
        state = initialize(vanishing_cluster_scenario())
        step(state)
        step(state)
        assert [r.reforms for r in state.metrics] == [0, 1]
        assert set(state.share_ledger) == {c.cluster_id for c in state.partition.clusters}

    def test_unchanged_network_is_verified_once(self, monkeypatch):
        calls = count_verify_calls(monkeypatch)
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        for _ in range(10):
            step(state)
        assert calls == [7]
        assert sum(r.hellos for r in state.metrics) == 70

    def test_a_pass_classifies_only_changed_clusters(self, monkeypatch):
        calls = []
        classify = sim.classify_change

        def counted(health, k, gateway_threshold):
            calls.append(health)
            return classify(health, k, gateway_threshold)

        monkeypatch.setattr(sim, "classify_change", counted)
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        step(state)
        step(state)
        # Equal healths and an equal partition in new objects: the passes
        # run in full, and still nothing has changed.
        state.healths = dict(state.healths)
        step(state)
        state.partition = phase2.Partition(state.partition.clusters)
        step(state)
        step(state)
        step(state)
        assert calls == [] and state.healths == {}
        assert [r.updates + r.reforms for r in state.metrics] == [0] * 6

        # node 2 leaves its cluster in round 2 and joins another: the
        # departure pass classifies exactly those two
        state = initialize(mobile_scenario(walkers=("2",)))
        step(state)
        assert calls == []
        left = state.partition.node_index[2]
        step(state)
        joined = state.partition.node_index[2]
        assert [(r.updates, r.reforms) for r in state.metrics] == [(0, 0), (1, 0)]
        classified = {cid for cid, h in state.healths.items() if any(h is c for c in calls)}
        assert len(calls) == 2 and classified == {left, joined} and left != joined

    def test_quiet_passes_keep_the_partition_and_healths_objects(self):
        # The next pass can be quiet only if it meets the very partition
        # object of the last clean one, so a pass without departures must
        # hand back the objects it was given.
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        partition, healths = state.partition, state.healths
        for _ in range(3):
            step(state)
            assert state.partition is partition and state.healths is healths
            assert state.last_clean[0] is state.topology and state.last_clean[1] is partition

    def test_swapped_topology_is_verified_on_the_next_hello_round(self, monkeypatch):
        state = initialize(scenario_from_dict(dict(STATIC_SEVEN, hello_interval_rounds=2)))
        step(state)
        calls = count_verify_calls(monkeypatch)
        step(state)
        step(state)
        assert calls == []  # round 2 has no HELLO, round 3 is quiet
        state.topology = toggled(state.topology, 2, 3)
        step(state)
        assert calls == []  # round 4 has no HELLO either
        step(state)
        assert calls == [7]
        assert state.violations == []

    @pytest.mark.parametrize("change", ["partition", "miss"])
    def test_rebuilt_partition_or_pending_miss_is_verified(self, monkeypatch, change):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        step(state)
        calls = count_verify_calls(monkeypatch)
        if change == "partition":
            state.partition = phase2.Partition(state.partition.clusters)  # equal, not the same
        else:
            state.miss_counts[2] = 1
        step(state)
        step(state)
        assert calls == [7]
        assert 2 not in state.miss_counts

    def test_pass_with_a_pending_miss_skips_the_partition_check(self, monkeypatch):
        # node 2 walks out of its cluster's reach: one miss, not yet departed
        state = initialize(mobile_scenario(walkers=("2",)))
        calls = count_verify_calls(monkeypatch)
        step(state)
        assert state.miss_counts == {2: 1}
        assert calls == []
        assert state.last_clean is None

    def test_pass_whose_pending_misses_all_depart_checks_the_partition(self, monkeypatch):
        # node 2, the only node with a miss pending, departs in round 2 and
        # joins cluster 5: nothing is left pending, so the partition is checked
        state = initialize(mobile_scenario(walkers=("2",)))
        step(state)
        calls = count_verify_calls(monkeypatch)
        step(state)
        assert state.miss_counts == {}
        assert calls == [6]
        assert [(r.updates, r.reforms) for r in state.metrics] == [(0, 0), (1, 0)]
        # a pass that departed a node is not a clean one
        assert state.last_clean is None

    @settings(max_examples=120, deadline=None)
    @given(quiet_pass_runs())
    @example((scenario_from_dict(STATIC_SEVEN), [None, None, (2, 3), None, (6, 7), None, None]))
    @example((drifting_head_scenario(rounds=6), [None] * 6))
    @example((mobile_scenario(walkers=("2",), rounds=6), [None, None, None, (1, 2), None, None]))
    def test_quiet_passes_change_nothing(self, run_spec):
        # One copy runs as is; the other forgets its last clean pass before
        # every step, so each of its HELLO rounds runs the full pass.
        sc, toggles = run_spec
        quiet, full = initialize(sc), initialize(sc)
        with tempfile.TemporaryDirectory() as tmp:
            for toggle in toggles:
                if quiet.halted:
                    break
                if toggle is not None:
                    quiet.topology = toggled(quiet.topology, *toggle)
                    full.topology = toggled(full.topology, *toggle)
                last = quiet.last_clean
                can_be_quiet = (
                    quiet.round % sc.hello_interval_rounds == 0
                    and last is not None
                    and not any(quiet.miss_counts.values())
                )
                full.last_clean = None
                step(quiet)
                step(full)
                where = f"round {quiet.round}"
                assert_same_outputs(quiet, full, where, Path(tmp))
                # A pass is quiet iff it met the very objects of the last
                # clean pass; being quiet, it leaves both in place.
                if can_be_quiet and last[0] is quiet.topology and last[1] is quiet.partition:
                    assert verify_partition(quiet.topology, quiet.partition) == [], where

    @pytest.mark.parametrize("parks", [False, True], ids=["moving", "parking"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_engine_agrees_with_itself_with_every_cache_defeated(self, seed, parks):
        sc = small_mobile_scenario(seed)
        assert_twins_agree(parking(sc) if parks else sc)

    def test_benchmark_scale_run_agrees_with_every_cache_defeated(self):
        # the waypoint-1k benchmark recipe: 1000 nodes, 30% movers, about 23
        # departures a local update, so every index edit meets the reference
        assert_twins_agree(benchmark_scenario("waypoint_1k", 1, rounds=30))

    @pytest.mark.parametrize(
        "recipe, parks",
        [
            # the movers park at different rounds, so the set that moves
            # shrinks from 300 to 171 over the run
            pytest.param("waypoint_1k", True, id="waypoint-1k-parking"),
            # an edge list that never moves: nearly every pass is a quiet one
            pytest.param("static_5k", False, id="static-5k"),
        ],
    )
    def test_benchmark_scale_traffic_agrees_with_every_cache_defeated(self, recipe, parks):
        sc = benchmark_scenario(recipe, 1, rounds=30)
        assert_twins_agree(parking(sc) if parks else sc)

    @settings(max_examples=60, deadline=None)
    @given(quiet_pass_runs())
    @example((scenario_from_dict(STATIC_SEVEN), [None, None, (2, 3), None, (6, 7), None, None]))
    # the toggled-off link 1-2 must not outlive node 5's next move
    @example((drifting_head_scenario(rounds=6), [None, (1, 2), None, None, None, None]))
    def test_small_runs_agree_with_every_cache_defeated(self, run_spec):
        assert_twins_agree(*run_spec)

    def test_mobile_state_without_positions_is_refused(self):
        # node 5 needs more than one round to reach its waypoint
        state = initialize(drifting_head_scenario(rounds=6))
        step(state)
        t = state.topology
        state.topology = topology_from_edges(sorted(t.nodes), t.edges)
        metrics, queues = list(state.metrics), {nid: list(q) for nid, q in state.pending_waypoints.items()}
        with pytest.raises(ValueError, match="no node positions"):
            step(state)
        assert (state.round, state.metrics, state.pending_waypoints) == (1, metrics, queues)
        # once every walker has parked, nothing moves and the edge list serves
        state.topology = t
        while state.pending_waypoints[5]:
            step(state)
        state.topology = topology_from_edges(sorted(t.nodes), state.topology.edges)
        step(state)
        assert state.round < 6 and not state.halted and state.violations == []

    @pytest.mark.parametrize(
        "seed, prime",
        [(1, 1009), (2, 1009), (3, 1009), (4, 1009), (5, 1009), (1, DEFAULT_PRIME)],
        ids=["1", "2", "3", "4", "5", "default-prime"],
    )
    def test_council_and_ledger_agree_every_round(self, seed, prime):
        state = initialize(small_mobile_scenario(seed, prime=prime))
        formed = formed_clusters(state)
        while state.round < state.scenario.rounds and not state.halted:
            step(state)
            formed = check_state(state, formed)
        assert not state.halted
        assert state.violations == []

    def test_benchmark_scale_state_holds_every_invariant_every_round(self):
        # the waypoint-1k benchmark recipe at its default 100 rounds: 1000
        # nodes, 30% movers, local updates of about 23 departures (20 of
        # the rounds) between re-forms
        state = initialize(benchmark_scenario("waypoint_1k", 1, rounds=100))
        formed = formed_clusters(state)
        while state.round < state.scenario.rounds and not state.halted:
            step(state)
            formed = check_state(state, formed)
        assert sum(row.updates for row in state.metrics) >= 10
        assert not state.halted
        assert state.violations == []

    @pytest.mark.parametrize(
        "seed, parks",
        [
            pytest.param(1, False, id="1"),
            pytest.param(2, False, id="2"),
            pytest.param(1, True, id="1-parking"),
            pytest.param(2, True, id="2-parking"),
        ],
    )
    def test_moved_topology_equals_a_fresh_build_every_round(self, seed, parks):
        sc = small_mobile_scenario(seed, rounds=25)
        state = initialize(parking(sc) if parks else sc)
        while state.round < state.scenario.rounds and not state.halted:
            step(state)
            fresh = graph.build_topology(sorted(state.topology.positions.items()), state.scenario.radius)
            # Reading the links builds them, if the round did not.
            assert state.topology.adj == fresh.adj, f"round {state.round}"
        assert state.round == state.scenario.rounds

    @pytest.mark.parametrize("seed", [1, 2])
    def test_round_without_reform_or_check_builds_no_links(self, seed, monkeypatch):
        build = graph.build_topology
        builds = []

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(graph, "build_topology", counted)
        verified = count_verify_calls(monkeypatch)
        state = initialize(small_mobile_scenario(seed, rounds=25))
        lazy = built = 0
        while state.round < state.scenario.rounds and not state.halted:
            del builds[:], verified[:]
            step(state)
            if not state.metrics[-1].reforms and not verified:
                assert builds == [], f"round {state.round}"
                lazy += 1
            else:
                built += len(builds)
            fresh = build(sorted(state.topology.positions.items()), state.scenario.radius)
            assert state.topology.adj == fresh.adj, f"round {state.round}"
        assert state.round == state.scenario.rounds
        # both kinds of round occur, and the counter sees the deferred builds
        assert lazy > 0 and built > 0

    def test_refresh_interval_bumps_epochs(self):
        sc = scenario_from_dict(dict(STATIC_SEVEN, refresh_interval_rounds=4))
        state = initialize(sc)
        for _ in range(sc.rounds):
            step(state)
        assert state.share_ledger[1].epoch == 2  # rounds 4 and 8

    def test_maintenance_decisions_are_logged(self):
        state = initialize(mobile_scenario(walkers=("2",)))
        for _ in range(4):
            step(state)
        actions = [(entry[1], entry[2]) for entry in state.decision_log]
        assert (1, "local_update") in actions

    def test_update_and_reform_counts_bounded_by_hello_rounds(self):
        for walkers in (("2",), ("2", "3")):
            state = initialize(mobile_scenario(walkers=walkers, rounds=6))
            hello_rounds = 0
            while state.round < state.scenario.rounds and not state.halted:
                if state.round % state.scenario.hello_interval_rounds == 0:
                    hello_rounds += 1
                step(state)
            total = sum(r.updates + r.reforms for r in state.metrics)
            assert total <= hello_rounds

    def test_stranded_node_halts_with_partial_report(self):
        # the only companion walks out of radio range entirely: re-formation
        # cannot run on a disconnected topology, so the run stops early
        sc = scenario_from_dict(
            {
                "seed": 1,
                "rounds": 6,
                "radius": 1.0,
                "nodes": [
                    {"nid": 1, "pos": [0.0, 0.0]},
                    {"nid": 2, "pos": [0.5, 0.0], "waypoints": [[9.0, 0.0]], "speed": 10.0},
                ],
            }
        )
        state = initialize(sc)
        while state.round < sc.rounds and not state.halted:
            step(state)
        assert state.halted
        assert len(state.metrics) < sc.rounds
        assert any("re-formation failed" in v for v in state.violations)


class TestCompromiseAndAudit:
    def test_empty_compromise_changes_nothing(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        compromise(state, set())
        assert all(not ledger.leaked for ledger in state.share_ledger.values())
        assert state.compromised == set()

    def test_single_head_below_threshold(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        compromise(state, {1})
        audit = audit_secrecy(state)
        entry = {e.cluster_id: e for e in audit.entries}[1]
        assert entry.compromised_head_count == 1
        assert not entry.breached
        assert entry.consistent_secrets == 13  # every candidate secret remains possible
        assert audit.ok

    def test_two_heads_reach_threshold(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        compromise(state, {1, 3})
        entry = {e.cluster_id: e for e in audit_secrecy(state).entries}[1]
        assert entry.breached
        assert entry.consistent_secrets == 1

    def test_default_prime_audit_counts_candidates(self):
        # size_ladder's largest council: heads 13..17, k = 3, over 2^61 - 1
        state = initialize(load_scenario(SCENARIOS / "size_ladder.json"))
        cluster = state.partition.cluster(13)
        heads = sorted(cluster.council.heads)
        assert state.share_ledger[13].prime == DEFAULT_PRIME and cluster.k == 3
        compromise(state, heads[:2])
        audit = audit_secrecy(state)
        entry = {e.cluster_id: e for e in audit.entries}[13]
        assert not entry.breached
        assert entry.consistent_secrets == DEFAULT_PRIME
        assert audit.ok
        compromise(state, heads[2:3])
        audit = audit_secrecy(state)
        entry = {e.cluster_id: e for e in audit.entries}[13]
        assert entry.breached
        assert entry.consistent_secrets == 1
        assert audit.ok

    def test_refresh_outruns_a_stale_share(self):
        sc = scenario_from_dict(dict(STATIC_SEVEN, refresh_interval_rounds=2, rounds=2))
        state = initialize(sc)
        compromise(state, {1})
        step(state)
        step(state)  # refresh at round 2: epoch moves on, node 1 keeps leaking
        entry = {e.cluster_id: e for e in audit_secrecy(state).entries}[1]
        assert entry.compromised_head_count == 1
        assert not entry.breached

    def test_revoked_share_stops_leaking(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        ledger = state.share_ledger[1]
        ledger.revoke(3)
        compromise(state, {1, 3})
        assert set(ledger.leaked) == {1}
        ledger.refresh(state.rng, state.compromised)
        assert 3 not in ledger.shares
        assert ledger.leaked == {1: ledger.shares[1]}
        assert ledger.leaked[1].epoch == 1

    def test_unknown_node_rejected(self):
        state = initialize(scenario_from_dict(STATIC_SEVEN))
        with pytest.raises(UnknownNode):
            compromise(state, {42})

    def test_scheduled_compromise_fires(self):
        sc = scenario_from_dict(
            dict(STATIC_SEVEN, adversary={"compromise_round": 3, "nodes": [1, 3]})
        )
        state = initialize(sc)
        for _ in range(sc.rounds):
            step(state)
        assert state.compromised == {1, 3}
        assert [r.secrecy_ok for r in state.metrics] == [True] * 10


class TestRun:
    def test_static_fixture_ten_rounds(self, tmp_path):
        out = tmp_path / "metrics.csv"
        report = run(SCENARIOS / "two_cluster_seven.json", out)
        lines = out.read_text().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[0] == (
            "round,cluster_count,mean_council,min_council,max_council,"
            "updates,reforms,hellos,secrecy_ok"
        )
        assert all(line.split(",")[1] == "2" for line in lines[1:])
        assert report.ok

    def test_zero_rounds_gives_header_only(self, tmp_path):
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(dict(STATIC_SEVEN, rounds=0)))
        out = tmp_path / "metrics.csv"
        run(path, out)
        assert out.read_text().splitlines() == [
            "round,cluster_count,mean_council,min_council,max_council,"
            "updates,reforms,hellos,secrecy_ok"
        ]

    def test_seed_never_changes_a_static_partition(self, tmp_path):
        rows = {}
        for seed in (1, 2):
            path = tmp_path / f"sc{seed}.json"
            path.write_text(json.dumps(dict(STATIC_SEVEN, seed=seed)))
            out = tmp_path / f"m{seed}.csv"
            run(path, out)
            rows[seed] = out.read_text()
        assert rows[1] == rows[2]

    def test_mobile_demo_fixture_runs_clean(self, tmp_path):
        report = run(SCENARIOS / "mobile_demo.json", tmp_path / "m.csv")
        assert report.ok
        assert sum(r.updates for r in report.rows) >= 1

    def test_state_dump_round_trips_through_audit(self, tmp_path):
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(
            json.dumps(dict(STATIC_SEVEN, adversary={"compromise_round": 2, "nodes": [1]}))
        )
        dump_path = tmp_path / "state.json"
        run(sc_path, tmp_path / "m.csv", state_out=dump_path)
        payload = json.loads(dump_path.read_text())
        shares = payload["clusters"][0]["shares"]
        assert all(len(entry) == 5 for entry in shares)  # (x, y, k, epoch, p)
        result = audit_dump(payload)
        assert result.ok
        entry = {e.cluster_id: e for e in result.entries}[1]
        assert entry.compromised_head_count == 1
        assert not entry.breached
