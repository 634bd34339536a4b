"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a full run reads as a checklist.
"""

import itertools
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from councilnet.errors import MixedEpoch
from councilnet.graph import is_clique, is_dominating_set, triangles, two_hop_view
from councilnet.maintenance import (
    MaintenanceAction,
    baseline_health,
    classify_change,
    handle_departure,
    reform,
)
from councilnet.phase1 import build_dominating_set, elect_heads, identify_gateways
from councilnet.phase2 import cluster_form, verify_partition
from councilnet.shamir import (
    Share,
    choose_threshold,
    issue_share,
    reconstruct,
    refresh_shares,
    split_secret,
)
from councilnet.sim import run
from councilnet.topologies import (
    complete_graph,
    random_connected,
    size_ladder,
    triangle,
    two_cluster_seven,
)
from secrecy_oracle import consistent_secrets, poly_eval

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL: criterion {number} - {description}")
        raise
    print(f"PASS: criterion {number} - {description}")


def test_criterion_1_two_cluster_fixture_reproduction():
    with criterion(1, "canonical 7-node fixture: exact roles in both phases, < 1 s"):
        started = time.monotonic()
        t = two_cluster_seven()
        head_of = elect_heads(t)
        gateways = identify_gateways(t, head_of)
        assert sorted(u for u, c in head_of.items() if u == c) == [1, 4]
        assert sorted(gateways) == [5]
        ds = build_dominating_set(head_of, gateways)
        assert ds.members == (1, 4, 5)
        partition = cluster_form(t, ds)
        councils = sorted(sorted(c.council.heads) for c in partition.clusters)
        assert councils == [[1, 3, 5], [6]]
        gateways = sorted(n for c in partition.clusters for n in c.gateways)
        assert gateways == [4]
        assert verify_partition(t, partition) == []
        assert time.monotonic() - started < 1.0


def test_criterion_2_triangle_detection_and_clique_composition():
    with criterion(2, "triangle found from two-hop views; 4/5-cliques triangle-composed"):
        view = two_hop_view(triangle(), 1)
        assert triangles(view) == frozenset({frozenset({1, 2, 3})})
        for size in (4, 5):
            t = complete_graph(size)
            nodes = sorted(t.nodes)
            assert is_clique(t, nodes)
            for sub in itertools.combinations(nodes, 3):
                assert is_clique(t, sub)
                owner = sub[0]
                assert frozenset(sub) in triangles(two_hop_view(t, owner))


def test_criterion_3_adaptive_council_sizes():
    with criterion(3, "fixture clusters produce council sizes 2, 3, 4 and 5"):
        t = size_ladder()
        partition = reform(t)
        assert sorted(c.n for c in partition.clusters) == [2, 3, 4, 5]
        by_cid = {c.cluster_id: c for c in partition.clusters}
        # the locally complete island: every fully connected node except the
        # gateway out (node 12) serves as a head
        assert by_cid[13].council.heads == frozenset({13, 14, 15, 16, 17})
        assert 12 in by_cid[8].gateways
        assert is_clique(t, frozenset({12, 13, 14, 15, 16, 17}))
        assert verify_partition(t, partition) == []


def test_criterion_4_domination_and_coverage_on_random_graphs():
    with criterion(4, "200 random connected disk graphs: backbone dominates, partitions clean, < 30 s"):
        started = time.monotonic()
        rng = random.Random(2024)
        for i in range(200):
            n = rng.randrange(10, 51)
            t = random_connected(n, seed=i)
            assert len(t.nodes) == n
            head_of = elect_heads(t)
            ds = build_dominating_set(head_of, identify_gateways(t, head_of))
            assert is_dominating_set(t, ds.members)
            partition = cluster_form(t, ds)
            assert set(partition.node_index) == set(t.nodes)
            assert verify_partition(t, partition) == []
        assert time.monotonic() - started < 30.0


def _interpolate_coeffs(points, k, p):
    # Gaussian elimination over GF(p): the unique degree-<k polynomial
    # through k points with distinct x.
    rows = [[pow(x, j, p) for j in range(k)] + [y % p] for x, y in points]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] % p)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] for i in range(k)]


def test_criterion_5_exhaustive_threshold_scheme():
    with criterion(5, "GF(13), all k <= n <= 6: quorums reconstruct, sub-quorums hide, < 5 s"):
        started = time.monotonic()
        p = 13
        rng = random.Random(5)
        for n in range(1, 7):
            for k in range(1, n + 1):
                secret = rng.randrange(p)
                shares = split_secret(secret, k, range(1, n + 1), rng.randrange(10**6), p)
                for quorum in itertools.combinations(shares, k):
                    assert reconstruct(quorum, k, p) == secret
                for sub in itertools.combinations(shares, k - 1):
                    held = [(s.x, s.y) for s in sub]
                    if k <= 3:
                        # raw enumeration over every polynomial of degree < k
                        consistent = consistent_secrets(held, k, p)
                    else:
                        # constructive: for each candidate secret, build the
                        # unique interpolating polynomial and check it
                        consistent = set()
                        for candidate in range(p):
                            coeffs = _interpolate_coeffs(held + [(0, candidate)], k, p)
                            if all(poly_eval(coeffs, x, p) == y for x, y in held) and coeffs[0] == candidate:
                                consistent.add(candidate)
                    assert consistent == set(range(p))
        assert time.monotonic() - started < 5.0


def test_criterion_6_threshold_table():
    with criterion(6, "council sizes 1..5 map to thresholds 1,2,2,3,3 with majority rule"):
        ks = [choose_threshold(n) for n in (1, 2, 3, 4, 5)]
        assert ks == [1, 2, 2, 3, 3]
        for n, k in zip((1, 2, 3, 4, 5), ks):
            assert 2 * k >= n + 1
        assert choose_threshold(3) == 2


def test_criterion_7_maintenance_trigger_boundaries():
    with criterion(7, "exactly n-k departures update locally, n-k+1 re-form, for (3,2) and (5,3)"):
        # (n, k) = (3, 2): the two-cluster fixture's three-head council
        p = reform(two_cluster_seven())
        k = p.cluster(1).k
        health = baseline_health(p.cluster(1))
        assert (health.n0, k) == (3, 2)
        p, health = handle_departure(p, 3, health)
        assert classify_change(health, k) is MaintenanceAction.LOCAL_UPDATE
        p, health = handle_departure(p, 5, health)
        assert classify_change(health, k) is MaintenanceAction.REFORM

        # (n, k) = (5, 3): the ladder fixture's five-head council
        p = reform(size_ladder())
        k = p.cluster(13).k
        health = baseline_health(p.cluster(13))
        assert (health.n0, k) == (5, 3)
        for nid in (14, 15):
            p, health = handle_departure(p, nid, health)
        assert classify_change(health, k) is MaintenanceAction.LOCAL_UPDATE
        p, health = handle_departure(p, 16, health)
        assert classify_change(health, k) is MaintenanceAction.REFORM


def test_criterion_8_share_lifecycle():
    with criterion(8, "issuance equals polynomial evaluation on 100 cases; refresh preserves; epochs guard"):
        p = 13
        rng = random.Random(88)
        for _ in range(100):
            k = rng.randrange(1, 6)
            n = rng.randrange(k, 9)
            coeffs = [rng.randrange(p) for _ in range(k)]
            xs = rng.sample(range(1, p), min(n + 1, p - 1))
            quorum = [Share(x, poly_eval(coeffs, x, p)) for x in xs[:-1]][:k]
            if len(quorum) < k:
                continue
            issued = issue_share(quorum, xs[-1], k, p)
            assert issued.y == poly_eval(coeffs, xs[-1], p)

        shares = split_secret(6, 2, (1, 2, 3), 9, p)
        refreshed = refresh_shares(shares, 2, seed=4, prime=p)
        assert all(s.epoch == 1 for s in refreshed)
        for pair in itertools.combinations(refreshed, 2):
            assert reconstruct(pair, 2, p) == 6
        with pytest.raises(MixedEpoch):
            reconstruct([shares[0], refreshed[1]], 2, p)


def test_criterion_9_deterministic_metrics(tmp_path):
    with criterion(9, "identical scenario and seed give byte-identical metrics CSV"):
        scenario = SCENARIOS / "two_cluster_seven.json"
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run(scenario, out_a)
        run(scenario, out_b)
        assert out_a.read_bytes() == out_b.read_bytes()

        mobile = SCENARIOS / "mobile_demo.json"
        mob_a = tmp_path / "ma.csv"
        mob_b = tmp_path / "mb.csv"
        run(mobile, mob_a)
        run(mobile, mob_b)
        assert mob_a.read_bytes() == mob_b.read_bytes()
