"""Seeded scenario generator for the benchmark workloads.

This module imports nothing from ``councilnet``: it has its own closed-disk
and connectivity code, so a change to the program cannot change the inputs
it is measured on.  Each generator takes the workload seed and returns a
plain scenario dict in the format ``councilnet.sim.scenario_from_dict``
reads.  The same seed always gives the same dict.

Why each parameter was chosen is written next to it.
"""

from __future__ import annotations

import math
import random
from collections import deque

# Largest round count a scenario allows.  A run steps a fixed number of
# rounds well below it (see run.py).
ROUND_CAP = 400


def connectivity_radius(n: int) -> float:
    """Disk radius of ``councilnet.topologies.random_connected`` for n nodes in
    the unit square (1.8 x the asymptotic connectivity threshold), restated
    here so the generator does not depend on the program."""
    return 1.8 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))


def disk_edges(points: dict[int, tuple[float, float]], radius: float) -> list[tuple[int, int]]:
    """Closed-disk edges (distance <= radius), bucketed on a radius-sized grid.

    The distance test is written exactly as the program's pairwise build
    writes it, so boundary cases round the same way.
    """
    r2 = radius * radius
    cells: dict[tuple[int, int], list[int]] = {}
    for nid in sorted(points):
        x, y = points[nid]
        cells.setdefault((math.floor(x / radius), math.floor(y / radius)), []).append(nid)
    edges = []
    for (cx, cy), members in cells.items():
        near = [
            v
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for v in cells.get((cx + dx, cy + dy), ())
        ]
        for u in members:
            ux, uy = points[u]
            for v in near:
                if v <= u:
                    continue
                vx, vy = points[v]
                if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                    edges.append((u, v))
    edges.sort()
    return edges


def connected(nodes, edges) -> bool:
    adj: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def _connected_placement(rng: random.Random, n: int, radius: float):
    """Uniform points in the unit square, redrawn until the disk graph is connected."""
    for _ in range(100):
        points = {nid: (rng.random(), rng.random()) for nid in range(1, n + 1)}
        edges = disk_edges(points, radius)
        if connected(points, edges):
            return points, edges
    raise RuntimeError(f"no connected placement of {n} nodes at radius {radius}")


def waypoint_1k(seed: int) -> dict:
    """Position mode, 1000 nodes, 30% random-waypoint movers.

    - n = 1000: the size ROADMAP aim 1 quotes for a mobile round.
    - radius 1.3 x the connectivity radius: at 1.0 x, waypoint runs halt on
      disconnection within tens of rounds (ROADMAP item 3); 1.3 x keeps the
      run in the connected regime, so the benchmark times working rounds.
      A halt is still counted as failed rounds and never re-seeded away.
    - 30% movers, speed radius / 4 per round: enough link churn that rounds
      mix local updates and re-formations.  16 waypoints each keep movers
      moving for about 300 rounds on average; with 8 they start to park
      after about 150 rounds, and late rounds of a long run get cheaper.
    - HELLO every round, refresh every 4 rounds, adversary holds 5% of the
      nodes from round 2: every maintenance, sharing and audit path runs.
    """
    n = 1000
    rng = random.Random(f"waypoint-1k:{seed}")
    radius = 1.3 * connectivity_radius(n)
    points, _ = _connected_placement(rng, n, radius)
    movers = set(rng.sample(sorted(points), n * 3 // 10))
    nodes = []
    for nid in sorted(points):
        entry = {"nid": nid, "pos": list(points[nid])}
        if nid in movers:
            entry["waypoints"] = [[rng.random(), rng.random()] for _ in range(16)]
            entry["speed"] = radius / 4
        nodes.append(entry)
    return {
        "seed": seed,
        "rounds": ROUND_CAP,
        "radius": radius,
        "hello_interval_rounds": 1,
        "refresh_interval_rounds": 4,
        "nodes": nodes,
        "adversary": {"compromise_round": 2, "nodes": sorted(rng.sample(sorted(points), n // 20))},
    }


def static_5k(seed: int) -> dict:
    """Edge-list mode: the edges of a connected 5000-node unit-disk graph.

    - n = 5000 at the connectivity radius gives about 190 clusters, so the
      per-cluster scans (HELLO tables, verify_partition, maintenance) are
      large, while the disk test and all departures are bypassed.
    - Refresh every round and an adversary holding every 7th node keep the
      sharing and audit layers busy at the large default prime, where the
      exhaustive audit is skipped.
    """
    n = 5000
    rng = random.Random(f"static-5k:{seed}")
    points, edges = _connected_placement(rng, n, connectivity_radius(n))
    return {
        "seed": seed,
        "rounds": ROUND_CAP,
        "hello_interval_rounds": 1,
        "refresh_interval_rounds": 1,
        "nodes": [{"nid": nid} for nid in sorted(points)],
        "edges": [list(e) for e in edges],
        "adversary": {"compromise_round": 1, "nodes": [nid for nid in sorted(points) if nid % 7 == 0]},
    }


def _clique(nodes) -> list[tuple[int, int]]:
    nodes = sorted(nodes)
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]


def audit_p17(seed: int) -> dict:
    """Edge-list mode, 16 nodes over GF(17): the exhaustive audit dominates.

    Two 7-cliques {1..7} and {9..15} are bridged by node 8 (adjacent to 7
    and 9); node 16 hangs off 15.  Formation yields two 7-head councils
    (k = 4) with gateways 8 and 16.  Node ids stop at 16 because the field
    prime must exceed every id.  The seed picks which council the adversary
    under-holds (2 heads, below k) and which it breaches (4 heads, at k),
    which heads those are, and the simulator's own seed, so both audit
    branches enumerate 17**4 polynomials every round.
    """
    rng = random.Random(f"audit-p17:{seed}")
    a, b = list(range(1, 8)), list(range(9, 16))
    edges = _clique(a) + _clique(b) + [(7, 8), (8, 9), (15, 16)]
    under, breached = (a, b) if rng.random() < 0.5 else (b, a)
    held = rng.sample(under, 2) + rng.sample(breached, 4)
    return {
        "seed": seed,
        "rounds": ROUND_CAP * 10,
        "field_prime": 17,
        "hello_interval_rounds": 1,
        "refresh_interval_rounds": 1,
        "nodes": [{"nid": nid} for nid in range(1, 17)],
        "edges": [list(e) for e in sorted(edges)],
        "adversary": {"compromise_round": 1, "nodes": sorted(held)},
    }


WORKLOADS = {
    "waypoint-1k": waypoint_1k,
    "static-5k": static_5k,
    "audit-p17": audit_p17,
}
