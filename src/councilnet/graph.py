"""Undirected network-graph model for wireless topologies.

Nodes are positive integer identifiers.  A topology is either derived from
planar positions and a shared transmission radius (closed-disk rule: an edge
exists iff the euclidean distance is <= radius) or encoded directly as an
explicit edge list.  All values are immutable after construction and every
operation is a pure function, so topologies can be shared freely between
concurrent runs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DuplicateNid, UnknownNode

NodeId = int
Position = tuple[float, float]

# Largest radius and |coordinate| the disk build accepts.  Within it every
# coordinate difference stays under 2e150, so its square cannot overflow.
MAX_COORDINATE = 1e150


@dataclass(frozen=True)
class Topology:
    """A graph stored as its adjacency map, symmetric and loop-free.  ``nodes``
    and ``edges`` (each link once, as ``(min, max)``) are derived from it."""

    adj: Mapping[NodeId, frozenset[NodeId]]
    positions: Optional[Mapping[NodeId, Position]] = None
    radius: Optional[float] = None

    @cached_property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.adj)

    @cached_property
    def edges(self) -> frozenset[tuple[NodeId, NodeId]]:
        return frozenset((u, v) for u, vs in self.adj.items() for v in vs if u < v)


@dataclass(frozen=True)
class TwoHopView:
    """What a node learns from one exchange of neighbour tables: its direct
    neighbours plus every node reachable through exactly one of them.

    A two-hop node may simultaneously be a direct neighbour, so ``direct``
    and the keys of ``via`` can overlap.
    """

    owner: NodeId
    direct: frozenset[NodeId]
    via: Mapping[NodeId, frozenset[NodeId]]


def build_topology(node_specs: Sequence[tuple[NodeId, Position]], radius: float) -> Topology:
    """Build a topology from (nid, position) pairs under the closed-disk rule.

    The boundary is inclusive: two nodes exactly ``radius`` apart are linked.
    Nodes are bucketed into square cells a hair wider than the radius, and
    each node is tested only against its own cell and the eight around it
    (fixed-radius near neighbours; Bentley, Stanat & Williams 1977).  Every
    pair the distance test accepts is less than a cell apart on each axis,
    so it lands in the same or adjacent cells and the edge set is exactly
    the all-pairs one.
    """
    if not 0 < radius <= MAX_COORDINATE:
        raise ValueError(f"radius must be a number in (0, {MAX_COORDINATE:g}], got {radius!r}")
    positions: dict[NodeId, Position] = {}
    for nid, pos in node_specs:
        if nid in positions:
            raise DuplicateNid(f"node id {nid} appears more than once")
        if nid < 1:
            raise ValueError(f"node ids must be >= 1, got {nid}")
        x, y = float(pos[0]), float(pos[1])
        if not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE):
            raise ValueError(f"node {nid} has a position {pos!r} outside ±{MAX_COORDINATE:g}")
        positions[nid] = (x, y)
    r = float(radius)
    r2 = r * r
    # The two floors matter only at extreme scales: span * 2**-52 keeps every
    # coordinate / cell quotient below 2**52 (a tiny radius could overflow it
    # to infinity), and 1e-150 covers radii whose square underflows, where
    # the test accepts pairs up to ~1e-162 apart.
    span = max((abs(c) for xy in positions.values() for c in xy), default=0.0)
    cell = max(r, span * 2**-52, 1e-150) * (1 + 1e-9)
    grid: dict[tuple[int, int], list[tuple[NodeId, float, float]]] = {}
    for nid, (x, y) in positions.items():
        grid.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append((nid, x, y))
    adj: dict[NodeId, set[NodeId]] = {nid: set() for nid in positions}
    for (cx, cy), bucket in grid.items():
        for i, (u, ux, uy) in enumerate(bucket):
            for v, vx, vy in bucket[i + 1:]:
                if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                    adj[u].add(v)
                    adj[v].add(u)
        # Forward half of the eight neighbours: each cell pair is visited once.
        for other in (
            grid.get((cx + 1, cy - 1)),
            grid.get((cx + 1, cy)),
            grid.get((cx + 1, cy + 1)),
            grid.get((cx, cy + 1)),
        ):
            if other is None:
                continue
            for u, ux, uy in bucket:
                for v, vx, vy in other:
                    if (ux - vx) ** 2 + (uy - vy) ** 2 <= r2:
                        adj[u].add(v)
                        adj[v].add(u)
    return Topology({u: frozenset(vs) for u, vs in adj.items()}, positions, r)


def topology_from_edges(
    nodes: Iterable[NodeId],
    edges: Iterable[tuple[NodeId, NodeId]],
    positions: Optional[Mapping[NodeId, Position]] = None,
    radius: Optional[float] = None,
) -> Topology:
    """Build a topology from an explicit node and edge list (positions optional)."""
    node_list = list(nodes)
    adj: dict[NodeId, set[NodeId]] = {u: set() for u in node_list}
    if len(adj) != len(node_list):
        raise DuplicateNid("node list contains repeated ids")
    if any(n < 1 for n in adj):
        raise ValueError("node ids must be >= 1")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u not in adj or v not in adj:
            raise UnknownNode(f"edge ({u}, {v}) references an unknown node")
        adj[u].add(v)
        adj[v].add(u)
    return Topology({u: frozenset(vs) for u, vs in adj.items()}, positions, radius)


def neighbors(t: Topology, u: NodeId) -> frozenset[NodeId]:
    """Nodes adjacent to u; never contains u itself."""
    try:
        return t.adj[u]
    except KeyError:
        raise UnknownNode(f"node {u} is not in the topology") from None


def two_hop_view(t: Topology, u: NodeId) -> TwoHopView:
    direct = neighbors(t, u)
    via: dict[NodeId, set[NodeId]] = {}
    for relay in direct:
        for w in neighbors(t, relay):
            if w != u:
                via.setdefault(w, set()).add(relay)
    return TwoHopView(u, direct, {w: frozenset(rs) for w, rs in via.items()})


def triangles(view: TwoHopView) -> frozenset[frozenset[NodeId]]:
    """Triangles through the view's owner, detected from the view alone.

    A direct neighbour that is also reported as a two-hop node closes a
    triangle with each relay that reported it.
    """
    found = set()
    for w, relays in view.via.items():
        if w in view.direct:
            for relay in relays:
                found.add(frozenset((view.owner, relay, w)))
    return frozenset(found)


def is_clique(t: Topology, s: Iterable[NodeId]) -> bool:
    """True iff every unordered pair in s is an edge; true for |s| <= 1."""
    members = set(s)
    adjacent = {u: neighbors(t, u) for u in members}  # raises for any unknown member
    return all(members - {u} <= vs for u, vs in adjacent.items())


def is_dominating_set(t: Topology, d: Iterable[NodeId]) -> bool:
    """True iff every node is in d or adjacent to a member of d."""
    dom = set(d)
    return dom.union(*(neighbors(t, u) for u in dom)) >= t.nodes


def is_connected(t: Topology) -> bool:
    """True iff the graph has one component; an empty graph counts connected."""
    if not t.nodes:
        return True
    start = next(iter(t.nodes))
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in neighbors(t, u):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(t.nodes)
