"""Undirected network-graph model for wireless topologies.

Nodes are positive integer identifiers.  A topology is either derived from
planar positions and a shared transmission radius (closed-disk rule: an edge
exists iff the euclidean distance is <= radius) or encoded directly as an
explicit edge list.  Topologies are immutable after construction and every
graph operation is a pure function, so topologies can be shared freely
between concurrent runs.  The one mutable value is a ``neighbor_index``: a
set of some of a topology's nodes, edited with ``add`` and ``discard``,
that answers which of them a node is adjacent to.  It belongs to the caller
that built it.

Every disk topology is a ``_DiskTopology``.  ``build_topology`` returns one
with its links built; ``move_nodes`` returns one whose links are built in
full, by ``build_topology`` from its positions, on the first read of
``adj`` (which ``edges``, ``neighbors`` and the graph checks make).  That
build is idempotent (two racing reads build equal links) and never touches
the topology moved from.  A disk topology
answers ``hearing_none`` and the lookups of a ``neighbor_index`` from its
positions, with the build's distance test, built or not, so a round that
asks only whether nodes still hear their heads builds no neighbour sets.
Its index keeps the nodes in cells of the build's width, so a lookup tests
only the nine cells around the node; an edge-list topology's index
intersects the node's links.  That width needs the largest |coordinate|,
the span: a built topology keeps the one its build computed, and a moved
one carries a bound on it, so an index scans all positions only when the
bound could set the width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import AbstractSet, Iterable, Mapping, Optional, Sequence

from .errors import DuplicateNid, UnknownNode

NodeId = int
Position = tuple[float, float]

# Largest radius and |coordinate| the disk build accepts.  Within it every
# coordinate difference stays under 2e150, so its square cannot overflow.
MAX_COORDINATE = 1e150


@dataclass(frozen=True)
class Topology:
    """A graph stored as its adjacency map, symmetric and loop-free.  ``nodes``
    and ``edges`` (each link once, as ``(min, max)``) are derived from it.
    An edge-list or hand-assembled graph answers every lookup from ``adj``;
    a disk topology is a ``_DiskTopology``."""

    adj: Mapping[NodeId, frozenset[NodeId]]
    positions: Optional[Mapping[NodeId, Position]] = None
    radius: Optional[float] = None

    @cached_property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.adj)

    @cached_property
    def edges(self) -> frozenset[tuple[NodeId, NodeId]]:
        return frozenset((u, v) for u, vs in self.adj.items() for v in vs if u < v)

    def hearing_none(self, us: Iterable[NodeId], nodes: AbstractSet[NodeId]) -> list[NodeId]:
        """The nodes of ``us`` adjacent to no node of ``nodes``, in order.
        Ids of ``nodes`` outside the topology, and a node itself, are
        adjacent to none; an id of ``us`` outside it raises ``UnknownNode``."""
        adj = self.adj
        try:
            return [u for u in us if adj[u].isdisjoint(nodes)]
        except KeyError as missing:
            raise UnknownNode(f"node {missing.args[0]} is not in the topology") from None

    def neighbor_index(self, nodes: Iterable[NodeId]) -> "NeighborIndex":
        """An index of ``nodes`` that answers, as they are added and
        discarded, which of them a node is adjacent to."""
        return _LinkIndex(self, nodes)


class _DiskTopology(Topology):
    """A topology whose links are its positions' disk links.  Those of one
    from ``build_topology`` are built; those of one from ``move_nodes`` are
    built in full on the first read of ``adj``.  ``nodes``,
    ``hearing_none`` and ``neighbor_index`` come from the positions alone,
    with the build's distance test, and build nothing; the links give the
    same answers, since the build applies that test to the same positions.
    So a disk topology is never assembled by hand or by
    ``dataclasses.replace`` of a field, whose links would not be its
    positions' disk links, and whose positions might not be checked; such a
    graph is a plain ``Topology``.
    """

    # Set only by ``move_nodes``: the last topology with built links that
    # this one was moved from, held until this one's links are built.  Most
    # mobile rounds move the topology and never read its links; were the old
    # topology dropped at the move, each such round would pay to free its
    # links and their cached ``edges``.  Held, they are freed in the round
    # that builds the new links.
    _last_built: Optional[Topology] = None

    @cached_property
    def adj(self) -> Mapping[NodeId, frozenset[NodeId]]:
        links = build_topology(self.positions.items(), self.radius).adj
        object.__setattr__(self, "_last_built", None)
        return links

    @cached_property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.positions)

    def hearing_none(self, us: Iterable[NodeId], nodes: AbstractSet[NodeId]) -> list[NodeId]:
        positions = self.positions
        r2 = self.radius * self.radius
        # Read once per call, not once per node of ``us``.
        near = [(v, pos) for v in nodes if (pos := positions.get(v)) is not None]
        out = []
        for u in us:
            ux, uy = self._position(u)
            for v, (vx, vy) in near:
                dx = ux - vx
                dy = uy - vy
                if dx * dx + dy * dy <= r2 and v != u:
                    break
            else:
                out.append(u)
        return out

    def neighbor_index(self, nodes: Iterable[NodeId]) -> "NeighborIndex":
        return _CellIndex(self, nodes)

    @cached_property
    def _span(self) -> float:
        """The largest |coordinate| of the positions, or an upper bound on
        it.  Exact on a built topology, which keeps the span its build
        computed; on a moved one, the larger of its source's span and its
        movers' new |coordinates|, set by ``move_nodes``.  Computed here only
        for a disk topology neither made."""
        return _span_of(self.positions)

    @cached_property
    def _cell(self) -> float:
        """The build's cell width for these positions, for every index built
        on this topology.  The span sets the width only when span * 2**-52
        tops max(r, 1e-150) (see ``_cell_width``).  A bound ``_span`` that
        does not top it gives the build's width as the exact span would, so
        only one that does costs a pass over all positions."""
        r = self.radius
        span = self._span
        if span * 2**-52 > max(r, 1e-150):
            span = _span_of(self.positions)
        return _cell_width(r, span)

    def _position(self, u: NodeId) -> Position:
        try:
            return self.positions[u]
        except KeyError:
            raise UnknownNode(f"node {u} is not in the topology") from None


class _LinkIndex:
    """A ``NeighborIndex`` answered from a topology's links."""

    def __init__(self, t: Topology, nodes: Iterable[NodeId]) -> None:
        self._t = t
        self._nodes = set(nodes)

    def add(self, v: NodeId) -> None:
        self._nodes.add(v)

    def discard(self, v: NodeId) -> None:
        self._nodes.discard(v)

    def near(self, u: NodeId) -> frozenset[NodeId]:
        return neighbors(self._t, u) & self._nodes


class _CellIndex:
    """A ``NeighborIndex`` answered from a disk topology's positions.  Each
    node is kept in the build's cell for its position, so the nodes ``u``
    hears lie in the nine cells around ``u``'s, where the build's distance
    test picks them out.  The width is the topology's ``_cell``: exactly the
    width a build of its positions would use, whether it was built or
    moved."""

    def __init__(self, t: _DiskTopology, nodes: Iterable[NodeId]) -> None:
        self._t = t
        self._r2 = t.radius * t.radius
        self._cell = cell = t._cell
        self._cells: dict[tuple[int, int], dict[NodeId, Position]] = {}
        positions = t.positions
        for v in nodes:
            pos = positions.get(v)
            if pos is not None:
                key = (math.floor(pos[0] / cell), math.floor(pos[1] / cell))
                bucket = self._cells.get(key)
                if bucket is None:
                    bucket = self._cells[key] = {}
                bucket[v] = pos

    def _key(self, pos: Position) -> tuple[int, int]:
        return math.floor(pos[0] / self._cell), math.floor(pos[1] / self._cell)

    def add(self, v: NodeId) -> None:
        pos = self._t.positions.get(v)
        if pos is not None:
            self._cells.setdefault(self._key(pos), {})[v] = pos

    def discard(self, v: NodeId) -> None:
        pos = self._t.positions.get(v)
        if pos is not None:
            self._cells.get(self._key(pos), {}).pop(v, None)

    def near(self, u: NodeId) -> frozenset[NodeId]:
        ux, uy = pos = self._t._position(u)
        cx, cy = self._key(pos)
        cells = self._cells
        r2 = self._r2
        found = []
        for kx in (cx - 1, cx, cx + 1):
            for ky in (cy - 1, cy, cy + 1):
                for v, (vx, vy) in cells.get((kx, ky), {}).items():
                    dx = ux - vx
                    dy = uy - vy
                    if dx * dx + dy * dy <= r2 and v != u:
                        found.append(v)
        return frozenset(found)


NeighborIndex = _LinkIndex | _CellIndex
"""A set of nodes of one topology, edited by ``add`` and ``discard``, whose
``near(u)`` is the set of them adjacent to ``u``.  A node never hears
itself, ids outside the topology are adjacent to none, and ``near`` of one
raises ``UnknownNode``."""


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


def build_topology(node_specs: Sequence[tuple[NodeId, Position]], radius: float) -> _DiskTopology:
    """Build a topology from (nid, position) pairs under the closed-disk rule.

    The boundary is inclusive: two nodes exactly ``radius`` apart are linked.
    The test is ``dx * dx + dy * dy <= r * r``: each product is correctly
    rounded under IEEE 754, where ``** 2`` goes through the platform's
    ``pow`` and can round differently.
    Nodes are bucketed into square cells a hair wider than the radius, and
    each node is tested only against its own cell and the eight around it
    (fixed-radius near neighbours; Bentley, Stanat & Williams 1977).  Every
    pair the distance test accepts is less than a cell apart on each axis,
    so it lands in the same or adjacent cells and the edge set is exactly
    the all-pairs one.

    Each pair in range is appended to both endpoints' neighbour lists, and
    each list is frozen once at the end: O(n + m) beyond the pair tests for
    m links, with no per-link set insert.  A node is tested against the
    nodes after it in its own cell and those of the forward half of the
    eight cells around it, so each unordered pair is tested once and no
    list holds a repeat.

    Each position is checked as ``move_nodes`` checks its updates: two
    numbers within ±``MAX_COORDINATE``, or ``ValueError`` naming the node.
    """
    _check_radius(radius)
    r = float(radius)
    positions: dict[NodeId, Position] = {}
    for nid, pos in node_specs:
        if nid in positions:
            raise DuplicateNid(f"node id {nid} appears more than once")
        if nid < 1:
            raise ValueError(f"node ids must be >= 1, got {nid}")
        positions[nid] = _checked_position(nid, pos)
    r2 = r * r
    span = _span_of(positions)
    cell = _cell_width(r, span)
    # Each cell lists its nodes as (nid, x, y, the node's neighbour list).
    grid: dict[tuple[int, int], list[tuple[NodeId, float, float, list[NodeId]]]] = {}
    adj: dict[NodeId, list[NodeId]] = {}
    for nid, (x, y) in positions.items():
        key = (math.floor(x / cell), math.floor(y / cell))
        nodes = grid.get(key)
        if nodes is None:
            nodes = grid[key] = []
        links = adj[nid] = []
        nodes.append((nid, x, y, links))
    for (cx, cy), us in grid.items():
        # A cell's nodes, then those of the forward half of its eight
        # neighbours: node i of the cell is tested against the ones after it.
        near = us.copy()
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            vs = grid.get(key)
            if vs is not None:
                near += vs
        for i, (u, ux, uy, u_links) in enumerate(us):
            for v, vx, vy, v_links in near[i + 1:]:
                dx = ux - vx
                dy = uy - vy
                if dx * dx + dy * dy <= r2:
                    u_links.append(v)
                    v_links.append(u)
    built = _DiskTopology({u: frozenset(vs) for u, vs in adj.items()}, positions, r)
    object.__setattr__(built, "_span", span)  # for every index built on it
    return built


def _span_of(positions: Mapping[NodeId, Position]) -> float:
    """The largest |coordinate| of ``positions``, 0.0 for none."""
    return max(map(abs, chain.from_iterable(positions.values())), default=0.0)


def _cell_width(r: float, span: float) -> float:
    """The side of the build's square cells for radius ``r`` and largest
    |coordinate| ``span``: a hair wider than the radius, so that every pair
    the distance test accepts, rounding included, lies in the same or
    adjacent cells.  The two floors matter only at extreme scales: span *
    2**-52 keeps every coordinate / cell quotient below 2**52 (a tiny radius
    could overflow it to infinity), and 1e-150 covers radii whose square
    underflows, where the test accepts pairs up to ~1e-162 apart."""
    return max(r, span * 2**-52, 1e-150) * (1 + 1e-9)


def _check_radius(radius) -> None:
    if radius is None or not 0 < radius <= MAX_COORDINATE:
        raise ValueError(f"radius must be a number in (0, {MAX_COORDINATE:g}], got {radius!r}")


# Values that unpack into two items without being a pair of coordinates: a
# two-character string would be two digits, and a set comes in hash order.
_NOT_A_PAIR = (str, bytes, bytearray, set, frozenset)


def _checked_position(nid: NodeId, pos) -> Position:
    """``pos`` as a pair of floats, or ``ValueError`` naming ``nid`` unless
    it is a pair of two numbers (or values ``float`` takes, such as numeric
    strings) within ±``MAX_COORDINATE``; a string, bytes or a set is no
    pair."""
    try:
        # A tuple, the usual case, skips the type test.
        if type(pos) is not tuple and isinstance(pos, _NOT_A_PAIR):
            raise TypeError
        x, y = pos
        x, y = float(x), float(y)
    except OverflowError:  # an int beyond float range
        x = y = math.inf
    except (TypeError, ValueError):  # not a pair, or a coordinate float refuses
        x = y = math.nan
    if not (abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE):
        raise ValueError(f"node {nid} has a position {pos!r}, not two numbers within ±{MAX_COORDINATE:g}")
    return x, y


def move_nodes(t: Topology, updates: Mapping[NodeId, Position]) -> _DiskTopology:
    """``t``, a position-mode topology, with each node of ``updates`` at its
    new position, as a disk topology whose links are not yet built.

    A radius is required: ``t.radius`` is checked as ``build_topology``
    checks its radius, so a hand-assembled topology without one raises
    ``ValueError``, as does an edge-list topology, which has no positions.
    The moved positions are checked here, as ``build_topology`` checks
    them; a moved id outside ``t`` raises ``UnknownNode``.  All checks run
    before anything is built.  The links are built in full on the first
    read of ``adj``, by ``build_topology`` from the moved positions, so they
    agree with the lookups whatever ``t`` was: no link of a hand-assembled
    ``t`` is carried.  ``t`` is not modified.

    The moved topology carries a bound on its span for the cell width of its
    indexes: the larger of ``t``'s span and the movers' new |coordinates|,
    taken as they are checked.  A node that moves inwards leaves the bound
    above the exact span, which is safe: the width reads the exact span
    whenever the bound could set it.  A hand-assembled ``t`` has no span,
    so the bound is infinite and an index reads every position.
    """
    if t.positions is None:
        raise ValueError("an edge-list topology has no positions to move")
    _check_radius(t.radius)
    positions = dict(t.positions)
    span = t._span if isinstance(t, _DiskTopology) else math.inf
    for nid, pos in updates.items():
        if nid not in positions:
            raise UnknownNode(f"node {nid} is not in the topology")
        x, y = positions[nid] = _checked_position(nid, pos)
        if abs(x) > span or abs(y) > span:
            span = max(abs(x), abs(y))
    moved = object.__new__(_DiskTopology)
    object.__setattr__(moved, "positions", positions)
    object.__setattr__(moved, "radius", t.radius)
    object.__setattr__(moved, "_span", span)
    # An unbuilt ``t`` hands on the topology it holds.
    object.__setattr__(moved, "_last_built", vars(t).get("_last_built") or t)
    return moved


def topology_from_edges(
    nodes: Iterable[NodeId],
    edges: Iterable[tuple[NodeId, NodeId]],
) -> Topology:
    """Build a topology from an explicit node and edge list.

    Each edge is appended to both endpoints' neighbour lists, and each list
    is frozen once at the end: O(n + m) for n nodes and m listed edges, with
    no per-edge set insert.  Repeated and reversed edges collapse when the
    lists are frozen.  The first bad edge in list order raises: a self-loop
    ``ValueError`` or an ``UnknownNode``.
    """
    node_list = list(nodes)
    adj: dict[NodeId, list[NodeId]] = {u: [] for u in node_list}
    if len(adj) != len(node_list):
        raise DuplicateNid("node list contains repeated ids")
    if any(n < 1 for n in adj):
        raise ValueError("node ids must be >= 1")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u not in adj or v not in adj:
            raise UnknownNode(f"edge ({u}, {v}) references an unknown node")
        adj[u].append(v)
        adj[v].append(u)
    return Topology({u: frozenset(vs) for u, vs in adj.items()})


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
    """True iff every node is in d or adjacent to a member of d.

    Tested from the other side, which the symmetric adjacency makes equal:
    every node outside d has a neighbour in d.  Each test is one C-level
    ``isdisjoint`` that stops at its first hit, so the cost is O(n + Σdeg)
    with no Python-level step per neighbour.  A member of d outside the
    topology raises ``UnknownNode``, the first one in ``set(d)``'s order.
    """
    dom = set(d)
    adj = t.adj
    if not dom <= adj.keys():
        neighbors(t, next(u for u in dom if u not in adj))  # raises UnknownNode
    return not any(dom.isdisjoint(vs) for u, vs in adj.items() if u not in dom)


def is_connected(t: Topology) -> bool:
    """True iff the graph has one component; an empty graph counts connected.

    A depth-first walk that adds each visited node's unseen neighbours with
    one C-level set difference: O(n + Σdeg), no Python-level step per
    neighbour.
    """
    adj = t.adj
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        fresh = adj[stack.pop()] - seen
        seen |= fresh
        stack += fresh
    return len(seen) == len(adj)
