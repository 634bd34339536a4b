"""Undirected network-graph model for wireless topologies.

Node ids are ints >= 1.  A topology is either derived from planar positions
and a shared transmission radius (closed-disk rule: an edge exists iff the
euclidean distance is <= radius) or encoded directly as an explicit edge
list.  The rules for ids, links, numbers, positions and the radius are
written once, below, for the builders, the simulator and the scenario
loader.  Topologies are immutable after construction and every graph
operation is a pure function, so topologies can be shared freely between
concurrent runs.  The one mutable value is a ``neighbor_index``: a set of
some of a topology's nodes, edited with ``add`` and ``discard``, that
answers which of them a node is adjacent to.  It belongs to the caller
that built it.

Every disk topology is a ``_DiskTopology``.  ``build_topology`` returns one
with its links built; ``move_nodes`` returns one whose links are built on
the first read of ``adj``, which a formation, ``edges``, ``neighbors`` and
the graph checks make.  That build starts from the last topology with
built links that it was moved from, when the engine built that one: it
tests only the pairs with a node whose position changed since, and takes
every other link from there.  From a hand-assembled topology it is a full
``build_topology``, with every check.  Either way it is idempotent (two
racing reads build equal links), never touches the topology moved from,
and may list a node's links in another order than a full build, which no
reader of ``adj`` depends on.  A disk topology answers
``hearing_none`` and the lookups of a ``neighbor_index`` from its
positions, with the build's distance test, built or not, so neither the
in-touch scan nor a partition check builds neighbour sets.
The build sweeps horizontal strips sorted by x; an index keeps the nodes
in square cells as wide as those strips are tall, so a lookup tests only
the nine cells around the node.  An edge-list topology's index
intersects the node's links.  That width needs the largest |coordinate|,
the span: a built topology keeps the one its build computed, and a moved
one carries a bound on it, so an index scans all positions only when the
bound could set the width.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse
from operator import itemgetter
from typing import AbstractSet, Collection, Container, Iterable, Mapping, Optional, Sequence

from .errors import DuplicateNid, UnknownNode

NodeId = int
Position = tuple[float, float]

# Largest radius and |coordinate| the disk build accepts.  Within it every
# coordinate difference stays under 2e150, so its square cannot overflow.
MAX_COORDINATE = 1e150


def _unknown_node(u) -> UnknownNode:
    """The one error every lookup raises for an id ``u`` the topology lacks."""
    return UnknownNode(f"node {u} is not in the topology")


@dataclass(frozen=True)
class Topology:
    """A graph stored as its adjacency map, symmetric and loop-free.  ``nodes``
    and ``edges`` (each link once, as ``(min, max)``) are derived from it.
    An edge-list or hand-assembled graph answers every lookup from ``adj``;
    a disk topology is a ``_DiskTopology``.

    Each ``adj`` value is a read-only collection of distinct neighbour ids.
    Both builders store a tuple, which the cyclic collector stops tracking
    once it has seen that the tuple holds only ints; a hand-assembled graph
    may use frozensets.  Every reader passes a value to a set method as an
    iterable, so either kind gives the same answers; ``neighbors`` returns
    a node's links as a frozenset."""

    adj: Mapping[NodeId, Collection[NodeId]]
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
            return [u for u in us if nodes.isdisjoint(adj[u])]
        except KeyError as missing:
            raise _unknown_node(missing.args[0]) from None

    def neighbor_index(self, nodes: Iterable[NodeId]) -> "NeighborIndex":
        """An index of ``nodes`` that answers, as they are added and
        discarded, which of them a node is adjacent to."""
        return _LinkIndex(self, nodes)


class _DiskTopology(Topology):
    """A topology whose links are its positions' disk links.  Those of one
    from ``build_topology`` are built; those of one from ``move_nodes`` are
    built on the first read of ``adj``, from the topology it was moved from
    if the engine built that one, else in full.  ``nodes``,
    ``hearing_none`` and ``neighbor_index`` come from the positions alone,
    with the build's distance test, and build nothing; the links give the
    same answers, since the build applies that test to the same positions.
    So a disk topology is never assembled by hand or by
    ``dataclasses.replace`` of a field, whose links would not be its
    positions' disk links, and whose positions might not be checked; such a
    graph is a plain ``Topology``.
    """

    # Set only by ``move_nodes``: the last topology with built links that
    # this one was moved from, held until this one's links are built, and
    # the base of that build if the engine built it.  Most mobile rounds
    # move the topology and never read its links; were the old topology
    # dropped at the move, each such round would pay to free its links and
    # their cached ``edges``.  Held, they are freed in the round that builds
    # the new links.
    _last_built: Optional[Topology] = None

    # Set only where the engine sweeps the links, by ``build_topology`` and
    # by a build from a base: what that sweep leaves for the next one.  A
    # topology without it is never a base.
    _swept: Optional[_Swept] = None

    @cached_property
    def adj(self) -> Mapping[NodeId, Collection[NodeId]]:
        base = self._last_built
        if getattr(base, "_swept", None) is None:
            # No base: a hand-assembled topology's positions may never have
            # been checked, so the build checks every one.
            links = build_topology(self.positions.items(), self.radius).adj
        else:
            # Racing reads keep the first sweep, so links and record agree.
            swept = _link_strips(self.positions, self._cell, self.radius * self.radius, base)
            links = vars(self).setdefault("_swept", swept)[0]
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
            try:
                ux, uy = positions[u]
            except KeyError:
                raise _unknown_node(u) from None
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
        """The build's strip height for these positions, the cell width of
        every index built on this topology.  The span sets the width only
        when span * 2**-52 tops max(r, 1e-150) (see ``_cell_width``).  A
        bound ``_span`` that does not top it gives the build's width as the
        exact span would, so only one that does costs a pass over all
        positions."""
        r = self.radius
        span = self._span
        if span * 2**-52 > max(r, 1e-150):
            span = _span_of(self.positions)
        return _cell_width(r, span)


class _LinkIndex:
    """A ``NeighborIndex`` answered from a topology's links."""

    def __init__(self, t: Topology, nodes: Iterable[NodeId]) -> None:
        self._t = t
        self._nodes = set(nodes)

    def add(self, v: NodeId) -> None:
        self._nodes.add(v)

    def discard(self, v: NodeId) -> None:
        self._nodes.discard(v)

    def near(self, u: NodeId) -> AbstractSet[NodeId]:
        try:
            return self._nodes.intersection(self._t.adj[u])
        except KeyError:
            raise _unknown_node(u) from None


class _CellIndex:
    """A ``NeighborIndex`` answered from a disk topology's positions.  Each
    node is kept in a square cell as wide as the build's strips are tall,
    so the nodes ``u`` hears lie in the nine cells around ``u``'s, where the
    build's distance test picks them out.  The width is the topology's
    ``_cell``: exactly the strip height a build of its positions would use,
    whether it was built or moved."""

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
        try:
            ux, uy = pos = self._t.positions[u]
        except KeyError:
            raise _unknown_node(u) from None
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
``near(u)`` is a new set of them adjacent to ``u``.  A node never hears
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
    Nodes are bucketed into horizontal strips a hair taller than the
    radius, each sorted by x, and a node is tested only against the nodes
    of its own strip and of the strip above whose x lies within a strip
    height of its own (fixed-radius near neighbours; Bentley, Stanat &
    Williams 1977).  That is exact: every pair the distance test accepts
    is less than the height apart on each axis, so it lies in the same or
    adjacent strips, and ``vx`` lies strictly inside the real interval
    ``ux ± cell``.  Rounding is monotone, so the rounded bounds cannot pass
    ``vx``, and each window keeps its bounds.

    Each pair in range is appended to both endpoints' neighbour lists, and
    each list is copied into a tuple once the strips are freed: O(n + m)
    beyond the pair tests for m links, with no per-link hash, and each list
    is released as its tuple is made.  A tuple of ints is untracked by the
    first collection that sees it, so the built links stop adding to every
    later collection's walk, as frozensets would not.  A node is tested
    against the nodes after it in its own strip, and the nodes of the strip
    above, so each unordered pair is tested once and no list holds a
    repeat.

    Each id, position and the radius are checked by the module's input
    rules (``ValueError`` naming the node or the radius), positions as
    ``move_nodes`` checks its updates.  The topology returned keeps what
    its sweep leaves, so a topology moved from it builds from its links.
    """
    r = _checked_radius(radius)
    positions: dict[NodeId, Position] = {}
    for nid, pos in node_specs:
        _check_nid(nid, positions)
        positions[nid] = _checked_position(nid, pos)
    span = _span_of(positions)
    swept = _link_strips(positions, _cell_width(r, span), r * r)
    built = _DiskTopology(swept[0], positions, r)
    object.__setattr__(built, "_span", span)  # for every index built on it
    object.__setattr__(built, "_swept", swept)  # a base for its moved copies
    return built


# What a sweep leaves for the next one: its links, its stale nodes at their
# positions, and for each other node the number of links at the front of its
# tuple that join it to other non-stale nodes.
_Swept = tuple[dict[NodeId, tuple[NodeId, ...]], Mapping[NodeId, Position], dict[NodeId, int]]


def _link_strips(
    positions: Mapping[NodeId, Position],
    cell: float,
    r2: float,
    base: Optional[_DiskTopology] = None,
) -> _Swept:
    """The disk links of ``positions`` at squared radius ``r2``, each node
    mapped, in ``positions``' order, to a tuple of its neighbours, with what
    a later sweep from them reads.  Every disk build is this sweep.

    With no ``base`` every node is stale: every pair is tested, as
    ``build_topology`` describes.  ``base`` is a topology that the engine
    built from the same nodes in the same order.  A node is stale when its
    position object is not the base's, and every link between two other
    nodes is the base's: each such node's tuple lists those links first.
    If the base's stale nodes were the same, the base recorded how many
    that is, and the front of its tuple is sliced off; otherwise the stale
    ids are dropped from its whole tuple.  Then only the pairs with a stale
    node are tested: the stale nodes sweep their own strips, and each tests
    the other nodes' strips below, level with and above its own.  Nothing
    here checks a position: a base's nodes were checked where they entered,
    by its build or by ``move_nodes``."""
    if base is None:
        stale, front = positions, {}
        found: dict[NodeId, list[NodeId]] = {nid: [] for nid in positions}
    else:
        old, old_stale, front = base._swept
        stale = {u: pos for (u, pos), was in zip(positions.items(), base.positions.values()) if pos is not was}
        if stale.keys() == old_stale.keys():
            found = {u: [] if u in stale else list(old[u][: front[u]]) for u in positions}
        else:
            found = {u: [] if u in stale else list(filterfalse(stale.__contains__, old[u])) for u in positions}
            front = {u: len(vs) for u, vs in found.items() if u not in stale}
    # ``front``'s keys are now the non-stale nodes, each counting the links
    # already in that node's list.
    _sweep(
        _strips(stale.items(), found, cell),
        _strips(((u, positions[u]) for u in front), found, cell),
        cell,
        r2,
    )
    # The strips lived only in that call, so each list is freed as its tuple
    # is made.
    for u, vs in found.items():
        found[u] = tuple(vs)
    return found, stale, front


def _sweep(strips: dict, kept: dict, cell: float, r2: float) -> None:
    """Append each pair within the disk of squared radius ``r2`` that has a
    node in ``strips`` to both nodes' lists: each such node is tested
    against the nodes after it in its strip, those of the strip above, and
    those of ``kept``'s strips below, level with and above its own, each
    within a strip height of its x.  Both are ``_strips`` of height
    ``cell``."""
    # Each window keeps the nodes at exactly ``ux ± cell`` (``bisect_right``
    # above, ``bisect_left`` below).  The bound is rounded, and where the
    # coordinates' ulps are coarse beside the radius it can round to a node
    # less than a cell from ``ux``, which may be linked: at 1e12 and radius
    # 1e-3, 1e12 + cell rounds to 8 ulps, 0.98 r, past 1e12.
    for key, (us, xs) in strips.items():
        above, above_xs = strips.get(key + 1, ((), ()))
        windows = [kept[k] for k in (key - 1, key, key + 1) if k in kept]
        lo = 0
        for i, (ux, uy, u, u_links) in enumerate(us):
            # the nodes after u in its strip, the strip above's window, then
            # the windows of the kept strips below, level and above
            near = us[i + 1:bisect_right(xs, ux + cell, i + 1)]
            if above:
                lo = bisect_left(above_xs, ux - cell, lo)
                near += above[lo:bisect_right(above_xs, ux + cell, lo)]
            for vs, vxs in windows:
                near += vs[bisect_left(vxs, ux - cell):bisect_right(vxs, ux + cell)]
            for vx, vy, v, v_links in near:
                dx = ux - vx
                dy = uy - vy
                if dx * dx + dy * dy <= r2:
                    u_links.append(v)
                    v_links.append(u)


def _strips(
    nodes: Iterable[tuple[NodeId, Position]],
    lists: Mapping[NodeId, list[NodeId]],
    cell: float,
) -> dict[int, tuple[list[tuple[float, float, NodeId, list[NodeId]]], list[float]]]:
    """``nodes`` in horizontal strips ``cell`` tall: each strip's entries
    ``(x, y, nid, the node's list in lists)``, sorted by x, and their xs."""
    strips: dict = {}
    for nid, (x, y) in nodes:
        key = math.floor(y / cell)
        entries = strips.get(key)
        if entries is None:
            entries = strips[key] = []
        entries.append((x, y, nid, lists[nid]))
    for key, entries in strips.items():
        entries.sort(key=itemgetter(0))
        strips[key] = entries, [entry[0] for entry in entries]
    return strips


def _span_of(positions: Mapping[NodeId, Position]) -> float:
    """The largest |coordinate| of ``positions``, 0.0 for none."""
    return max(map(abs, chain.from_iterable(positions.values())), default=0.0)


def _cell_width(r: float, span: float) -> float:
    """The height of the build's strips, and the side of an index's square
    cells, for radius ``r`` and largest |coordinate| ``span``: a hair wider
    than the radius, so that every pair the distance test accepts, rounding
    included, is less than that apart on each axis and lies in the same or
    adjacent strips and cells.  The two floors matter only at extreme
    scales: span * 2**-52 keeps every coordinate / cell quotient below
    2**52 (a tiny radius could overflow it to infinity), and 1e-150 covers
    radii whose square underflows, where the test accepts pairs up to
    ~1e-162 apart."""
    return max(r, span * 2**-52, 1e-150) * (1 + 1e-9)


def _real(value) -> Optional[float]:
    """``value`` as a float if it is a number (a finite int or float, not a bool), else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    # Exact for an int of any size, and false for nan and ±inf.
    return float(value) if abs(value) <= sys.float_info.max else None


def _is_int(value) -> bool:
    """Whether ``value`` is an int, not a bool.  A plain int, the usual case, passes the first test."""
    return type(value) is int or isinstance(value, int) and not isinstance(value, bool)


def _check_nid(nid, seen: Container[NodeId] = ()) -> None:
    """The id rule, ``ValueError`` naming ``nid`` unless it is an int >= 1,
    not a bool; then the distinct-id rule, ``DuplicateNid`` if ``seen``
    already holds it."""
    if not _is_int(nid) or nid < 1:
        raise ValueError(f"node ids must be ints >= 1, got {nid!r}")
    if nid in seen:
        raise DuplicateNid(f"node id {nid} appears more than once")


def _check_link(nodes: Container[NodeId], u, v) -> None:
    """The link rule: ``ValueError`` naming the first endpoint that is no
    node id, then ``UnknownNode`` unless both are in ``nodes``, then
    ``ValueError`` for a self-loop."""
    _check_nid(u)
    _check_nid(v)
    if u not in nodes or v not in nodes:
        raise UnknownNode(f"edge ({u}, {v}) references an unknown node")
    if u == v:
        raise ValueError(f"self-loop on node {u}")


def _checked_radius(radius) -> float:
    """``radius`` as a float, or ``ValueError`` naming it unless it is a
    number in (0, ``MAX_COORDINATE``]."""
    r = _real(radius)
    if r is None or not 0 < r <= MAX_COORDINATE:
        raise ValueError(f"radius must be a number in (0, {MAX_COORDINATE:g}], got {radius!r}")
    return r


def _checked_position(nid: NodeId, pos) -> Position:
    """``pos`` as a tuple of two floats, or ``ValueError`` naming ``nid``
    unless it is a tuple or list of exactly two numbers within
    ±``MAX_COORDINATE``.  A plain tuple of two floats, the usual case, is
    returned as it is."""
    if type(pos) is tuple and len(pos) == 2:
        x, y = pos
        if type(x) is float and type(y) is float and abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE:
            return pos
    if isinstance(pos, (tuple, list)) and len(pos) == 2:
        x, y = map(_real, pos)
        if x is not None and y is not None and abs(x) <= MAX_COORDINATE and abs(y) <= MAX_COORDINATE:
            return x, y
    raise ValueError(f"node {nid} has a position {pos!r}, not two numbers within ±{MAX_COORDINATE:g}")


def move_nodes(t: Topology, updates: Mapping[NodeId, Position]) -> _DiskTopology:
    """``t``, a position-mode topology, with each node of ``updates`` at its
    new position, as a disk topology whose links are not yet built.

    A radius is required: ``t.radius`` is checked as ``build_topology``
    checks its radius, so a hand-assembled topology without one raises
    ``ValueError``, as does an edge-list topology, which has no positions.
    The moved ids and positions are checked here, as ``build_topology``
    checks them (the id rule runs only for a mover that is no plain int or
    not in ``t``); an id outside ``t`` raises ``UnknownNode``.  All checks
    run before anything is built.  The links are built on the first read of
    ``adj``.  When the engine built the links of ``t``, or of the topology
    ``t`` was moved from, the build tests only the pairs with a node moved
    since and takes every other link from those links; each position was
    checked where it entered, and none is checked again.  From a
    hand-assembled ``t``, and from any topology moved on from it, the links
    are built in full, by ``build_topology`` from the moved positions with
    every check, so they agree with the lookups whatever ``t`` was: no link
    of such a ``t`` is carried.  ``t`` is not modified.

    The moved topology carries a bound on its span for the cell width of its
    indexes: the larger of ``t``'s span and the movers' new |coordinates|,
    taken as they are checked.  A node that moves inwards leaves the bound
    above the exact span, which is safe: the width reads the exact span
    whenever the bound could set it.  A hand-assembled ``t`` has no span,
    so the bound is infinite and an index reads every position.
    """
    if t.positions is None:
        raise ValueError("an edge-list topology has no positions to move")
    r = _checked_radius(t.radius)
    positions = dict(t.positions)
    span = t._span if isinstance(t, _DiskTopology) else math.inf
    for nid, pos in updates.items():
        if type(nid) is not int or nid not in positions:
            _check_nid(nid)  # a non-id raises the id rule's error
            if nid not in positions:
                raise _unknown_node(nid)
        x, y = positions[nid] = _checked_position(nid, pos)
        if abs(x) > span or abs(y) > span:
            span = max(abs(x), abs(y))
    moved = object.__new__(_DiskTopology)
    object.__setattr__(moved, "positions", positions)
    object.__setattr__(moved, "radius", r)
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
    becomes a tuple once at the end, untracked by the first collection, as
    ``build_topology``'s are.  Each id, in list order, is checked by the id
    rule and then the distinct-id rule, as ``build_topology`` checks them,
    but only if it fails a plain-int, >= 1 and unseen test.  The first edge
    in list order that breaks the link rule raises its error: an endpoint
    that is no node id, then one outside the node list, then a self-loop.
    The rule runs only for an edge that fails a plain-int, ascending and
    known test, so a good edge costs three type tests beyond its appends.

    Repeated and reversed edges collapse.  Edges in strictly increasing
    order, each a plain tuple ``(u, v)`` of plain ints u < v, as
    ``itertools.combinations`` yields pairs and a sorted scenario file lists
    them, repeat no link, and each list is then kept as appended.  The same
    pass shows that order, one tuple comparison per edge, an iterator's
    too: O(n + m) for n nodes and m listed edges.  Any other edge list (one
    out of order, a reversed or repeated pair, an int subclass or a pair
    that is no tuple) may repeat a link, and each list is deduplicated
    through a frozenset, one hash per listed link.  The tuples hold the same
    ids either way; only their order differs, which no reader of ``adj``
    depends on.
    """
    adj: dict[NodeId, list[NodeId]] = {}
    for u in nodes:
        if type(u) is not int or u < 1 or u in adj:
            _check_nid(u, adj)  # returns only for an unseen int subclass >= 1
        adj[u] = []
    # Whether every edge so far is a plain tuple of plain ints u < v, each
    # greater than the last: such edges spell each link one way, in order,
    # so none can repeat.
    increasing = True
    last = ()
    for edge in edges:
        u, v = edge
        if type(u) is not int or type(v) is not int or u >= v or type(edge) is not tuple:
            _check_link(adj, u, v)  # returns only for a good edge
            increasing = False
        elif increasing:
            increasing = edge > last
            last = edge
        try:
            adj[u].append(v)
            adj[v].append(u)
        except KeyError:
            _check_link(adj, u, v)  # raises UnknownNode
    if increasing:
        return Topology({u: tuple(vs) for u, vs in adj.items()})
    # The frozenset only dedupes: it is made and dropped at once, faster
    # than a ``dict.fromkeys`` pass, and the tuple is what is kept.
    return Topology({u: tuple(frozenset(vs)) for u, vs in adj.items()})


def neighbors(t: Topology, u: NodeId) -> frozenset[NodeId]:
    """Nodes adjacent to u; never contains u itself."""
    try:
        return frozenset(t.adj[u])
    except KeyError:
        raise _unknown_node(u) from None


def two_hop_view(t: Topology, u: NodeId) -> TwoHopView:
    direct = neighbors(t, u)
    adj = t.adj
    via: dict[NodeId, set[NodeId]] = {}
    for relay in direct:
        for w in adj[relay]:
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
    adj = t.adj
    if not members <= adj.keys():
        raise _unknown_node(next(u for u in members if u not in adj))
    return all((members - {u}).issubset(adj[u]) for u in members)


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
        raise _unknown_node(next(u for u in dom if u not in adj))
    return not any(dom.isdisjoint(vs) for u, vs in adj.items() if u not in dom)


def is_connected(t: Topology) -> bool:
    """True iff the graph has one component; an empty graph counts connected.

    A breadth-first walk: each frontier is the C-level union of the last
    frontier's links, less the nodes already seen, O(n + Σdeg) with no
    Python-level step per neighbour.
    """
    adj = t.adj
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = set().union(*map(adj.__getitem__, frontier)) - seen
        seen |= frontier
    return len(seen) == len(adj)
