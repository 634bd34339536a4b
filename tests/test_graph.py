import gc
import itertools
import math
import random
import sys
import threading
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graph_oracle as oracle
from councilnet import graph
from councilnet.errors import CouncilNetError, DuplicateNid, UnknownNode
from councilnet.graph import (
    Topology,
    build_topology,
    is_clique,
    is_connected,
    is_dominating_set,
    move_nodes,
    neighbors,
    topology_from_edges,
    triangles,
    two_hop_view,
)
from councilnet.topologies import random_connected, star, triangle


def path3():
    return topology_from_edges([1, 2, 3], [(1, 2), (2, 3)])


def random_edge_topology(n, edge_mask):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [pair for i, pair in enumerate(pairs) if edge_mask & (1 << i)]
    return topology_from_edges(range(1, n + 1), edges), set(edges)


def outcome(build, nodes, edges):
    """What ``build`` gives: the adjacency map's items in key order, or the
    type and message of what it raised."""
    try:
        return list(build(nodes, edges).adj.items())
    except (CouncilNetError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def edge_lists(draw):
    """A node list and an edge list over it.

    The node list is usually a permutation of 1..n, else any ids from -1 to
    12, repeats and ids < 1 included.  Edges are drawn with repeats, each
    either way round, and about half the time one or two bad ones are
    spliced in anywhere: self-loops on listed or unlisted ids, and endpoints
    that are not listed.
    """
    if draw(st.integers(0, 3)):
        nodes = draw(st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
    else:
        nodes = draw(st.lists(st.integers(-1, 12), max_size=12))
    pairs = list(itertools.combinations(sorted(set(nodes)), 2))
    links = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=30)) if pairs else []
    edges = [(v, u) if flip else (u, v) for (u, v), flip in links]
    ids = st.sampled_from(nodes) if nodes else st.integers(1, 3)
    bad = st.one_of(
        st.integers(-1, 15).map(lambda u: (u, u)),
        st.tuples(ids, st.integers(13, 15)),
        st.tuples(st.integers(-1, 0), ids),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return list(nodes), edges


RADII = [0.25, 1.0, 3.0, 5.0, 7.5]


def coordinates(radius):
    return st.one_of(
        # multiples of the radius: points on cell lines, axis pairs exactly r apart
        st.integers(-6, 6).map(lambda k: k * radius),
        # integer lattice: 3-4-5 diagonals exactly r apart when r = 5
        st.integers(-30, 30).map(float),
        st.floats(-6 * radius, 6 * radius, allow_nan=False),
    )


@st.composite
def disk_layouts(draw):
    radius = draw(st.sampled_from(RADII))
    coord = coordinates(radius)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    nids = draw(st.permutations(range(1, len(points) + 1)))
    return list(zip(nids, points)), radius


@st.composite
def mover_runs(draw):
    """A disk layout and one to five rounds of updates to it, as
    ``(specs, radius, rounds)``; each round is ``(updates, read, probes)``.

    Movers go onto a cell line or the lattice, onto another node, back to
    where they started, or to exactly r from another node on an axis or a
    3-4-5 diagonal; a mover may park (drop out of later updates), and an
    update may be empty or name a node at its own position.  ``read`` says
    whether the round's links are read before the next round moves on, so
    some moved topologies hold a built topology several rounds old.
    ``probes`` are node sets for ``hearing_none`` and ``neighbor_index``,
    ids outside the topology included.
    """
    specs, radius = draw(disk_layouts())
    coord = coordinates(radius)
    start = dict(specs)
    layout = dict(start)
    ids = sorted(layout)
    movers = draw(st.sets(st.sampled_from(ids)))
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        if movers and draw(st.integers(0, 3)) == 0:
            movers.discard(draw(st.sampled_from(sorted(movers))))  # parks
        updates = {}
        others = sorted(layout.values())
        for nid in sorted(movers):
            how = draw(st.sampled_from(["coord", "onto", "back", "apart", "stay"]))
            if how == "coord":
                updates[nid] = draw(st.tuples(coord, coord))
            elif how == "onto":
                updates[nid] = draw(st.sampled_from(others))
            elif how == "back":
                updates[nid] = start[nid]
            elif how == "apart":
                ox, oy = draw(st.sampled_from(others))
                dx, dy = draw(st.sampled_from([(1, 0), (0, -1), (0.6, 0.8), (-0.8, 0.6)]))
                updates[nid] = (ox + dx * radius, oy + dy * radius)
            else:
                updates[nid] = layout[nid]
        layout.update(updates)
        probe = st.sets(st.sampled_from(ids + [0, len(ids) + 1]), max_size=6)
        rounds.append((updates, draw(st.booleans()), draw(st.lists(probe, min_size=1, max_size=3))))
    return specs, radius, rounds


@st.composite
def index_runs(draw):
    """A disk layout, the nodes of an index on it and edits to that index,
    as ``(specs, radius, nodes, edits)``; each edit is ``("add", nid)`` or
    ``("discard", nid)``.

    A layout is one of three kinds.  Points on a 0.25 grid at radius 1.0,
    some nudged one ulp down, so that pairs lie exactly r apart or are
    accepted at r by rounding across a cell line.  Points within a few radii
    of ±(1e150 - 4r), or of 0, at radii from 1e-320 to 1e140, where the
    span floors set the cell.  Or any ``disk_layouts`` layout.  A lone node
    may be added far from the rest.  Nodes and edits name ids outside the
    topology too.
    """
    kind = draw(st.sampled_from(["grid", "extreme", "any"]))
    if kind == "grid":
        radius = 1.0
        coord = st.builds(
            lambda k, nudge: math.nextafter(k * 0.25, -math.inf) if nudge else k * 0.25,
            st.integers(-12, 12),
            st.booleans(),
        )
        points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
        lone = (10.0, -10.0)
    elif kind == "extreme":
        radius = 10.0 ** draw(st.integers(-320, 140))
        offset = draw(st.sampled_from([1.0, -1.0, 0.0])) * (graph.MAX_COORDINATE - 4 * radius)
        unit = st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3))
        units = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=30))
        points = [(offset + x * radius, offset + y * radius) for x, y in units]
        lone = (-offset or graph.MAX_COORDINATE, -offset or graph.MAX_COORDINATE)
    else:
        specs, radius = draw(disk_layouts())
        points = [pos for _, pos in sorted(specs)]
        lone = (200.0 * radius, 0.0)
    if draw(st.booleans()):
        points.append(lone)
    specs = list(enumerate(points, start=1))
    ids = st.sampled_from(list(range(len(specs) + 2)))
    nodes = draw(st.sets(ids))
    edits = draw(st.lists(st.tuples(st.sampled_from(["add", "discard"]), ids), max_size=12))
    return specs, radius, nodes, edits


# Positions that are not two numbers within ±MAX_COORDINATE: not finite,
# beyond the bound, a coordinate that float() refuses, or not a pair.  A
# string, bytes or a set unpacks into two items, but is no pair either.
BAD_POSITIONS = [
    (math.nan, 0.0),
    (0.0, math.inf),
    (-math.inf, 1.0),
    (1e200, 0.0),
    (0.0, -1.1e150),
    (10**400, 0),
    ("east", 0.0),
    (None, 0.0),
    (1 + 0j, 0.0),
    (0.0,),
    (0.0, 0.0, 5.0),
    "12",
    b"12",
    bytearray(b"12"),
    {0.5, 1.0},
    frozenset({0.5, 1.0}),
]


class TestBuildTopology:
    def test_boundary_distance_is_inclusive(self):
        t = build_topology([(1, (0.0, 0.0)), (2, (5.0, 0.0))], radius=5.0)
        assert t.edges == frozenset({(1, 2)})
        # glibc 2.36's pow rounds r ** 2 one ulp above r * r for this radius
        r = 0.7261311075160078
        t = build_topology([(1, (0.0, 0.0)), (2, (r, 0.0))], radius=r)
        assert t.edges == frozenset({(1, 2)})

    def test_single_node_has_no_edges(self):
        t = build_topology([(1, (2.0, 3.0))], radius=1.0)
        assert t.edges == frozenset()

    def test_collinear_spacing_gives_path(self):
        # distance(1,3) = 2r > r, so only the consecutive pairs link up
        t = build_topology([(1, (0.0, 0.0)), (2, (4.0, 0.0)), (3, (8.0, 0.0))], radius=4.0)
        assert t.edges == frozenset({(1, 2), (2, 3)})

    def test_duplicate_nid_rejected(self):
        with pytest.raises(DuplicateNid):
            build_topology([(1, (0.0, 0.0)), (1, (1.0, 0.0))], radius=1.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            build_topology([(1, (0.0, 0.0))], radius=0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 1.1e150, 1e300])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            build_topology([(1, (0.0, 0.0)), (2, (1.0, 0.0))], radius=radius)

    @pytest.mark.parametrize("pos", BAD_POSITIONS)
    def test_non_finite_coordinate_rejected(self, pos):
        with pytest.raises(ValueError, match="node 2"):
            build_topology([(1, (0.0, 0.0)), (2, pos)], radius=1.0)

    def test_radius_and_coordinates_at_the_bound_are_accepted(self):
        # squared differences up to (2e150)**2 stay finite
        t = build_topology([(1, (0.0, 0.0)), (2, (1e150, 0.0)), (3, (-1e150, 0.0))], radius=1e150)
        assert t.edges == frozenset({(1, 2), (1, 3)})

    @given(disk_layouts())
    @example(([(1, (0.0, 0.0)), (2, (5.0, 0.0)), (3, (0.0, -5.0)), (4, (3.0, 4.0))], 5.0))
    @example(([(3, (-3.0, -4.0)), (1, (0.0, 0.0)), (2, (0.0, 0.0)), (4, (-10.0, -5.0))], 5.0))
    # accepted at r + 1e-16 by rounding, from cell -1 to cell 1 of width exactly r
    @example(([(1, (-1e-16, 0.0)), (2, (5.0, 0.0))], 5.0))
    @settings(max_examples=300, deadline=None)
    def test_grid_build_matches_pairwise_oracle(self, layout):
        specs, radius = layout
        t = build_topology(specs, radius)
        assert t == oracle.build_topology(specs, radius)
        for u, vs in t.adj.items():
            assert u not in vs
            assert all(u in t.adj[v] for v in vs)

    @given(
        st.integers(-200, 140),
        st.floats(-1e12, 1e12),
        st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=2, max_size=12),
    )
    # squares underflow to 0: the test accepts a pair 1e5 radii apart
    @example(-170, 0.0, [(0.0, 0.0), (1e5, 0.0)])
    # coordinate / radius quotients overflow a float at the coordinate bound
    @example(-300, 1e150, [(0.0, 0.0), (1.0, 0.0), (1e290, 0.0)])
    @settings(max_examples=300, deadline=None)
    def test_grid_build_is_exact_at_extreme_scales(self, exponent, offset, unit_points):
        # Points sit near ``offset`` within a few radii of one another.  Drawn
        # coordinates stay below ~1e141, inside the 1e150 coordinate bound.
        radius = 10.0 ** exponent
        specs = [
            (nid, (offset + x * radius, offset + y * radius))
            for nid, (x, y) in enumerate(unit_points, start=1)
        ]
        assert build_topology(specs, radius).edges == oracle.build_topology(specs, radius).edges

    def test_build_stores_each_position_as_floats(self):
        # node 1 is given as a list, node 2 as ints and node 3 as a numeric
        # string and a bool, which float() takes
        t = build_topology([(1, [0, 0]), (2, (1, 0)), (3, ("0.5", True))], 1.5)
        moved = move_nodes(t, {2: [1, 1]})
        assert t.positions == {1: (0.0, 0.0), 2: (1.0, 0.0), 3: (0.5, 1.0)}
        assert moved.positions == {1: (0.0, 0.0), 2: (1.0, 1.0), 3: (0.5, 1.0)}
        for pos in [*t.positions.values(), *moved.positions.values()]:
            assert type(pos) is tuple and {type(c) for c in pos} == {float}
        assert t.adj == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}

    def test_random_connected_matches_pairwise_oracle(self):
        t = random_connected(1500, seed=11)
        assert t.edges == oracle.build_topology(t.positions.items(), t.radius).edges

    @given(edge_lists())
    # the first bad edge in list order wins: a self-loop before an unknown endpoint ...
    @example(([1, 2, 3], [(1, 2), (2, 2), (1, 9), (3, 1)]))
    # ... and an unknown endpoint before a self-loop
    @example(([1, 2, 3], [(1, 2), (1, 9), (2, 2), (3, 1)]))
    # repeated ids are reported before ids < 1
    @example(([2, 0, 2], [(2, 0)]))
    @settings(max_examples=400, deadline=None)
    def test_edge_list_build_matches_set_per_node_oracle(self, inputs):
        nodes, edges = inputs
        assert outcome(topology_from_edges, nodes, edges) == outcome(oracle.topology_from_edges, nodes, edges)

    def test_edge_list_constructor_normalises(self):
        t = topology_from_edges([1, 2, 3], [(3, 1)])
        assert t.edges == frozenset({(1, 3)})

    def test_edge_list_rejects_unknown_endpoint(self):
        with pytest.raises(UnknownNode):
            topology_from_edges([1, 2], [(1, 9)])

    def test_edge_list_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            topology_from_edges([1, 2], [(1, 1)])


class TestMoveNodes:
    @given(mover_runs())
    # 2 moves to exactly r from 1, then parks while 3 moves; nothing is read
    # between the rounds, so only the last topology builds
    @example(
        (
            [(1, (0.0, 0.0)), (2, (9.0, 0.0)), (3, (0.0, 9.0))],
            5.0,
            [({2: (3.0, 4.0)}, False, [{2, 3}]), ({3: (0.0, 5.0)}, False, [{1}]), ({}, True, [{1, 4}])],
        )
    )
    # 2 leaves 1's range while 3 moves onto a 3-4-5 diagonal exactly r from 1
    @example(
        (
            [(1, (0.0, 0.0)), (2, (5.0, 0.0)), (3, (20.0, 0.0))],
            5.0,
            [({2: (10.0, 0.0), 3: (3.0, 4.0)}, True, [{1}, {2, 3}])],
        )
    )
    # 3 and 5 move, then 5 parks while 3 keeps moving
    @example(
        (
            [(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (2.0, 0.0)), (4, (3.0, 0.0)), (5, (5.0, 0.0))],
            2.0,
            [
                ({3: (2.0, 1.0), 5: (4.0, 1.0)}, True, [{3, 5}]),
                ({3: (1.0, 1.5), 5: (4.0, 0.5)}, False, [{1, 4}]),
                ({3: (1.0, 1.0)}, True, [{5}]),
                ({3: (0.0, 1.0)}, True, [{2, 6}]),
            ],
        )
    )
    # 5 leaves everyone's range while 3 moves, then 3 keeps moving
    @example(
        (
            [(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (2.0, 0.0)), (4, (3.0, 0.0)), (5, (5.0, 0.0))],
            2.0,
            [
                ({3: (2.0, 1.0), 5: (50.0, 0.0)}, True, [{5}]),
                ({3: (1.0, 1.5)}, True, [{1, 2, 4}]),
                ({3: (3.0, 1.0)}, False, [{3}]),
                ({3: (2.0, 2.0)}, True, [{0, 4}]),
            ],
        )
    )
    @settings(max_examples=250, deadline=None)
    def test_moved_topology_matches_a_full_build(self, run):
        specs, radius, rounds = run
        previous = build_topology(specs, radius)
        positions = dict(previous.positions)
        unknown = len(positions) + 1
        moved = []
        for updates, read, probes in rounds:
            before = dict(previous.positions), vars(previous).get("adj")
            t = move_nodes(previous, updates)
            assert (dict(previous.positions), vars(previous).get("adj")) == before
            positions.update((nid, (float(x), float(y))) for nid, (x, y) in updates.items())
            full = build_topology(sorted(positions.items()), radius)
            assert t.positions == full.positions and t.nodes == full.nodes
            for built in (False, True):
                if built:
                    if not read:
                        break
                    assert t.adj == full.adj and t == full and full == t
                    assert t.edges == oracle.build_topology(positions.items(), radius).edges
                    for u in positions:
                        assert neighbors(t, u) == full.adj[u]
                    with pytest.raises(UnknownNode):
                        neighbors(t, unknown)
                # Both lookups read positions, built or not, so the expected
                # answers come from the full build's links.
                everyone = t.neighbor_index(positions)
                # cells of the full build's width, though the span is carried
                assert everyone._cell == graph._cell_width(full.radius, graph._span_of(positions))
                indexes = [(t.neighbor_index(probe), probe) for probe in probes]
                for u in positions:
                    assert everyone.near(u) == full.adj[u]
                    for index, probe in indexes:
                        assert index.near(u) == full.adj[u] & probe
                for probe in probes:
                    deaf = [u for u in positions if full.adj[u].isdisjoint(probe)]
                    assert t.hearing_none(positions, probe) == deaf
                assert ("adj" in vars(t)) == built  # the lookups build nothing
                with pytest.raises(UnknownNode, match=f"node {unknown} "):
                    t.hearing_none([*positions, unknown], set(positions))
                with pytest.raises(UnknownNode):
                    everyone.near(unknown)
            moved.append((t, full))
            previous = t
        # A topology left unread builds its own positions' links, whatever
        # moved since.
        for t, full in reversed(moved):
            assert t.adj == full.adj

    @given(mover_runs())
    @settings(max_examples=50, deadline=None)
    def test_bad_mover_position_raises_when_moved(self, run):
        specs, radius, rounds = run
        previous = build_topology(specs, radius)
        for updates, _, _ in rounds:
            nid = specs[len(updates) % len(specs)][0]
            for bad in BAD_POSITIONS:
                with pytest.raises(ValueError, match=f"node {nid} "):
                    move_nodes(previous, {**updates, nid: bad})
            previous = move_nodes(previous, updates)

    def test_racing_readers_agree_with_a_full_build(self):
        # Threads share one moved topology: some look nodes up, some read
        # the links, so lookups and the build interleave.
        first = random_connected(300, seed=4)
        rng = random.Random(4)
        updates = {nid: (rng.random(), rng.random()) for nid in rng.sample(sorted(first.nodes), 90)}
        full = build_topology(sorted({**first.positions, **updates}.items()), first.radius)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(100):
                t = move_nodes(first, updates)
                seen = []

                def read(links):
                    if links:
                        seen.append(dict(t.adj))
                    else:
                        index = t.neighbor_index(full.adj)
                        seen.append({u: index.near(u) for u in sorted(full.adj)})

                threads = [threading.Thread(target=read, args=(i % 2,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 6 and all(adj == full.adj for adj in seen)
        finally:
            sys.setswitchinterval(interval)

    def test_unknown_mover_and_edge_list_are_refused(self):
        t = build_topology([(1, (0.0, 0.0)), (2, (1.0, 0.0))], 2.0)
        with pytest.raises(UnknownNode):
            move_nodes(t, {3: (0.0, 0.0)})
        with pytest.raises(ValueError, match="edge-list"):
            move_nodes(path3(), {1: (0.0, 0.0)})
        with pytest.raises(ValueError, match="radius must be"):
            move_nodes(Topology(t.adj, t.positions), {2: (0.5, 0.0)})

    def test_a_hand_assembled_topology_moves_to_its_disk_links(self):
        # Nodes 1 and 2 are 3.0 apart at radius 1.0, yet linked by hand: a
        # move builds in full from such a topology, so the extra link goes
        # and the links agree with the lookups, which read the positions.
        specs = [(1, (0.0, 0.0)), (2, (3.0, 0.0)), (3, (0.5, 0.0))]
        built = build_topology(specs, 1.0)
        edges = topology_from_edges([1, 2, 3], built.edges | {(1, 2)})
        hand = Topology(edges.adj, built.positions, built.radius)
        moved = move_nodes(hand, {3: (0.6, 0.0)})
        moved_specs = [(1, (0.0, 0.0)), (2, (3.0, 0.0)), (3, (0.6, 0.0))]
        full = build_topology(moved_specs, 1.0)

        def lookups():
            return moved.hearing_none([1], {2}), moved.neighbor_index({2, 3}).near(1)

        assert lookups() == ([1], {3})
        assert moved.adj == full.adj and moved.adj[1] == {3}
        assert lookups() == ([1], {3}) and moved == full

    def test_a_moved_topology_builds_once_in_full_when_read(self, monkeypatch):
        # Neither moved topology is read until the second: reading it makes
        # one full build, from its positions and radius alone.
        calls = []
        build = build_topology

        def counted(*args, **kwargs):
            calls.append((args[2:], kwargs))
            return build(*args, **kwargs)

        first = build_topology([(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (9.0, 0.0))], 2.0)
        monkeypatch.setattr(graph, "build_topology", counted)
        middle = move_nodes(first, {3: (8.0, 0.0)})
        last = move_nodes(middle, {3: (7.0, 0.0)})
        assert last.neighbor_index({2, 3}).near(1) == {2} and last.hearing_none([1, 3], {1, 2}) == [3]
        assert calls == []
        assert last.adj == {1: {2}, 2: {1}, 3: set()}
        assert calls == [((), {})]
        assert "adj" not in vars(middle)

    def test_a_chain_of_unread_moves_holds_one_built_topology(self):
        # Each moved topology holds the last topology with built links that
        # it came from, until its own links are read: a chain of unread
        # moves keeps that one alive, and nothing older or in between.
        first = build_topology([(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (9.0, 0.0))], 2.0)
        read = move_nodes(first, {3: (8.0, 0.0)})
        assert read.edges == {(1, 2)}
        refs = [weakref.ref(first), weakref.ref(read)]
        t = read
        for x in (7.0, 6.0):
            t = move_nodes(t, {3: (x, 0.0)})
            refs.append(weakref.ref(t))
        del first, read
        gc.collect()
        assert [ref() is not None for ref in refs] == [False, True, False, True]
        assert t.adj == {1: {2}, 2: {1}, 3: set()}
        gc.collect()
        assert [ref() is not None for ref in refs] == [False, False, False, True]


class TestNeighbors:
    def test_triangle(self):
        assert neighbors(triangle(), 1) == frozenset({2, 3})

    def test_isolated_node(self):
        t = topology_from_edges([1], [])
        assert neighbors(t, 1) == frozenset()

    def test_path_midpoint(self):
        assert neighbors(path3(), 2) == frozenset({1, 3})

    def test_lookups_among_given_nodes(self):
        # a node never hears itself, and ids outside the topology hear nobody
        t = path3()
        assert t.hearing_none([3, 2, 1], {2, 9}) == [2]
        index = t.neighbor_index({1, 2, 9})
        assert index.near(2) == {1}
        index.discard(1)
        index.add(3)
        assert index.near(2) == {3}
        with pytest.raises(UnknownNode, match="node 9 "):
            t.hearing_none([1, 9], {2})
        with pytest.raises(UnknownNode):
            index.near(9)

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            neighbors(path3(), 9)

    @given(st.integers(2, 7), st.integers(0, 2**21 - 1))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, n, mask):
        t, _ = random_edge_topology(n, mask)
        for u in t.nodes:
            for v in neighbors(t, u):
                assert u in neighbors(t, v)


class TestNeighborIndex:
    @given(index_runs())
    # exactly r apart on an axis, and 0.25 * sqrt(2) < r on a diagonal
    @example(([(1, (0.0, 0.0)), (2, (1.0, 0.0)), (3, (0.25, 0.25))], 1.0, {1, 2, 3}, []))
    # accepted at r by rounding, from cell -1 to cell 1 of width exactly r
    @example(
        ([(1, (math.nextafter(0.0, -math.inf), 0.0)), (2, (1.0, 0.0))], 1.0, {1, 2}, [("discard", 1), ("add", 1)])
    )
    # coincident at the coordinate bound, where r * r underflows to 0; one
    # ulp apart is out of range
    @example(
        ([(1, (1e150, 1e150)), (2, (1e150, 1e150)), (3, (math.nextafter(1e150, 0.0), 1e150))], 1e-300, {1, 2, 3}, [])
    )
    # a node alone in its cell, before and after it is indexed
    @example(([(1, (0.0, 0.0)), (2, (10.0, -10.0))], 1.0, {1}, [("add", 2), ("discard", 1), ("add", 3)]))
    @settings(max_examples=200, deadline=None)
    def test_near_matches_the_full_build(self, run):
        specs, radius, nodes, edits = run
        disk = build_topology(specs, radius)
        expected = oracle.build_topology(specs, radius).adj
        unknown = len(specs) + 1
        # a disk topology reads positions, an edge-list one its links
        for t in (disk, Topology(disk.adj)):
            index = t.neighbor_index(nodes)
            current = set(nodes)

            def check():
                for u in expected:
                    assert index.near(u) == expected[u] & current

            check()
            for how, v in edits:
                getattr(index, how)(v)
                getattr(current, how)(v)
                check()
            for v in (0, unknown):
                with pytest.raises(UnknownNode, match=f"node {v} "):
                    index.near(v)

    @pytest.mark.parametrize(
        "radius, far",
        [
            pytest.param(1.0, 2.0**60, id="unit-radius"),
            # the radius floor 1e-150 sets the width, out to the coordinate bound
            pytest.param(1e-300, graph.MAX_COORDINATE, id="floored-radius"),
        ],
    )
    def test_cells_keep_the_build_width_as_a_mover_goes_far_and_back(self, radius, far):
        # Beyond 2**52 radii the span sets the cell width.  Node 4 jumps out
        # there, node 2 joins it exactly r away, and both come home; a
        # moved topology's carried bound must see the jump, and once home
        # the bound stays high while the width is the radius's again.
        specs = [(1, (0.0, 0.0)), (2, (radius, 0.0)), (3, (0.0, radius)), (4, (3 * radius, 0.0))]
        t = build_topology(specs, radius)
        home = dict(t.positions)
        route = [
            {4: (far, 0.0)},
            {2: (far, -radius)},
            {4: (-far, 0.0), 3: (0.0, -radius)},
            {4: home[4]},
            {2: home[2], 3: home[3]},
        ]
        probes = [{1, 2, 4}, {2, 3, 4}]
        widths = []
        for updates in [{}, *route]:
            if updates:
                t = move_nodes(t, updates)
            exact = graph._span_of(t.positions)
            # a built topology keeps its exact span, a moved one a bound
            assert vars(t)["_span"] >= exact
            widths.append(graph._cell_width(radius, exact))
            for probe in probes:
                index = t.neighbor_index(probe)
                assert index._cell == widths[-1]
                for u in t.positions:
                    assert index.near(u) == neighbors(t, u) & probe
        assert widths[0] == widths[-1] < widths[1] == widths[2] == widths[3]


class TestTwoHopView:
    def test_triangle_sees_shared_neighbor_both_ways(self):
        view = two_hop_view(triangle(), 1)
        assert view.direct == frozenset({2, 3})
        assert view.via[3] == frozenset({2})
        assert view.via[2] == frozenset({3})

    def test_isolated_node_sees_nothing(self):
        t = topology_from_edges([1], [])
        view = two_hop_view(t, 1)
        assert view.direct == frozenset()
        assert view.via == {}

    def test_star_center_has_empty_via(self):
        view = two_hop_view(star(3), 1)
        assert view.direct == frozenset({2, 3, 4})
        assert view.via == {}

    def test_direct_always_equals_neighbors(self):
        t = path3()
        for u in t.nodes:
            assert two_hop_view(t, u).direct == neighbors(t, u)

    def test_path_endpoint_relays(self):
        view = two_hop_view(path3(), 1)
        assert view.via == {3: frozenset({2})}

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            two_hop_view(path3(), 9)


class TestTriangleDetection:
    def test_triangle_found_from_view_alone(self):
        assert triangles(two_hop_view(triangle(), 1)) == frozenset({frozenset({1, 2, 3})})

    def test_star_center_has_none(self):
        assert triangles(two_hop_view(star(3), 1)) == frozenset()

    def test_path_has_none(self):
        assert triangles(two_hop_view(path3(), 2)) == frozenset()


class TestIsClique:
    def test_triangle(self):
        assert is_clique(triangle(), {1, 2, 3})

    def test_singleton_and_empty(self):
        t = path3()
        assert is_clique(t, {2})
        assert is_clique(t, set())

    def test_path_endpoints_are_not(self):
        assert not is_clique(path3(), {1, 3})

    def test_unknown_member(self):
        with pytest.raises(UnknownNode):
            is_clique(path3(), {1, 9})

    def test_lone_unknown_member(self):
        with pytest.raises(UnknownNode):
            is_clique(path3(), {9})

    @given(st.integers(2, 8), st.integers(0, 2**28 - 1))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_pairwise_oracle_on_all_subsets(self, n, mask):
        t, edges = random_edge_topology(n, mask)
        for pick in range(2**n):
            subset = {u for u in range(1, n + 1) if pick & (1 << (u - 1))}
            oracle = all(
                (min(u, v), max(u, v)) in edges for u, v in itertools.combinations(subset, 2)
            )
            assert is_clique(t, subset) == oracle


class TestIsDominatingSet:
    def test_path_middle_dominates(self):
        assert is_dominating_set(path3(), {2})

    def test_path_endpoint_does_not(self):
        assert not is_dominating_set(path3(), {1})

    def test_all_nodes_dominate(self):
        t = path3()
        assert is_dominating_set(t, t.nodes)

    def test_lone_unknown_member(self):
        with pytest.raises(UnknownNode):
            is_dominating_set(path3(), [9])

    @given(st.integers(1, 12), st.integers(0, 2**66 - 1), st.integers(0, 2**12 - 1))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_closed_neighborhood_oracle(self, n, mask, pick):
        t, _ = random_edge_topology(n, mask)
        dom = {u for u in range(1, n + 1) if pick & (1 << (u - 1))}
        covered = set(dom)
        for d in dom:
            covered |= set(neighbors(t, d))
        assert is_dominating_set(t, dom) == (covered >= t.nodes)


class TestIsConnected:
    def test_path(self):
        assert is_connected(path3())

    def test_two_disjoint_edges(self):
        t = topology_from_edges([1, 2, 3, 4], [(1, 2), (3, 4)])
        assert not is_connected(t)

    def test_empty_topology_counts_connected(self):
        assert is_connected(topology_from_edges([], []))
