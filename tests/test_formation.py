"""The formation chain against its quadratic oracle (``formation_oracle.py``)."""

import inspect
import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formation_oracle as oracle
from graph_oracle import links
from councilnet import graph
from councilnet.errors import CouncilNetError, InvalidDominatingSet
from councilnet.graph import is_connected, is_dominating_set, neighbors, topology_from_edges
from councilnet.maintenance import reform
from councilnet.phase1 import DominatingSet, Role, build_dominating_set, elect_heads, identify_gateways
from councilnet.phase2 import cluster_form, find_council_clique
from councilnet.topologies import random_connected

# Path 2-11-6-9-7: the walk's gateway 6 hands off to 9, although 7 is the
# lowest unassigned backbone node.
HANDOFF = ([2, 6, 7, 9, 11], [(2, 11), (6, 9), (6, 11), (7, 9)], set())
# Triangle {1, 2, 3}, with 5 hung off 1 and leaves 6 and 7 off 5, over the
# backbone {1, 5}: 5 joins cluster 1 as its gateway, which leaves no backbone
# node for 6 and 7, so the walk falls back to the lowest unassigned node, 6
# before 7.
FALLBACK = ([1, 2, 3, 5, 6, 7], [(1, 2), (1, 3), (2, 3), (1, 5), (5, 6), (5, 7)], {1, 5})
EMPTY = ([], [], set())
# The smallest disconnected scenario: node 3 hears no one.
SPLIT = ([1, 2, 3], [(1, 2)], {3})
# Star 1-{2, 3} with head 1 demoted, which leaves its cluster headless: no
# gateway hears another cluster, so the backbone is empty and dominates
# nothing.
DEMOTED = ([1, 2, 3], [(1, 2), (1, 3)], {1})
# Ids above 60, which ``formation_inputs`` never draws, lie outside every
# topology it builds.
OUTSIDE = st.sets(st.integers(61, 64), max_size=2)


@st.composite
def formation_inputs(draw):
    """Sparse graphs over non-contiguous ids, connected or not, and a node
    subset to grow dominating sets from."""
    ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=18)))
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(ids))) if pairs else []
    if draw(st.booleans()):
        order = draw(st.permutations(ids))
        edges += [(v, draw(st.sampled_from(order[:i]))) for i, v in enumerate(order) if i]
    return ids, edges, draw(st.sets(st.sampled_from(ids)))


def dominating_sets(t, extra):
    """``extra`` plus every node it leaves undominated, the election's
    backbone and that backbone's superset with ``extra``."""
    covered = set(extra).union(*(neighbors(t, u) for u in extra))
    head_of = elect_heads(t)
    backbone = build_dominating_set(head_of, identify_gateways(t, head_of)).members
    found = [tuple(extra) + tuple(t.nodes - covered), backbone, tuple(set(backbone) | extra)]
    return [DominatingSet(members) for members in found]


def outcome(f, *args, **kwargs):
    """What ``f`` gives: its result, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except (CouncilNetError, ValueError) as exc:
        return type(exc), str(exc)


def role_assignments(t, demoted):
    """The oracle's role maps, ``{node: (role, cluster id)}``, over every
    node of ``t``, connected or not: each node joins the cluster of the
    lowest id in its closed neighbourhood, heading it when that is itself;
    the election; and each of these with the clusters of the ``demoted``
    heads left headless, all their nodes tagged members under the id
    ``-head``, which no node has."""
    lowest = {u: min(vs | {u}) for u, vs in links(t).items()}
    found = [{u: (Role.HEAD if c == u else Role.MEMBER, c) for u, c in lowest.items()}, oracle.elect_heads(t)]
    found += [{u: (Role.MEMBER, -c) if c in demoted else (r, c) for u, (r, c) in e.items()} for e in found]
    return found


def head_of(roles):
    """The library's view of an oracle role map: each node's cluster id.
    It loses no head, because a node heads its cluster exactly when it is
    the cluster's id."""
    projected = {u: c for u, (_, c) in roles.items()}
    assert oracle.tagged(roles, Role.HEAD) == {u for u, c in projected.items() if u == c}
    return projected


@given(formation_inputs())
@example(EMPTY)
@example(SPLIT)
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_the_oracle(inputs):
    ids, edges, _ = inputs
    t = topology_from_edges(ids, edges)
    assert is_connected(t) == oracle.is_connected(t)


@given(formation_inputs(), OUTSIDE)
@example(EMPTY, set())
@example(EMPTY, {61})
@example(SPLIT, {61, 62})
@settings(max_examples=300, deadline=None)
def test_is_dominating_set_matches_the_oracle(inputs, outside):
    # A member outside the topology raises ``UnknownNode`` on both sides,
    # naming the same node.
    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    for d in [tuple(extra) + tuple(outside), *(d.members for d in dominating_sets(t, extra))]:
        assert outcome(is_dominating_set, t, d) == outcome(oracle.is_dominating_set, t, d)


@given(formation_inputs())
@example(EMPTY)
@example(SPLIT)
@example(HANDOFF)
@example(DEMOTED)
@settings(max_examples=300, deadline=None)
def test_identify_gateways_and_backbone_match_the_oracle(inputs):
    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    for roles in role_assignments(t, extra):
        expected = oracle.identify_gateways(t, roles)
        assert identify_gateways(t, head_of(roles)) == oracle.tagged(expected, Role.GATEWAY)
        # The backbone of the map before and after the gateway step: demoted
        # heads can leave nodes undominated, which ``cluster_form`` refuses
        # (InvalidDominatingSet), the same error and message on both sides.
        for tags in (expected, roles):
            backbone = build_dominating_set(head_of(tags), oracle.tagged(tags, Role.GATEWAY))
            assert backbone == oracle.build_dominating_set(tags)
            formed = outcome(cluster_form, t, backbone)
            assert formed == outcome(oracle.cluster_form, t, backbone)
            if not oracle.is_dominating_set(t, backbone.members):
                assert formed == (InvalidDominatingSet, f"{list(backbone.members)} does not dominate the topology")


@given(formation_inputs(), OUTSIDE)
@example(HANDOFF, set())
@example(FALLBACK, set())
@example(SPLIT, {61})
@settings(max_examples=300, deadline=None)
def test_find_council_clique_matches_the_oracle(inputs, outside):
    # Heads inside ``extra`` are forbidden (ValueError), heads outside the
    # topology unknown (UnknownNode), on both sides.
    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    for h in [*ids, *outside]:
        choices = ((frozenset(extra) - {h}, frozenset()), (frozenset(extra), frozenset(ids[::2])))
        for forbidden, core in choices:
            got = outcome(find_council_clique, t, h, forbidden=forbidden, core=core)
            assert got == outcome(oracle.find_council_clique, t, h, forbidden=forbidden, core=core)


@given(formation_inputs())
@example(EMPTY)
@example(SPLIT)
@example(HANDOFF)
@example(FALLBACK)
@settings(max_examples=300, deadline=None)
def test_elect_heads_matches_the_oracle(inputs):
    ids, edges, _ = inputs
    t = topology_from_edges(ids, edges)
    assert list(elect_heads(t).items()) == list(head_of(oracle.elect_heads(t)).items())


@given(formation_inputs(), OUTSIDE)
@example(HANDOFF, set())
@example(FALLBACK, set())
@example(EMPTY, set())
@example(SPLIT, {61})
@settings(max_examples=300, deadline=None)
def test_cluster_form_matches_the_oracle(inputs, outside):
    # ``extra`` alone may not dominate (InvalidDominatingSet), and with
    # ``outside`` it names unknown nodes (UnknownNode): the same error and
    # message on both sides.
    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    for dominating in dominating_sets(t, extra):
        assert cluster_form(t, dominating) == oracle.cluster_form(t, dominating)
    for members in (tuple(extra), tuple(extra) + tuple(outside)):
        dominating = DominatingSet(members)
        assert outcome(cluster_form, t, dominating) == outcome(oracle.cluster_form, t, dominating)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reform_matches_the_oracle_chain_at_benchmark_scale(seed):
    # The Hypothesis graphs stop at 18 nodes; this is the benchmark's 1k.
    t = random_connected(1000, seed)
    roles = oracle.identify_gateways(t, oracle.elect_heads(t))
    assert reform(t) == oracle.cluster_form(t, oracle.build_dominating_set(roles))


def test_reform_checks_domination_once(monkeypatch):
    calls = []
    check = graph.is_dominating_set

    def counted(t, d):
        calls.append(len(t.nodes))
        return check(t, d)

    # Every module attribute bound to the function, however it was
    # imported, as the benchmark tracer patches its layers.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "councilnet" and vars(module).get("is_dominating_set") is check:
            monkeypatch.setattr(module, "is_dominating_set", counted)
    reform(random_connected(50, 1))
    assert calls == [50]


def oracle_head_choices(inputs):
    """Which of the oracle's head-choice lines ran over ``inputs``' sets."""
    code = oracle.cluster_form.__code__
    source, first = inspect.getsourcelines(oracle.cluster_form)
    branches = {"h = next_head": "handoff", "h = min(u for u in t.nodes if u not in assigned)": "fallback"}
    lines = {first + i: branches[text.strip()] for i, text in enumerate(source) if text.strip() in branches}
    ran = set()

    def trace_lines(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            ran.add(lines[frame.f_lineno])
        return trace_lines

    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: trace_lines if frame.f_code is code else None)
    try:
        for dominating in dominating_sets(t, extra):
            oracle.cluster_form(t, dominating)
    finally:
        sys.settrace(previous)
    return ran


def test_examples_reach_the_handoff_and_the_fallback():
    assert "handoff" in oracle_head_choices(HANDOFF)
    assert "fallback" in oracle_head_choices(FALLBACK)
