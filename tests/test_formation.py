"""The formation chain against its quadratic oracle (``formation_oracle.py``)."""

import inspect
import itertools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formation_oracle as oracle
from councilnet.errors import DisconnectedTopology, InvalidDominatingSet
from councilnet.graph import is_connected, neighbors, topology_from_edges
from councilnet.phase1 import DominatingSet, build_dominating_set, elect_heads, identify_gateways
from councilnet.phase2 import cluster_form

# Path 2-11-6-9-7: the walk's gateway 6 hands off to 9, although 7 is the
# lowest unassigned backbone node.
HANDOFF = ([2, 6, 7, 9, 11], [(2, 11), (6, 9), (6, 11), (7, 9)], set())
# Triangle {1, 2, 3}, with 5 hung off 1 and leaves 6 and 7 off 5, over the
# backbone {1, 5}: 5 joins cluster 1 as its gateway, which leaves no backbone
# node for 6 and 7, so the walk falls back to the lowest unassigned node, 6
# before 7.
FALLBACK = ([1, 2, 3, 5, 6, 7], [(1, 2), (1, 3), (2, 3), (1, 5), (5, 6), (5, 7)], {1, 5})


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
    """The reform backbone and its superset with ``extra`` on a connected
    graph; on any graph, ``extra`` plus every node it leaves undominated."""
    covered = set(extra).union(*(neighbors(t, u) for u in extra))
    found = [tuple(extra) + tuple(t.nodes - covered)]
    if is_connected(t):
        backbone = build_dominating_set(t, identify_gateways(t, elect_heads(t))).members
        found += [backbone, tuple(set(backbone) | extra)]
    return [DominatingSet(members) for members in found]


@given(formation_inputs())
@example(HANDOFF)
@example(FALLBACK)
@settings(max_examples=300, deadline=None)
def test_elect_heads_matches_the_oracle(inputs):
    ids, edges, _ = inputs
    t = topology_from_edges(ids, edges)
    try:
        expected = oracle.elect_heads(t)
    except DisconnectedTopology:
        with pytest.raises(DisconnectedTopology):
            elect_heads(t)
        return
    got = elect_heads(t)
    assert got == expected
    assert list(got.entries.items()) == list(expected.entries.items())


@given(formation_inputs())
@example(HANDOFF)
@example(FALLBACK)
@settings(max_examples=300, deadline=None)
def test_cluster_form_matches_the_oracle(inputs):
    ids, edges, extra = inputs
    t = topology_from_edges(ids, edges)
    for dominating in dominating_sets(t, extra):
        assert cluster_form(t, dominating) == oracle.cluster_form(t, dominating)
    if extra and not oracle.is_dominating_set(t, extra):
        for form in (cluster_form, oracle.cluster_form):
            with pytest.raises(InvalidDominatingSet):
                form(t, DominatingSet(tuple(extra)))


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
