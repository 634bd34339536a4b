"""Formation oracle: the quadratic lowest-id election and council walk.

Verbatim copies of ``elect_heads``, ``find_council_clique`` and
``cluster_form`` as they stood before the formation chain became one sorted
sweep.  They take ``min`` over the undecided nodes once per head, re-sort the
remaining backbone once per cluster and rebuild the forbidden set per
cluster, which makes them slow but plainly the rule as stated; the property
tests in ``test_formation.py`` compare the library against them.  Like the
library's, the election refuses no graph and elects each component on its
own: the connectivity check is ``maintenance.reform``'s alone.

``is_connected``, ``is_dominating_set``, ``identify_gateways`` and
``build_dominating_set`` are verbatim copies of the library's as they stood
before the formation chain read the adjacency map directly: a deque BFS, a
union over the set's neighbourhoods, a cluster-id lookup per neighbour and
the heads and gateways rescans.  The oracle's chain calls only these
copies, so it never checks the library against itself.

The oracle keeps the role tags the library dropped: its election and
gateway step return ``{node: (role, cluster id)}`` maps, read through
``tagged``, the rescan the tests also use for heads, gateways and cluster
nodes.  The library's plain values are projections of these maps: its
``head_of`` is each node's cluster id, and its gateway set is the nodes
tagged ``Role.GATEWAY``.  Like the library's, ``build_dominating_set``
checks no domination: ``cluster_form`` checks every backbone it is handed.
"""

from collections import deque
from typing import Iterable, Mapping, Optional

from councilnet.errors import InvalidDominatingSet
from councilnet.graph import NodeId, Topology, neighbors
from councilnet.phase1 import ClusterId, DominatingSet, Role

Roles = Mapping[NodeId, tuple[Role, ClusterId]]
from councilnet.phase2 import Cluster, Council, Partition
from councilnet.shamir import choose_threshold


def tagged(
    roles: Roles, role: Optional[Role] = None, cid: Optional[ClusterId] = None
) -> frozenset[NodeId]:
    """The nodes of ``roles`` with role ``role`` in cluster ``cid``; either
    left as None matches every node."""
    return frozenset(
        n
        for n, (r, c) in roles.items()
        if (role is None or r is role) and (cid is None or c == cid)
    )


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


def elect_heads(t: Topology) -> dict[NodeId, tuple[Role, ClusterId]]:
    """Iterative lowest-id election over any topology, each component on
    its own.

    The produced heads are pairwise non-adjacent and every member sits one
    hop from its head.  Gateways are not identified yet.
    """
    undecided = set(t.nodes)
    entries: dict[NodeId, tuple[Role, ClusterId]] = {}
    while undecided:
        head = min(undecided)
        undecided.discard(head)
        entries[head] = (Role.HEAD, head)
        for member in sorted(neighbors(t, head) & undecided):
            undecided.discard(member)
            entries[member] = (Role.MEMBER, head)
    return entries


def identify_gateways(t: Topology, roles: Roles) -> dict[NodeId, tuple[Role, ClusterId]]:
    """Re-tag every member that can hear a node of a different cluster.

    Heads are never re-tagged; gateways keep the cluster that elected them.
    """
    entries = dict(roles)
    for nid, (role, cid) in roles.items():
        if role is not Role.MEMBER:
            continue
        if any(roles[v][1] != cid for v in neighbors(t, nid)):
            entries[nid] = (Role.GATEWAY, cid)
    return entries


def build_dominating_set(roles: Roles) -> DominatingSet:
    """Union of heads and gateways; ``cluster_form`` checks that they dominate."""
    return DominatingSet(tuple(sorted(tagged(roles, Role.HEAD) | tagged(roles, Role.GATEWAY))))


def find_council_clique(
    t: Topology,
    h: NodeId,
    forbidden: frozenset[NodeId] = frozenset(),
    core: frozenset[NodeId] = frozenset(),
) -> frozenset[NodeId]:
    """Grow a clique of heads around h from its non-forbidden neighbours.

    The lowest adjacent candidate pair seeds a triangle with h; remaining
    candidates join in ascending id order when adjacent to every admitted
    node.  Without a triangle, h pairs with its lowest candidate drawn from
    ``core`` (the dominating backbone) when a core is given, or from all
    candidates otherwise.  Always returns a clique containing h.
    """
    if h in forbidden:
        raise ValueError(f"head {h} may not be in the forbidden set")
    candidates = sorted(neighbors(t, h) - set(forbidden))
    council = {h}
    seed: Optional[tuple[NodeId, NodeId]] = None
    for i, u in enumerate(candidates):
        for v in candidates[i + 1:]:
            if v in neighbors(t, u):
                seed = (u, v)
                break
        if seed:
            break
    if seed:
        council.update(seed)
        for w in candidates:
            if w in council:
                continue
            if all(w in neighbors(t, c) for c in council):
                council.add(w)
    else:
        pool = [c for c in candidates if c in core] if core else candidates
        if pool:
            council.add(pool[0])
    return frozenset(council)


def cluster_form(t: Topology, dominating: DominatingSet) -> Partition:
    """Walk the dominating backbone and carve the network into clusters.

    Each iteration founds one cluster: pick the next head (preferring the
    gateway handoff, then the lowest unconsumed backbone node, then the
    lowest unassigned node), grow its council, absorb unassigned neighbours
    as members, and pick at most one backbone gateway to continue from.
    Candidate heads must avoid marked gateways and anything adjacent to an
    existing council, which keeps heads of different clusters non-adjacent.
    """
    backbone = set(dominating.members)
    if not is_dominating_set(t, backbone):
        raise InvalidDominatingSet(f"{sorted(backbone)} does not dominate the topology")

    remaining = set(backbone)
    marked: set[NodeId] = set()
    marked_gateways: set[NodeId] = set()
    assigned: dict[NodeId, ClusterId] = {}
    head_adjacency: set[NodeId] = set()
    clusters: list[Cluster] = []
    next_head: Optional[NodeId] = None

    while len(assigned) < len(t.nodes):
        h: Optional[NodeId] = None
        if next_head is not None and next_head not in assigned and next_head not in marked:
            h = next_head
        if h is None:
            for cand in sorted(remaining):
                if cand not in assigned and cand not in marked:
                    h = cand
                    break
        if h is None:
            h = min(u for u in t.nodes if u not in assigned)
        next_head = None
        marked.add(h)

        forbidden = frozenset(marked_gateways | set(assigned) | head_adjacency)
        heads = find_council_clique(t, h, forbidden=forbidden, core=frozenset(backbone))
        cid = min(heads)
        for n in heads:
            assigned[n] = cid
        marked |= heads & backbone
        for n in heads:
            head_adjacency |= neighbors(t, n)

        members = set()
        for n in heads:
            members |= {v for v in neighbors(t, n) if v not in assigned}
        for m in sorted(members):
            assigned[m] = cid

        gateway: Optional[NodeId] = None
        eligible = set()
        for s in sorted(heads & remaining):
            for g in sorted(neighbors(t, s) & remaining):
                if g in heads or g in marked:
                    continue
                if assigned.get(g, cid) != cid:
                    continue
                eligible.add(g)
        if eligible:
            gateway = min(eligible)
            marked.add(gateway)
            marked_gateways.add(gateway)
            members.discard(gateway)

        remaining -= heads
        if gateway is not None:
            remaining.discard(gateway)
            handoff = sorted(
                v for v in neighbors(t, gateway)
                if v in remaining and v not in assigned and v not in marked
            )
            next_head = handoff[0] if handoff else None

        clusters.append(
            Cluster(
                council=Council(heads=heads, cluster_id=cid),
                members=frozenset(members),
                gateways=frozenset() if gateway is None else frozenset({gateway}),
                k=choose_threshold(len(heads)),
            )
        )

    return Partition(clusters)
