"""Second clustering phase: growing a fully connected council per cluster.

The walk starts at the lowest-id node of the dominating backbone, grows a
clique of heads around it, absorbs the surrounding nodes as members, hands
off through a backbone gateway, and repeats until every node is assigned.
Councils are grown triangle-first: the smallest adjacent candidate pair
around the head seeds the clique, then remaining candidates are admitted in
ascending id order when adjacent to everything already in.  Where no
triangle exists the head pairs up with its lowest eligible backbone
neighbour; failing that it serves alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Mapping, Optional

from .errors import InvalidDominatingSet, ValidationError
from .graph import NodeId, Topology, is_dominating_set, neighbors
from .phase1 import ClusterId, DominatingSet, Role
from .shamir import _check_threshold, choose_threshold


@dataclass(frozen=True)
class Council:
    """The fully connected head group that jointly runs one cluster."""

    heads: frozenset[NodeId]
    cluster_id: ClusterId


@dataclass(frozen=True)
class Cluster:
    council: Council
    members: frozenset[NodeId]
    gateways: frozenset[NodeId]
    k: int

    @property
    def cluster_id(self) -> ClusterId:
        return self.council.cluster_id

    @property
    def n(self) -> int:
        return len(self.council.heads)

    def role_of(self, node: NodeId) -> Role:
        if node in self.council.heads:
            return Role.HEAD
        if node in self.gateways:
            return Role.GATEWAY
        return Role.MEMBER


@dataclass(frozen=True)
class Partition:
    """Clusters indexed by id and every node by its cluster's id.

    Each cluster id and each node is listed once: a repeat, across clusters
    or across the groups of one cluster, raises ``ValidationError``.
    """

    clusters: tuple[Cluster, ...]
    node_index: Mapping[NodeId, ClusterId] = field(init=False, repr=False, compare=False)
    _by_id: Mapping[ClusterId, Cluster] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clusters = tuple(self.clusters)
        by_id = {c.cluster_id: c for c in clusters}
        # A node listed twice, in two groups or clusters, shortens the index.
        index: dict[NodeId, ClusterId] = {}
        for c in clusters:
            index.update(dict.fromkeys(c.council.heads, c.cluster_id))
            index.update(dict.fromkeys(c.members, c.cluster_id))
            index.update(dict.fromkeys(c.gateways, c.cluster_id))
        listed = sum(c.n + len(c.members) + len(c.gateways) for c in clusters)
        if len(by_id) < len(clusters) or len(index) < listed:
            raise ValidationError(_repeats(clusters))
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "node_index", index)
        object.__setattr__(self, "_by_id", by_id)

    def cluster(self, cid: ClusterId) -> Cluster:
        return self._by_id[cid]


def _repeats(clusters: tuple[Cluster, ...]) -> str:
    """Name the cluster ids and nodes that ``clusters`` list more than once."""
    ids = Counter(c.cluster_id for c in clusters)
    nodes = Counter(n for c in clusters for g in (c.council.heads, c.members, c.gateways) for n in g)
    named = []
    for what, counts in (("cluster ids", ids), ("nodes", nodes)):
        repeated = sorted(x for x, times in counts.items() if times > 1)
        if repeated:
            named.append(f"{what} {repeated} listed more than once")
    return "partition has " + " and ".join(named)


def find_council_clique(
    t: Topology,
    h: NodeId,
    forbidden: AbstractSet[NodeId] = frozenset(),
    core: AbstractSet[NodeId] = frozenset(),
) -> frozenset[NodeId]:
    """Grow a clique of heads around h from its non-forbidden neighbours.

    The lowest adjacent candidate pair seeds a triangle with h; remaining
    candidates join in ascending id order when adjacent to every admitted
    node.  Without a triangle, h pairs with its lowest candidate drawn from
    ``core`` (the dominating backbone) when a core is given, or from all
    candidates otherwise.  Always returns a clique containing h.

    ``forbidden`` and ``core`` may be any read-only sets; neither is copied,
    and subtracting ``forbidden`` costs O(deg h) when it is a ``set`` or
    ``frozenset``.  Every adjacency test is a C-level set method that takes
    a value of ``t.adj`` as an iterable: the seed is the first candidate
    whose adjacency meets the candidates, paired with the lowest candidate
    in it (a lower one adjacent to it would have seeded the triangle
    first), and a candidate adjacent to both seeds joins when it is still
    among the candidates adjacent to every admitted node, a set that each
    joiner's adjacency narrows.
    """
    if h in forbidden:
        raise ValueError(f"head {h} may not be in the forbidden set")
    adj = t.adj
    candidate_set = neighbors(t, h) - forbidden
    candidates = sorted(candidate_set)
    council = {h}
    for u in candidates:
        hits = candidate_set.intersection(adj[u])
        if hits:
            v = min(hits)
            council.update((u, v))
            # The candidates adjacent to every admitted node: each is
            # adjacent to h, and starts adjacent to both seeds.
            common = hits.intersection(adj[v])
            for w in sorted(common):
                if w in common:
                    council.add(w)
                    common = common.intersection(adj[w])
            return frozenset(council)
    pool = [c for c in candidates if c in core] if core else candidates
    if pool:
        council.add(pool[0])
    return frozenset(council)


def cluster_form(t: Topology, dominating: DominatingSet) -> Partition:
    """Walk the dominating backbone and carve the network into clusters.

    Each iteration founds one cluster: pick the next head (preferring the
    gateway handoff, then the lowest unassigned backbone node, then the
    lowest unassigned node), grow its council, absorb unassigned neighbours
    as members, and pick at most one backbone gateway to continue from.
    Candidate heads must avoid marked gateways and anything adjacent to an
    existing council, which keeps heads of different clusters non-adjacent.
    Any backbone that does not dominate ``t`` raises ``InvalidDominatingSet``.
    A council absorbs every unassigned neighbour of its heads, and its
    gateway is one of those, so every node the walk has marked or placed
    next to a council is already assigned: the assigned nodes are the whole
    forbidden set, and "unassigned" is the whole test for a next head.

    Cost: O(Σdeg + n log n) plus the council searches; outside them no
    Python-level step runs per neighbour.  The union of the council's
    adjacency is taken once: a cluster's members are that union less the
    assigned nodes, and its gateway is the lowest member on the backbone
    next to a backbone head, read from the same union when every head is on
    the backbone and from a second union over the backbone heads otherwise.
    The handoff is the lowest unassigned backbone neighbour of the gateway.
    Each is a few C-level set operations.  Each fallback is a cursor that
    only moves forward over one sorted list (the backbone, then all nodes),
    skipping assigned nodes.  The cursors are exact because a node never
    leaves ``assigned``: a node a cursor has passed can never again be the
    lowest unassigned one.
    """
    backbone = frozenset(dominating.members)
    if not is_dominating_set(t, backbone):
        raise InvalidDominatingSet(f"{sorted(backbone)} does not dominate the topology")

    adj = t.adj
    assigned: set[NodeId] = set()
    # Lazy filters: each membership test runs when the walk asks for a head.
    backbone_heads = (v for v in sorted(backbone) if v not in assigned)
    fallback_heads = (v for v in sorted(adj) if v not in assigned)
    clusters: list[Cluster] = []
    next_head: Optional[NodeId] = None

    while len(assigned) < len(adj):
        h = next_head if next_head is not None else next(backbone_heads, None)
        if h is None:
            h = next(fallback_heads)

        heads = find_council_clique(t, h, forbidden=assigned, core=backbone)
        cid = min(heads)
        assigned |= heads
        near = set().union(*[adj[n] for n in heads])
        members = near - assigned
        assigned |= members

        # A backbone neighbour of a backbone head, absorbed by this cluster;
        # when every head is on the backbone, that is any of ``near``.
        reach = near if heads <= backbone else set().union(*[adj[s] for s in heads & backbone])
        gateway = min(members & backbone & reach, default=None)
        next_head = None
        if gateway is not None:
            members.discard(gateway)
            next_head = min(backbone.intersection(adj[gateway]) - assigned, default=None)

        clusters.append(
            Cluster(
                council=Council(heads=heads, cluster_id=cid),
                members=frozenset(members),
                gateways=frozenset() if gateway is None else frozenset({gateway}),
                k=choose_threshold(len(heads)),
            )
        )

    return Partition(clusters)


def verify_partition(t: Topology, p: Partition) -> list[str]:
    """Check a partition against its topology; returns one message per violation.

    Every rule is checked over ``t.nodes`` with two queries, which a disk
    topology answers from its positions without building links:
    ``t.hearing_none`` for members and gateways, and one
    ``t.neighbor_index`` of every head for the cliques and the heads of
    other clusters.  Each council's k is judged by ``shamir``'s threshold
    rule, whose message the violation quotes.  A node the topology lacks is
    named once, in its cluster's message for its group, even a head that is
    the cluster id."""
    violations: list[str] = []
    nodes = t.nodes
    missing = nodes - p.node_index.keys()
    if missing:
        violations.append(f"nodes {sorted(missing)} are not assigned to any cluster")

    # The index holds only heads.  Heads of different clusters that hear
    # each other are reported by earlier cluster, later cluster, then head.
    position = {h: j for j, c in enumerate(p.clusters) for h in c.council.heads}
    index = t.neighbor_index(position)
    adjacent: dict[tuple[int, int, NodeId], set[NodeId]] = {}
    for i, c in enumerate(p.clusters):
        cid = c.cluster_id
        heads = c.council.heads & nodes
        near = {h: index.near(h) for h in heads}
        if not c.council.heads:
            violations.append(f"cluster {cid} has an empty council")
        else:
            if cid not in nodes and cid not in c.council.heads:
                violations.append(f"cluster id {cid} is not a topology node")
            if heads < c.council.heads:
                violations.append(f"cluster {cid}: heads {sorted(c.council.heads - heads)} are not in the topology")
            if any(not heads - {h} <= hs for h, hs in near.items()):
                violations.append(f"cluster {cid}: council {sorted(heads)} is not a clique")
            try:
                _check_threshold(c.k, c.n)
            except ValidationError as exc:
                violations.append(f"cluster {cid}: {exc}")
        for role, group in (("member", c.members), ("gateway", c.gateways)):
            stray = group - nodes
            if stray:
                violations.append(f"cluster {cid}: {role}s {sorted(stray)} are not in the topology")
            for m in t.hearing_none(sorted(group - stray), c.council.heads) if c.council.heads else ():
                violations.append(f"cluster {cid}: {role} {m} is not adjacent to any head")
        for h, hs in near.items():
            for w in hs:
                j = position[w]
                if j > i:
                    adjacent.setdefault((i, j, h), set()).add(w)
    for (i, j, ha), touching in sorted(adjacent.items()):
        violations.append(
            f"heads {ha} (cluster {p.clusters[i].cluster_id}) and {sorted(touching)} "
            f"(cluster {p.clusters[j].cluster_id}) are adjacent"
        )
    return violations
