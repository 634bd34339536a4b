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

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import InvalidDominatingSet, UnknownNode
from .graph import NodeId, Topology, is_clique, is_dominating_set, neighbors
from .phase1 import ClusterId, DominatingSet, Role
from .shamir import choose_threshold


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

    @property
    def all_nodes(self) -> frozenset[NodeId]:
        return self.council.heads | self.members | self.gateways

    def role_of(self, node: NodeId) -> Role:
        if node in self.council.heads:
            return Role.HEAD
        if node in self.gateways:
            return Role.GATEWAY
        return Role.MEMBER


@dataclass(frozen=True)
class Partition:
    """Clusters indexed by id and every node by its cluster's id.

    Where a malformed partition lists an id or a node twice, the first
    cluster listing it wins.
    """

    clusters: tuple[Cluster, ...]
    node_index: Mapping[NodeId, ClusterId] = field(init=False, repr=False, compare=False)
    _by_id: Mapping[ClusterId, Cluster] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clusters = tuple(self.clusters)
        by_id: dict[ClusterId, Cluster] = {}
        index: dict[NodeId, ClusterId] = {}
        # Reversed so that the first cluster listing an id or a node wins.
        for c in reversed(clusters):
            by_id[c.cluster_id] = c
            index.update(dict.fromkeys(c.all_nodes, c.cluster_id))
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "node_index", index)
        object.__setattr__(self, "_by_id", by_id)

    def cluster(self, cid: ClusterId) -> Cluster:
        return self._by_id[cid]

    def head_clusters(self, nodes: Iterable[NodeId]) -> set[ClusterId]:
        """Ids of the clusters whose council lists one of ``nodes``."""
        index, by_id = self.node_index, self._by_id
        return {index[u] for u in nodes if u in index and u in by_id[index[u]].council.heads}


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
                k=choose_threshold(len(heads)).k,
            )
        )

    return Partition(clusters)


def verify_partition(t: Topology, p: Partition) -> list[str]:
    """Check every partition invariant; returns one message per violation."""
    violations: list[str] = []

    seen: dict[NodeId, ClusterId] = {}
    for c in p.clusters:
        for group_a, group_b, label in (
            (c.council.heads, c.members, "head/member"),
            (c.council.heads, c.gateways, "head/gateway"),
            (c.members, c.gateways, "member/gateway"),
        ):
            overlap = group_a & group_b
            if overlap:
                violations.append(
                    f"cluster {c.cluster_id}: {label} overlap on {sorted(overlap)}"
                )
        for n in c.all_nodes:
            if n in seen:
                violations.append(f"node {n} appears in clusters {seen[n]} and {c.cluster_id}")
            seen[n] = c.cluster_id

    missing = t.nodes - set(seen)
    if missing:
        violations.append(f"nodes {sorted(missing)} are not assigned to any cluster")
    extra = set(seen) - t.nodes
    if extra:
        violations.append(f"assigned nodes {sorted(extra)} are not in the topology")

    for c in p.clusters:
        if not c.council.heads:
            violations.append(f"cluster {c.cluster_id} has an empty council")
            continue
        if c.council.cluster_id not in t.nodes:
            violations.append(f"cluster id {c.cluster_id} is not a topology node")
        unknown = c.council.heads - t.nodes
        if unknown:
            violations.append(f"cluster {c.cluster_id}: heads {sorted(unknown)} are not in the topology")
        if not is_clique(t, c.council.heads - unknown):
            violations.append(
                f"cluster {c.cluster_id}: council {sorted(c.council.heads)} is not a clique"
            )
        if not 1 <= c.k <= c.n:
            violations.append(f"cluster {c.cluster_id}: threshold k={c.k} outside 1..{c.n}")
        for m in sorted(c.members):
            try:
                if not neighbors(t, m) & c.council.heads:
                    violations.append(
                        f"cluster {c.cluster_id}: member {m} is not adjacent to any head"
                    )
            except UnknownNode:
                violations.append(f"cluster {c.cluster_id}: member {m} is not in the topology")

    # Heads of different clusters must not be adjacent.  Index every head by
    # the clusters listing it, then scan each head's neighbours once; report
    # by earlier cluster, later cluster, then head id.
    listed_in: dict[NodeId, list[int]] = {}
    for j, c in enumerate(p.clusters):
        for h in c.council.heads:
            listed_in.setdefault(h, []).append(j)
    adjacent: dict[tuple[int, int, NodeId], set[NodeId]] = {}
    for i, a in enumerate(p.clusters):
        for ha in a.council.heads & t.nodes:
            for w in neighbors(t, ha):
                for j in listed_in.get(w, ()):
                    if j > i:
                        adjacent.setdefault((i, j, ha), set()).add(w)
    for (i, j, ha), touching in sorted(adjacent.items()):
        violations.append(
            f"heads {ha} (cluster {p.clusters[i].cluster_id}) and {sorted(touching)} "
            f"(cluster {p.clusters[j].cluster_id}) are adjacent"
        )

    return violations
