"""Scenario-driven, round-based simulator.

Each round: nodes move along their waypoints, links are rebuilt under the
disk rule, HELLO exchanges refresh neighbour knowledge on their interval,
maintenance classifies the accumulated changes into local updates or a full
re-formation, shares are refreshed or re-split as needed, any scheduled
compromise fires, and one metrics row is recorded.  Runs are deterministic
for a given scenario and seed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .errors import (
    DisconnectedTopology,
    ParseError,
    UnknownNode,
    ValidationError,
)
from .graph import (
    NodeId,
    Position,
    Topology,
    build_topology,
    is_connected,
    neighbors,
    topology_from_edges,
)
from .maintenance import (
    ClusterHealth,
    MaintenanceAction,
    baseline_health,
    classify_change,
    handle_departure,
    handle_visitor,
    reform,
)
from .phase1 import ClusterId
from .phase2 import Partition, verify_partition
from .shamir import (
    DEFAULT_PRIME,
    InsufficientShares,
    Share,
    choose_threshold,
    issue_share,
    reconstruct,
    refresh_shares,
    split_secret,
)

# Exhaustive secrecy checks only run when the whole polynomial space fits here.
BRUTE_FORCE_LIMIT = 250_000
SMALL_PRIME_LIMIT = 17

METRICS_COLUMNS = (
    "round",
    "cluster_count",
    "mean_council",
    "min_council",
    "max_council",
    "updates",
    "reforms",
    "hellos",
    "secrecy_ok",
)


@dataclass(frozen=True)
class NodeSpec:
    nid: NodeId
    pos: Optional[Position] = None
    waypoints: tuple[Position, ...] = ()
    speed: float = 0.0


@dataclass(frozen=True)
class Adversary:
    compromise_round: int
    nodes: frozenset[NodeId]


@dataclass(frozen=True)
class Scenario:
    seed: int
    rounds: int
    nodes: tuple[NodeSpec, ...]
    radius: Optional[float] = None
    edges: Optional[tuple[tuple[NodeId, NodeId], ...]] = None
    hello_interval_rounds: int = 1
    refresh_interval_rounds: int = 0
    gateway_threshold: float = 0.5
    field_prime: int = DEFAULT_PRIME
    adversary: Optional[Adversary] = None

    @property
    def static(self) -> bool:
        return self.edges is not None


@dataclass
class ClusterLedger:
    """Secret-sharing state of one cluster: the split secret and live shares."""

    cluster_id: ClusterId
    secret: int
    k: int
    prime: int
    epoch: int = 0
    shares: dict[NodeId, Share] = field(default_factory=dict)
    revoked: set[NodeId] = field(default_factory=set)

    def live_shares(self) -> list[tuple[NodeId, Share]]:
        return [(nid, s) for nid, s in sorted(self.shares.items()) if nid not in self.revoked]


@dataclass(frozen=True)
class MetricsRow:
    round: int
    cluster_count: int
    mean_council: float
    min_council: int
    max_council: int
    updates: int
    reforms: int
    hellos: int
    secrecy_ok: bool

    def as_csv(self) -> tuple:
        return (
            self.round,
            self.cluster_count,
            f"{self.mean_council:.3f}",
            self.min_council,
            self.max_council,
            self.updates,
            self.reforms,
            self.hellos,
            1 if self.secrecy_ok else 0,
        )


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[MetricsRow, ...]
    violations: tuple[str, ...]
    halted: bool
    # Rounds stepped; a halted round counts but records no row.
    rounds: int

    @property
    def ok(self) -> bool:
        return not self.violations and not self.halted


@dataclass(frozen=True)
class ClusterAudit:
    cluster_id: ClusterId
    compromised_head_count: int
    k: int
    breached: bool
    consistent_secrets: Optional[int] = None


@dataclass(frozen=True)
class AuditResult:
    entries: tuple[ClusterAudit, ...]
    anomalies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.anomalies


@dataclass
class SimState:
    scenario: Scenario
    round: int
    positions: dict[NodeId, Position]
    pending_waypoints: dict[NodeId, list[Position]]
    topology: Topology
    partition: Partition
    share_ledger: dict[ClusterId, ClusterLedger]
    healths: dict[ClusterId, ClusterHealth]
    rng: random.Random
    compromised: set[NodeId] = field(default_factory=set)
    adversary_shares: dict[ClusterId, dict[NodeId, Share]] = field(default_factory=dict)
    miss_counts: dict[NodeId, int] = field(default_factory=dict)
    decision_log: list[tuple[int, ClusterId, str, int, float]] = field(default_factory=list)
    metrics: list[MetricsRow] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    halted: bool = False


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> Optional[float]:
    """The value as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _position(value, where: str) -> Position:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValidationError(f"{where}: a position must be a pair of numbers")
    x, y = _real(value[0]), _real(value[1])
    if x is None or y is None:
        raise ValidationError(f"{where}: a position must be a pair of numbers")
    return (x, y)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file, applying documented defaults."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data: Mapping, source: str = "scenario") -> Scenario:
    def fail(msg: str) -> None:
        raise ValidationError(f"{source}: {msg}")

    nodes_raw = data.get("nodes")
    if not isinstance(nodes_raw, list) or not nodes_raw:
        fail("'nodes' must be a non-empty list")

    edges_raw = data.get("edges")
    static = edges_raw is not None

    specs: list[NodeSpec] = []
    seen: set[int] = set()
    for i, entry in enumerate(nodes_raw):
        if not isinstance(entry, dict) or "nid" not in entry:
            fail(f"nodes[{i}] must be an object with a 'nid'")
        nid = entry["nid"]
        if not _is_int(nid) or nid < 1:
            fail(f"nodes[{i}]: nid must be a positive integer")
        if nid in seen:
            fail(f"node id {nid} appears more than once")
        seen.add(nid)
        pos = entry.get("pos")
        if pos is None and not static:
            fail(f"node {nid}: 'pos' is required unless an explicit edge list is given")
        position = _position(pos, f"node {nid}") if pos is not None else None
        waypoints_raw = entry.get("waypoints", [])
        if not isinstance(waypoints_raw, list):
            fail(f"node {nid}: 'waypoints' must be a list of positions")
        waypoints = tuple(
            _position(wp, f"node {nid} waypoint {j}") for j, wp in enumerate(waypoints_raw)
        )
        speed = _real(entry.get("speed", 0.0))
        if speed is None or speed < 0:
            fail(f"node {nid}: speed must be a number >= 0")
        specs.append(NodeSpec(nid, position, waypoints, speed))

    rounds = data.get("rounds", 0)
    if not _is_int(rounds) or rounds < 0:
        fail("'rounds' must be a non-negative integer")
    seed = data.get("seed", 0)
    if not _is_int(seed):
        fail("'seed' must be an integer")

    radius = data.get("radius")
    if radius is not None:
        radius = _real(radius)
        if radius is None or radius <= 0:
            fail("'radius' must be a positive number")
    if not static and radius is None:
        fail("'radius' is required for position-based scenarios")

    edges = None
    if static:
        if not isinstance(edges_raw, list):
            fail("'edges' must be a list of pairs")
        edges = []
        for j, pair in enumerate(edges_raw):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_is_int, pair)):
                fail(f"edges[{j}] must be a pair of node ids")
            u, v = pair
            if u not in seen or v not in seen:
                fail(f"edges[{j}] references an unknown node")
            if u == v:
                fail(f"edges[{j}] is a self-loop")
            edges.append((u, v))
        edges = tuple(edges)

    hello = data.get("hello_interval_rounds", 1)
    if not _is_int(hello) or hello < 1:
        fail("'hello_interval_rounds' must be a positive integer")
    refresh = data.get("refresh_interval_rounds", 0)
    if not _is_int(refresh) or refresh < 0:
        fail("'refresh_interval_rounds' must be a non-negative integer")

    threshold = _real(data.get("gateway_threshold", 0.5))
    if threshold is None or not 0.0 <= threshold <= 1.0:
        fail("'gateway_threshold' must lie in [0, 1]")

    prime = data.get("field_prime", DEFAULT_PRIME)
    if not _is_int(prime) or not _is_prime(prime):
        fail("'field_prime' must be a prime number")
    if prime <= max(seen):
        fail("'field_prime' must exceed every node id")

    adversary = None
    adv_raw = data.get("adversary")
    if adv_raw is not None:
        if not isinstance(adv_raw, dict):
            fail("'adversary' must be an object")
        comp_round = adv_raw.get("compromise_round")
        if not _is_int(comp_round) or comp_round < 0:
            fail("adversary 'compromise_round' must be a non-negative integer")
        adv_nodes = adv_raw.get("nodes", [])
        if not isinstance(adv_nodes, list) or not all(_is_int(n) for n in adv_nodes):
            fail("adversary 'nodes' must be a list of node ids")
        unknown = [n for n in adv_nodes if n not in seen]
        if unknown:
            fail(f"adversary nodes {unknown} are not in the scenario")
        adversary = Adversary(comp_round, frozenset(adv_nodes))

    return Scenario(
        seed=seed,
        rounds=rounds,
        nodes=tuple(specs),
        radius=radius,
        edges=edges,
        hello_interval_rounds=hello,
        refresh_interval_rounds=refresh,
        gateway_threshold=threshold,
        field_prime=prime,
        adversary=adversary,
    )


def _build_topology(sc: Scenario, positions: Mapping[NodeId, Position]) -> Topology:
    if sc.static:
        pos = positions if positions else None
        return topology_from_edges([s.nid for s in sc.nodes], sc.edges, pos, sc.radius)
    return build_topology(sorted(positions.items()), sc.radius)


def _split_all(state: SimState) -> None:
    """Draw a fresh secret per cluster and split it across the council."""
    sc = state.scenario
    state.share_ledger = {}
    state.adversary_shares = {}
    for c in state.partition.clusters:
        heads = sorted(c.council.heads)
        policy = choose_threshold(len(heads))
        secret = state.rng.randrange(sc.field_prime)
        shares = split_secret(secret, policy, heads, state.rng.randrange(2**62), sc.field_prime)
        ledger = ClusterLedger(
            cluster_id=c.cluster_id,
            secret=secret,
            k=policy.k,
            prime=sc.field_prime,
            shares=dict(zip(heads, shares)),
        )
        state.share_ledger[c.cluster_id] = ledger
        for nid in sorted(state.compromised & set(heads)):
            state.adversary_shares.setdefault(c.cluster_id, {})[nid] = ledger.shares[nid]


def initialize(sc: Scenario) -> SimState:
    """Build the initial topology, form clusters, and split the secrets."""
    positions = {s.nid: s.pos for s in sc.nodes if s.pos is not None}
    topology = _build_topology(sc, positions)
    if not is_connected(topology):
        raise DisconnectedTopology("initial topology must be connected")
    partition = reform(topology)
    state = SimState(
        scenario=sc,
        round=0,
        positions=positions,
        pending_waypoints={s.nid: list(s.waypoints) for s in sc.nodes},
        topology=topology,
        partition=partition,
        share_ledger={},
        healths={},
        rng=random.Random(sc.seed),
    )
    _split_all(state)
    state.healths = {c.cluster_id: baseline_health(c) for c in partition.clusters}
    return state


def _move_nodes(state: SimState) -> bool:
    sc = state.scenario
    if sc.static:
        return False
    moved = False
    for spec in sc.nodes:
        if spec.speed <= 0:
            continue
        x, y = state.positions[spec.nid]
        budget = spec.speed
        queue = state.pending_waypoints[spec.nid]
        while queue and budget > 0:
            tx, ty = queue[0]
            dist = math.hypot(tx - x, ty - y)
            if dist <= budget:
                x, y = tx, ty
                budget -= dist
                queue.pop(0)
                moved = moved or dist > 0
            else:
                x += (tx - x) / dist * budget
                y += (ty - y) / dist * budget
                budget = 0.0
                moved = True
        state.positions[spec.nid] = (x, y)
    return moved


def _issue_for(state: SimState, cid: ClusterId, nid: NodeId) -> None:
    ledger = state.share_ledger.get(cid)
    if ledger is None:
        return
    live = [s for _, s in ledger.live_shares()]
    if len(live) < ledger.k:
        state.violations.append(
            f"cluster {cid}: no quorum of {ledger.k} live shares to issue for node {nid}"
        )
        return
    new_x = nid % ledger.prime
    if new_x == 0 or any(s.x == new_x for s in ledger.shares.values()):
        state.violations.append(f"cluster {cid}: cannot map node {nid} to a fresh share coordinate")
        return
    share = issue_share(live[: ledger.k], new_x, ledger.k, ledger.prime)
    ledger.shares[nid] = share
    ledger.revoked.discard(nid)
    if nid in state.compromised:
        state.adversary_shares.setdefault(cid, {})[nid] = share


def _do_reform(state: SimState) -> None:
    state.partition = reform(state.topology)
    _split_all(state)
    state.healths = {c.cluster_id: baseline_health(c) for c in state.partition.clusters}
    state.miss_counts = {}


def _maintenance_pass(state: SimState, round_no: int) -> tuple[bool, bool]:
    """Detect departures and visitors, then classify each cluster's health.

    Returns (local updates applied, reform performed).  A node counts as
    departed once it has been out of touch with its cluster for two
    consecutive HELLO exchanges.
    """
    sc = state.scenario
    t = state.topology
    p = state.partition

    departed: list[NodeId] = []
    for nid in sorted(t.nodes):
        cid = p.node_index.get(nid)
        if cid is None:
            continue
        cluster = p.cluster(cid)
        if nid in cluster.council.heads:
            others = cluster.all_nodes - {nid}
            in_touch = not others or bool(neighbors(t, nid) & others)
        else:
            in_touch = bool(neighbors(t, nid) & cluster.council.heads)
        if in_touch:
            state.miss_counts[nid] = 0
        else:
            state.miss_counts[nid] = state.miss_counts.get(nid, 0) + 1
            if state.miss_counts[nid] >= 2:
                departed.append(nid)

    changed = False
    stranded = False
    for nid in departed:
        cid = p.node_index[nid]
        prior_role = p.cluster(cid).role_of(nid)
        p, health = handle_departure(p, nid, state.healths.get(cid))
        state.healths[cid] = health
        ledger = state.share_ledger.get(cid)
        if ledger is not None and nid in ledger.shares:
            ledger.revoked.add(nid)
        state.miss_counts[nid] = 0
        changed = True

        dest = None
        for c in sorted(p.clusters, key=lambda c: c.cluster_id):
            if c.cluster_id != cid and neighbors(t, nid) & c.council.heads:
                dest = c.cluster_id
                break
        if dest is None:
            stranded = True
            continue
        p, tag = handle_visitor(t, p, nid, dest, prior_role=prior_role)
        dest_health = state.healths.get(dest)
        if dest_health is not None:
            state.healths[dest] = replace(dest_health, arrivals=dest_health.arrivals + 1)
        if tag == "issue_new_share":
            state.partition = p
            _issue_for(state, dest, nid)

    state.partition = p

    decisions: dict[ClusterId, MaintenanceAction] = {}
    for c in p.clusters:
        health = state.healths.get(c.cluster_id) or baseline_health(c)
        decisions[c.cluster_id] = classify_change(health, sc.gateway_threshold)
    for cid in sorted(decisions):
        action = decisions[cid]
        if action is not MaintenanceAction.NONE:
            health = state.healths.get(cid)
            state.decision_log.append(
                (
                    round_no,
                    cid,
                    action.value,
                    health.heads_departed if health else 0,
                    health.gateways_lost_fraction if health else 0.0,
                )
            )

    needs_reform = stranded or MaintenanceAction.REFORM in decisions.values()
    if not needs_reform and verify_partition(t, p):
        # Structural damage not expressible as departures (e.g. heads drifting
        # into each other's range).  Re-form unless detection is still pending.
        # This is the round's only partition check: a stale partition is
        # tolerated while misses are pending and between HELLO exchanges.
        if not any(v > 0 for v in state.miss_counts.values()):
            needs_reform = True
    if needs_reform:
        if stranded or MaintenanceAction.REFORM not in decisions.values():
            state.decision_log.append((round_no, -1, "reform", 0, 0.0))
        _do_reform(state)
        return False, True
    return changed, False


def _refresh_all(state: SimState) -> None:
    for cid in sorted(state.share_ledger):
        ledger = state.share_ledger[cid]
        live = ledger.live_shares()
        if not live:
            continue
        refreshed = refresh_shares(
            [s for _, s in live], ledger.k, state.rng.randrange(2**62), ledger.prime
        )
        by_x = {s.x: s for s in refreshed}
        ledger.shares = {nid: by_x[s.x] for nid, s in live}
        ledger.revoked = set()
        ledger.epoch += 1
        for nid in sorted(set(ledger.shares) & state.compromised):
            state.adversary_shares.setdefault(cid, {})[nid] = ledger.shares[nid]


def compromise(state: SimState, nodes) -> SimState:
    """Hand the adversary the current shares held by the given nodes.

    The compromised set is static: future shares of these nodes keep
    leaking, but refreshed shares of untouched nodes never do.
    """
    nodes = set(nodes)
    unknown = nodes - state.topology.nodes
    if unknown:
        raise UnknownNode(f"cannot compromise unknown nodes {sorted(unknown)}")
    state.compromised |= nodes
    for cid in sorted(state.share_ledger):
        ledger = state.share_ledger[cid]
        for nid in sorted(nodes & set(ledger.shares) - ledger.revoked):
            state.adversary_shares.setdefault(cid, {})[nid] = ledger.shares[nid]
    return state


def _consistent_secret_count(held: Sequence[Share], k: int, prime: int) -> Optional[int]:
    """Count secrets consistent with the held shares by full enumeration."""
    if prime**k > BRUTE_FORCE_LIMIT:
        return None
    points = [(s.x, s.y) for s in held]
    secrets = set()
    for coeffs in itertools.product(range(prime), repeat=k):
        ok = True
        for x, y in points:
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % prime
            if acc != y:
                ok = False
                break
        if ok:
            secrets.add(coeffs[0])
    return len(secrets)


def _audit_cluster(
    cid: ClusterId,
    k: int,
    prime: int,
    epoch: int,
    secret: Optional[int],
    held: Sequence[Share],
) -> tuple[ClusterAudit, list[str]]:
    current = [s for s in held if s.epoch == epoch]
    count = len(current)
    breached = count >= k
    anomalies: list[str] = []
    consistent = None
    if prime <= SMALL_PRIME_LIMIT:
        consistent = _consistent_secret_count(current, k, prime)
    if count < k:
        if count:
            try:
                reconstruct(current, k, prime)
                anomalies.append(f"cluster {cid}: sub-threshold reconstruction did not fail")
            except InsufficientShares:
                pass
        if consistent is not None and consistent != prime:
            anomalies.append(
                f"cluster {cid}: {count} shares below threshold {k} narrow the secret "
                f"to {consistent} candidates instead of {prime}"
            )
    else:
        if consistent is not None and consistent != 1:
            anomalies.append(
                f"cluster {cid}: {count} shares at threshold {k} leave {consistent} candidates"
            )
        if secret is not None and reconstruct(current[:k], k, prime) != secret:
            anomalies.append(f"cluster {cid}: breached reconstruction disagrees with the secret")
    return ClusterAudit(cid, count, k, breached, consistent), anomalies


def audit_secrecy(state: SimState) -> AuditResult:
    """Per-cluster breach report for the adversary's current holdings."""
    entries = []
    anomalies: list[str] = []
    for cid in sorted(state.share_ledger):
        ledger = state.share_ledger[cid]
        held = [s for _, s in sorted(state.adversary_shares.get(cid, {}).items())]
        entry, extra = _audit_cluster(cid, ledger.k, ledger.prime, ledger.epoch, ledger.secret, held)
        entries.append(entry)
        anomalies.extend(extra)
    return AuditResult(tuple(entries), tuple(anomalies))


def step(state: SimState) -> SimState:
    """Advance the simulation by one round."""
    sc = state.scenario
    if state.round >= sc.rounds:
        raise ValueError("scenario rounds exhausted")
    round_no = state.round + 1

    if _move_nodes(state):
        state.topology = _build_topology(sc, state.positions)

    hellos = 0
    updated = False
    reformed = False
    if state.round % sc.hello_interval_rounds == 0:
        # One HELLO broadcast per node; the tables themselves feed no output.
        hellos = len(state.topology.nodes)
        try:
            updated, reformed = _maintenance_pass(state, round_no)
        except DisconnectedTopology as exc:
            state.violations.append(f"round {round_no}: re-formation failed: {exc}")
            state.halted = True
            state.round = round_no
            return state

    if sc.refresh_interval_rounds and round_no % sc.refresh_interval_rounds == 0:
        _refresh_all(state)

    if sc.adversary is not None and round_no == sc.adversary.compromise_round:
        compromise(state, sc.adversary.nodes)

    audit = audit_secrecy(state)
    sizes = [c.n for c in state.partition.clusters]
    state.metrics.append(
        MetricsRow(
            round=round_no,
            cluster_count=len(sizes),
            mean_council=sum(sizes) / len(sizes) if sizes else 0.0,
            min_council=min(sizes) if sizes else 0,
            max_council=max(sizes) if sizes else 0,
            updates=1 if updated else 0,
            reforms=1 if reformed else 0,
            hellos=hellos,
            secrecy_ok=audit.ok,
        )
    )
    if not audit.ok:
        state.violations.extend(audit.anomalies)
    state.round = round_no
    return state


def write_metrics(rows: Sequence[MetricsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())


def dump_state(state: SimState, path) -> None:
    """Serialise the share ledger and adversary view for post-hoc audits."""
    payload = {
        "round": state.round,
        "prime": state.scenario.field_prime,
        "compromised": sorted(state.compromised),
        "decision_log": [list(entry) for entry in state.decision_log],
        "clusters": [
            {
                "cluster_id": cid,
                "k": ledger.k,
                "epoch": ledger.epoch,
                "secret": ledger.secret,
                "revoked": sorted(ledger.revoked),
                "shares": [
                    [s.x, s.y, s.k, s.epoch, ledger.prime]
                    for _, s in sorted(ledger.shares.items())
                ],
                "adversary_shares": [
                    [s.x, s.y, s.k, s.epoch, ledger.prime]
                    for _, s in sorted(state.adversary_shares.get(cid, {}).items())
                ],
            }
            for cid, ledger in sorted(state.share_ledger.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def audit_dump(payload: Mapping) -> AuditResult:
    """Run the secrecy audit over a previously dumped state.

    A dump that lacks a field or holds a value of the wrong shape raises
    ``ValidationError``.
    """
    entries = []
    anomalies: list[str] = []
    try:
        for cluster in payload.get("clusters", []):
            held = [Share(x, y, k, epoch) for x, y, k, epoch, _prime in cluster["adversary_shares"]]
            entry, extra = _audit_cluster(
                cluster["cluster_id"],
                cluster["k"],
                payload["prime"],
                cluster["epoch"],
                cluster.get("secret"),
                held,
            )
            entries.append(entry)
            anomalies.extend(extra)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state dump: {type(exc).__name__}: {exc}") from None
    return AuditResult(tuple(entries), tuple(anomalies))


def run(scenario, out_path, state_out=None) -> MetricsReport:
    """Simulate a scenario (a loaded ``Scenario`` or a path to one) and write
    the metrics CSV, partial on early halt."""
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    state = initialize(scenario)
    while state.round < scenario.rounds and not state.halted:
        step(state)
    write_metrics(state.metrics, out_path)
    if state_out:
        dump_state(state, state_out)
    return MetricsReport(tuple(state.metrics), tuple(state.violations), state.halted, state.round)
