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
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .audit import audit_secrecy
from .errors import DisconnectedTopology, UnknownNode
from .graph import (
    NodeId,
    Position,
    Topology,
    build_topology,
    is_connected,
    neighbors,
    topology_from_edges,
)
from .ledger import ClusterLedger
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
# scenario_from_dict is re-exported for callers that build scenarios via sim.
from .scenario import Scenario, load_scenario, scenario_from_dict

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
    miss_counts: dict[NodeId, int] = field(default_factory=dict)
    decision_log: list[tuple[int, ClusterId, str, int, float]] = field(default_factory=list)
    metrics: list[MetricsRow] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    halted: bool = False


def _build_topology(sc: Scenario, positions: Mapping[NodeId, Position]) -> Topology:
    if sc.static:
        pos = positions if positions else None
        return topology_from_edges([s.nid for s in sc.nodes], sc.edges, pos, sc.radius)
    return build_topology(sorted(positions.items()), sc.radius)


def _split_all(state: SimState) -> None:
    """Draw a fresh secret per cluster and split it across the council."""
    state.share_ledger = {
        c.cluster_id: ClusterLedger.split(c, state.scenario.field_prime, state.rng, state.compromised)
        for c in state.partition.clusters
    }


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
        healths={c.cluster_id: baseline_health(c) for c in partition.clusters},
        rng=random.Random(sc.seed),
    )
    _split_all(state)
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


def _do_reform(state: SimState) -> None:
    state.partition = reform(state.topology)
    _split_all(state)
    state.healths = {c.cluster_id: baseline_health(c) for c in state.partition.clusters}
    state.miss_counts = {}


def _maintenance_pass(state: SimState, round_no: int) -> tuple[bool, bool]:
    """Detect departures and visitors, then classify each cluster's health.

    Returns (local updates applied, reform performed).  A node counts as
    departed once it has been out of touch with its cluster for two
    consecutive HELLO exchanges.  A visitor that joins a council gets its
    share only once the pass has decided not to re-form.
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
    joined: list[tuple[ClusterId, NodeId]] = []
    for nid in departed:
        cid = p.node_index[nid]
        prior_role = p.cluster(cid).role_of(nid)
        p, state.healths[cid] = handle_departure(p, nid, state.healths[cid])
        state.share_ledger[cid].revoke(nid)
        state.miss_counts[nid] = 0
        changed = True

        dest = min(p.head_clusters(neighbors(t, nid)) - {cid}, default=None)
        if dest is None:
            stranded = True
            continue
        p, tag = handle_visitor(t, p, nid, dest, prior_role=prior_role)
        dest_health = state.healths[dest]
        state.healths[dest] = replace(dest_health, arrivals=dest_health.arrivals + 1)
        if tag == "issue_new_share":
            joined.append((dest, nid))

    state.partition = p

    decisions = {
        c.cluster_id: classify_change(state.healths[c.cluster_id], c.k, sc.gateway_threshold)
        for c in p.clusters
    }
    for cid in sorted(decisions):
        action = decisions[cid]
        if action is not MaintenanceAction.NONE:
            health = state.healths[cid]
            state.decision_log.append(
                (round_no, cid, action.value, health.heads_departed, health.gateways_lost_fraction)
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
    for dest, nid in joined:
        problem = state.share_ledger[dest].issue(nid, state.compromised)
        if problem:
            state.violations.append(problem)
    return changed, False


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
    for ledger in state.share_ledger.values():
        ledger.leak(nodes)
    return state


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
        for cid in sorted(state.share_ledger):
            state.share_ledger[cid].refresh(state.rng, state.compromised)

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

    def rows(ledger: ClusterLedger, shares: Mapping) -> list[list[int]]:
        return [[s.x, s.y, ledger.k, s.epoch, ledger.prime] for _, s in sorted(shares.items())]

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
                "shares": rows(ledger, ledger.shares),
                "adversary_shares": rows(ledger, ledger.leaked),
            }
            for cid, ledger in sorted(state.share_ledger.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


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
