"""Scenario-driven, round-based simulator.

Each round: nodes move along their waypoints, a HELLO round (every
``hello_interval_rounds``) counts one broadcast per node and runs the
maintenance pass, shares are refreshed or re-split as needed, any scheduled
compromise fires, and one metrics row is recorded.  ``maintenance.plan_pass``
decides each pass from the last pass's memory, and this module only applies
its plan.  Runs are deterministic for a given scenario and seed.

A round in which nodes moved hands only the movers to ``move_nodes``, whose
topology builds its links under the disk rule when a layer first reads
them: a re-formation, or a caller of ``edges``.  The in-touch scan asks
``hearing_none``; the partition check asks it and one ``neighbor_index``
of the heads; and a departed node's visit asks an index of the heads,
built once per pass, for the heads it hears.  None of them builds, so a
HELLO round that does not re-form builds no neighbour sets.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .audit import audit_secrecy
from .errors import DisconnectedTopology, UnknownNode
from .graph import (
    MAX_COORDINATE,
    NodeId,
    Position,
    Topology,
    _check_nid,
    build_topology,
    move_nodes,
    topology_from_edges,
)
from .ledger import ClusterLedger
from .maintenance import PassMemory, plan_pass, reform
from .phase1 import ClusterId
from .phase2 import Partition
# scenario_from_dict is re-exported for callers that build scenarios via sim.
from .scenario import Scenario, load_scenario, scenario_from_dict

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


# The CSV header: MetricsRow's fields, in order.
METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRow))


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
    # Waypoint queues, kept only for nodes that have waypoints and a speed
    # above 0, and those nodes' speeds; the positions are the topology's.
    pending_waypoints: dict[NodeId, list[Position]]
    speeds: dict[NodeId, float]
    topology: Topology
    partition: Partition
    share_ledger: dict[ClusterId, ClusterLedger]
    rng: random.Random
    compromised: set[NodeId] = field(default_factory=set)
    # A cluster without a health is the very object the last re-form installed.
    memory: PassMemory = PassMemory()
    decision_log: list[tuple[int, ClusterId, str, int, float]] = field(default_factory=list)
    metrics: list[MetricsRow] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    halted: bool = False


def _install(state: SimState, partition: Partition) -> None:
    """Install a freshly formed partition, with a fresh pass memory and a
    fresh secret split across each council."""
    state.partition = partition
    state.memory = PassMemory()
    state.share_ledger = {
        c.cluster_id: ClusterLedger.split(c, state.scenario.field_prime, state.rng, state.compromised)
        for c in partition.clusters
    }


def initial_formation(sc: Scenario) -> tuple[Topology, Partition]:
    """Build the scenario's initial topology, from its edge list or its
    positions, and form clusters on it; a disconnected topology raises
    ``DisconnectedTopology``."""
    if sc.static:
        topology = topology_from_edges([s.nid for s in sc.nodes], sc.edges)
    else:
        topology = build_topology(sorted((s.nid, s.pos) for s in sc.nodes), sc.radius)
    try:
        return topology, reform(topology)
    except DisconnectedTopology:
        raise DisconnectedTopology("initial topology must be connected") from None


def initialize(sc: Scenario) -> SimState:
    """Form the initial clusters, then set up the walkers, the run's random
    stream and a secret split across each council."""
    topology, partition = initial_formation(sc)
    walkers = [s for s in sc.nodes if s.waypoints and s.speed > 0]
    state = SimState(
        scenario=sc,
        round=0,
        pending_waypoints={s.nid: list(s.waypoints) for s in walkers},
        speeds={s.nid: s.speed for s in walkers},
        topology=topology,
        partition=partition,
        share_ledger={},
        rng=random.Random(sc.seed),
    )
    _install(state, partition)
    return state


def _move_nodes(state: SimState) -> dict[NodeId, Position]:
    """Walk each node with waypoints left along them at its speed, from its
    position in ``state.topology``; return the nodes whose position changed,
    at their new positions.  A topology without positions raises
    ``ValueError`` while any walker has waypoints left, before any queue is
    consumed.  A short step toward a waypoint on ±``MAX_COORDINATE`` can
    round one ulp past it; it is clamped back to the bound, within rounding
    of the exact point, and only a run that was refused before changes."""
    positions = state.topology.positions
    if positions is None and any(state.pending_waypoints.values()):
        raise ValueError("the topology has no node positions to move walkers from")
    moved: dict[NodeId, Position] = {}
    for nid, queue in state.pending_waypoints.items():
        if not queue:
            continue
        x, y = start = positions[nid]
        budget = state.speeds[nid]
        while queue and budget > 0:
            tx, ty = queue[0]
            dist = math.hypot(tx - x, ty - y)
            if dist <= budget:
                x, y = tx, ty
                budget -= dist
                queue.pop(0)
            else:
                x += (tx - x) / dist * budget
                y += (ty - y) / dist * budget
                budget = 0.0
                if abs(x) > MAX_COORDINATE or abs(y) > MAX_COORDINATE:
                    x, y = (min(max(v, -MAX_COORDINATE), MAX_COORDINATE) for v in (x, y))
        if (x, y) != start:
            moved[nid] = (x, y)
    return moved


def _maintenance_pass(state: SimState, round_no: int) -> tuple[bool, bool]:
    """Apply ``plan_pass``'s plan for this HELLO pass; returns (local
    updates applied, reform performed)."""
    t, p = state.topology, state.partition
    plan = plan_pass(t, p, state.memory, state.scenario.gateway_threshold)
    for nid in plan.departed:
        # Its share, if any, is in the ledger of its cluster before the pass.
        state.share_ledger[p.node_index[nid]].revoke(nid)
    state.partition, state.memory = plan.partition, plan.memory
    state.decision_log += [(round_no, *entry) for entry in plan.log]
    if plan.reforms:
        _install(state, reform(t))
        return False, True
    for dest, nid in plan.joined:
        problem = state.share_ledger[dest].issue(nid, state.compromised)
        if problem:
            state.violations.append(problem)
    return bool(plan.departed), False


def compromise(state: SimState, nodes) -> SimState:
    """Hand the adversary the current shares held by the given nodes.

    The compromised set is static: future shares of these nodes keep
    leaking, but refreshed shares of untouched nodes never do.  A node that
    breaks ``graph``'s id rule raises ``ValueError``, and one outside the
    topology ``UnknownNode``, before anything changes.
    """
    nodes = list(nodes)
    for nid in nodes:
        _check_nid(nid)
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

    moved = _move_nodes(state)
    if moved:
        state.topology = move_nodes(state.topology, moved)

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


def _check_creatable(path) -> None:
    """Raise the ``OSError`` that writing ``path`` would, without creating
    it: its folder must be an existing directory, and it must be a writable
    file or a new name in a writable folder."""
    target = Path(path)
    folder = target.parent
    if not folder.is_dir():
        code = errno.ENOTDIR if folder.exists() else errno.ENOENT
    elif target.is_dir():
        code = errno.EISDIR
    elif not os.access(target if target.exists() else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), str(path))


def run(scenario, out_path, state_out=None) -> MetricsReport:
    """Simulate a scenario (a loaded ``Scenario`` or a path to one) and write
    the metrics CSV, partial on early halt.

    Both output paths are checked before round 1, so an output that cannot
    be created, or one path given twice, raises ``OSError`` with nothing written.
    """
    if not isinstance(scenario, Scenario):
        scenario = load_scenario(scenario)
    for path in (out_path, state_out) if state_out else (out_path,):
        _check_creatable(path)
    if state_out:
        exist = os.path.exists(out_path) and os.path.exists(state_out)
        if os.path.samefile(out_path, state_out) if exist else Path(out_path).resolve() == Path(state_out).resolve():
            raise OSError(f"the metrics and the state dump are one file: {state_out}")
    state = initialize(scenario)
    while state.round < scenario.rounds and not state.halted:
        step(state)
    write_metrics(state.metrics, out_path)
    if state_out:
        dump_state(state, state_out)
    return MetricsReport(tuple(state.metrics), tuple(state.violations), state.halted, state.round)
