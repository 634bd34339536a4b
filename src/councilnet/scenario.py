"""Scenario files: the node specs, adversary and run settings of a simulation.

``load_scenario`` reads a JSON file through ``read_json``, which raises
``ParseError`` on any file it cannot read or decode, and ``scenario_from_dict``
validates the decoded object, applying the documented defaults; any malformed
field, and any key that names no field of ``Scenario``, ``NodeSpec`` or
``Adversary`` where it stands, raises ``ValidationError``.  Ids, numbers,
positions, the radius, edges (the link rule) and the adversary's nodes (the
id rule) follow ``graph``'s rules, and the field prime ``shamir``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Optional

from .errors import DuplicateNid, ParseError, UnknownNode, ValidationError
from .graph import (
    MAX_COORDINATE, NodeId, Position, _check_link, _check_nid, _checked_position, _checked_radius, _is_int, _real
)
from .shamir import DEFAULT_PRIME, _check_prime


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


def check_field_prime(prime, max_nid: NodeId, name: str) -> None:
    """Raise ``ValidationError`` unless ``prime`` obeys ``shamir``'s prime rule and exceeds every node id.

    A share's x coordinate is its holder's id, so an id at or above the
    prime would alias another holder or the secret itself at x = 0.
    ``name`` labels the setting in the message.
    """
    _check_prime(prime, name)
    if prime <= max_nid:
        raise ValidationError(f"{name} must exceed every node id, but {prime} <= node id {max_nid}")


_NOT_A_POSITION = f"a position must be two numbers within ±{MAX_COORDINATE:g}"


def _obeying(rule, *args, msg: str):
    """``rule(*args)``, one of ``graph``'s, its ``ValueError`` re-raised saying ``msg``."""
    try:
        return rule(*args)
    except ValueError:
        raise ValidationError(msg) from None


def read_json(path):
    """Decode a UTF-8 JSON file; any failure to read or decode it raises
    ``ParseError``."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer over the digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to decode") from None


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file, applying documented defaults."""
    path = Path(path)
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data: Mapping, source: str = "scenario") -> Scenario:
    def fail(msg: str) -> None:
        raise ValidationError(f"{source}: {msg}")

    def refuse_unknown(raw: Mapping, cls, where: str) -> None:
        # A key is accepted only as the name of a field of ``cls``.
        known = {f.name for f in fields(cls)}
        unknown = sorted(str(key) for key in raw if key not in known)
        if unknown:
            fail(f"unknown keys {unknown} {where}")

    refuse_unknown(data, Scenario, "at the top level")
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
        _obeying(_check_nid, nid, msg=f"{source}: nodes[{i}]: nid must be a positive integer")
        refuse_unknown(entry, NodeSpec, f"in node {nid}")
        try:
            _check_nid(nid, seen)
        except DuplicateNid as exc:
            fail(str(exc))
        seen.add(nid)
        pos = entry.get("pos")
        if pos is None and not static:
            fail(f"node {nid}: 'pos' is required unless an explicit edge list is given")
        if pos is not None:
            pos = _obeying(_checked_position, nid, pos, msg=f"{source}: node {nid}: {_NOT_A_POSITION}")
        waypoints_raw = entry.get("waypoints", [])
        if not isinstance(waypoints_raw, list):
            fail(f"node {nid}: 'waypoints' must be a list of positions")
        waypoints = tuple(
            _obeying(_checked_position, nid, wp, msg=f"{source}: node {nid} waypoint {j}: {_NOT_A_POSITION}")
            for j, wp in enumerate(waypoints_raw)
        )
        speed = _real(entry.get("speed", NodeSpec.speed))
        if speed is None or speed < 0:
            fail(f"node {nid}: speed must be a number >= 0")
        if static and (waypoints or speed > 0):
            fail(f"node {nid}: an edge-list topology is static; drop waypoints and speed")
        specs.append(NodeSpec(nid, pos, waypoints, speed))

    rounds = data.get("rounds", 0)
    if not _is_int(rounds) or rounds < 0:
        fail("'rounds' must be a non-negative integer")
    seed = data.get("seed", 0)
    if not _is_int(seed):
        fail("'seed' must be an integer")

    radius = data.get("radius")
    if radius is not None:
        msg = f"{source}: 'radius' must be a positive number up to {MAX_COORDINATE:g}"
        radius = _obeying(_checked_radius, radius, msg=msg)
    if not static and radius is None:
        fail("'radius' is required for position-based scenarios")

    edges = None
    if static:
        if not isinstance(edges_raw, list):
            fail("'edges' must be a list of pairs")
        edges = []
        for j, pair in enumerate(edges_raw):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                fail(f"edges[{j}] must be a pair of node ids")
            try:
                _check_link(seen, *pair)
            except (ValueError, UnknownNode) as exc:
                raise ValidationError(f"{source}: edges[{j}]: {exc}") from None
            edges.append(tuple(pair))
        edges = tuple(edges)

    hello = data.get("hello_interval_rounds", Scenario.hello_interval_rounds)
    if not _is_int(hello) or hello < 1:
        fail("'hello_interval_rounds' must be a positive integer")
    refresh = data.get("refresh_interval_rounds", Scenario.refresh_interval_rounds)
    if not _is_int(refresh) or refresh < 0:
        fail("'refresh_interval_rounds' must be a non-negative integer")

    threshold = _real(data.get("gateway_threshold", Scenario.gateway_threshold))
    if threshold is None or not 0.0 <= threshold <= 1.0:
        fail("'gateway_threshold' must lie in [0, 1]")

    prime = data.get("field_prime", Scenario.field_prime)
    check_field_prime(prime, max(seen), f"{source}: 'field_prime'")

    adversary = None
    adv_raw = data.get("adversary")
    if adv_raw is not None:
        if not isinstance(adv_raw, dict):
            fail("'adversary' must be an object")
        refuse_unknown(adv_raw, Adversary, "in 'adversary'")
        comp_round = adv_raw.get("compromise_round")
        # Rounds are numbered from 1 and initialize never compromises, so an
        # adversary at round 0 would never act.
        if not _is_int(comp_round) or comp_round < 1:
            fail("adversary 'compromise_round' must be an integer >= 1")
        adv_nodes = adv_raw.get("nodes", [])
        if not isinstance(adv_nodes, list):
            fail("adversary 'nodes' must be a list of node ids")
        for n in adv_nodes:
            _obeying(_check_nid, n, msg=f"{source}: adversary 'nodes' must be a list of node ids")
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

