"""Outside-in layer tracing for the benchmark.

The tracer swaps timing wrappers into the module attributes through which
the engine calls each layer (``councilnet.sim.build_topology``,
``councilnet.maintenance.cluster_form`` and so on).  A layer function is
found by name among the loaded ``councilnet`` modules, and every module
attribute bound to it is replaced, so the wrappers keep catching all calls
when a function moves to another module.  Nothing in ``src/`` is edited.

Each call becomes one span ``(layer, start_ns, end_ns, parent, round)``
kept in memory; self time is a span's duration minus that of its child
spans.  Counts that the wrappers see (shares split, backbone size, ...) are
accumulated per round next to the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# Layer name -> function name.  ``neighbors`` is deliberately absent: it runs
# millions of times per round and a wrapper would dwarf what it measures.
LAYERS = {
    "graph.build_topology": "build_topology",
    "graph.topology_from_edges": "topology_from_edges",
    "phase1.node_states": "node_states",
    "phase1.elect_heads": "elect_heads",
    "phase1.identify_gateways": "identify_gateways",
    "phase1.build_dominating_set": "build_dominating_set",
    "phase2.cluster_form": "cluster_form",
    "phase2.verify_partition": "verify_partition",
    "maintenance.reform": "reform",
    "maintenance.handle_departure": "handle_departure",
    "maintenance.handle_visitor": "handle_visitor",
    "shamir.split_secret": "split_secret",
    "shamir.refresh_shares": "refresh_shares",
    "shamir.issue_share": "issue_share",
    "shamir.reconstruct": "reconstruct",
    "sim.audit_secrecy": "audit_secrecy",
    "sim.initialize": "initialize",
    "sim.step": "step",
}


def _pairs(t) -> int:
    n = len(t.nodes)
    return n * (n - 1) // 2


# Layer -> {count name: function of the layer's return value}.
RESULT_COUNTS = {
    "graph.build_topology": {"graph.pairs_tested": _pairs, "graph.built_edges": lambda t: len(t.edges)},
    "phase1.node_states": {"phase1.hello_messages": len},
    "phase1.build_dominating_set": {"phase1.backbone_size": lambda d: d.size},
    "shamir.split_secret": {"shamir.shares_split": len},
    "shamir.refresh_shares": {"shamir.shares_refreshed": len},
}


def _program_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "councilnet" and m]


def program_attr(name: str):
    """The one object called ``name`` defined in a ``councilnet`` module."""
    found = {id(vars(m)[name]): vars(m)[name] for m in _program_modules() if name in vars(m)}
    if len(found) != 1:
        raise LookupError(f"expected one program object named {name!r}, found {len(found)}")
    return next(iter(found.values()))


class Tracer:
    """Records spans and per-round counts while installed."""

    def __init__(self) -> None:
        self.round = 0
        self.spans: list = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, RESULT_COUNTS.get(layer, {})
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.round)
            if counts:
                tally = self.counts[self.round]
                for key, count in counts.items():
                    tally[key] += count(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = _program_modules()
        for layer, fname in LAYERS.items():
            original = program_attr(fname)
            wrapper = self._wrap(layer, original)
            for m in modules:
                if vars(m).get(fname) is original:
                    self._patched.append((m, fname, original))
                    setattr(m, fname, wrapper)

    def uninstall(self) -> None:
        for m, fname, original in reversed(self._patched):
            setattr(m, fname, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_times(self, rounds) -> dict[str, dict[str, int]]:
        """Per layer: calls, inclusive ns and self ns over spans of ``rounds``."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        wanted = set(rounds)
        out: dict[str, dict[str, int]] = {layer: {"calls": 0, "ns": 0, "self_ns": 0} for layer in LAYERS}
        for i, (layer, start, end, _, rnd) in enumerate(self.spans):
            if rnd in wanted:
                row = out[layer]
                row["calls"] += 1
                row["ns"] += end - start
                row["self_ns"] += end - start - child_ns[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("layer,start_ns,end_ns,parent,round\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
