"""A kept list of mutants that the test suite must kill.

Each entry names one small edit to the source: a file, a text that must
occur in it exactly once, the text that replaces it, and the pytest
selection that must catch it.  For each entry the runner copies the tree to
a temporary directory, applies the edit there and runs the selection with
``pytest -x``; the mutant is killed when that run reports a failing test.
The checkout itself is never edited.

Run from the repository root, stdlib only (pytest runs in a subprocess)::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 1 if any survived or its text no
longer occurs exactly once, which means the entry is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


MUTANTS = [
    Mutant(
        "reform-without-connectivity-check",
        "src/councilnet/maintenance.py",
        '    if not is_connected(t):\n        raise DisconnectedTopology("head election requires a connected topology")\n',
        "",
        ("tests/test_maintenance.py::TestReform",),
    ),
    Mutant(
        "no-empty-council-message",
        "src/councilnet/phase2.py",
        '            violations.append(f"cluster {cid} has an empty council")\n',
        "            pass\n",
        ("tests/test_phase2.py::TestVerifyPartition",),
    ),
    Mutant(
        "departs-on-a-first-miss",
        "src/councilnet/maintenance.py",
        "return sorted(out & missed), frozenset(out - missed)",
        "return sorted(out), frozenset(out - missed)",
        ("tests/test_small_scope.py::test_planner_on_every_pass_pair",),
    ),
    Mutant(
        "clean-memory-on-an-unsettled-pass",
        "src/councilnet/maintenance.py",
        "(t, p) if settled and not (damaged or departed) else None",
        "(t, p) if not (damaged or departed) else None",
        ("tests/test_small_scope.py::test_planner_on_every_pass_pair",),
    ),
    Mutant(
        "edge-list-without-its-set-test",
        "src/councilnet/graph.py",
        "if increasing or ascending and type(edges) in (list, tuple) and len(set(edges)) == len(edges):",
        "if increasing or ascending and type(edges) in (list, tuple):",
        ("tests/test_graph.py::TestBuildTopology::test_both_builders_store_distinct_symmetric_tuples",),
    ),
    Mutant(
        "edge-list-order-test-not-strict",
        "src/councilnet/graph.py",
        "increasing = edge > last",
        "increasing = edge >= last",
        ("tests/test_graph.py::TestBuildTopology::test_both_builders_store_distinct_symmetric_tuples",),
    ),
    Mutant(
        "node-list-without-its-repeat-test",
        "src/councilnet/graph.py",
        "if type(u) is not int or u < 1 or u in adj:",
        "if type(u) is not int or u < 1:",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "leak-tests-the-leaked-shares",
        "src/councilnet/ledger.py",
        "if compromised.isdisjoint(self.shares):",
        "if compromised.isdisjoint(self.leaked):",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "partition-index-without-gateways",
        "src/councilnet/phase2.py",
        "            index.update(dict.fromkeys(c.gateways, c.cluster_id))\n",
        "",
        ("tests/test_phase2.py",),
    ),
    Mutant(
        "council-clique-without-its-narrowing",
        "src/councilnet/phase2.py",
        "                    common = common.intersection(adj[w])\n",
        "",
        ("tests/test_formation.py",),
    ),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or ``STALE`` (the old text does not occur
    exactly once)."""
    with tempfile.TemporaryDirectory(prefix="councilnet-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        skipped = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*skipped))
        path = tree / mutant.file
        source = path.read_text()
        if source.count(mutant.old) != 1:
            return "STALE"
        path.write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.selection],
            cwd=tree,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    # pytest exits 1 when a test failed; 2-5 mean the run itself went wrong
    # (an interruption, a usage error or nothing collected), which kills nothing.
    return "killed" if result.returncode == 1 else "SURVIVED"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in [known[n] for n in names] if names else MUTANTS:
        verdict = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
