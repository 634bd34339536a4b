"""A kept list of mutants that the test suite must kill.

Each entry names one small edit to the source: a file, a text that must
occur in it exactly once, the text that replaces it, and the pytest
selection that must catch it.  The runner first runs each selection once on
an unmutated copy of the tree.  Then, for each entry, it copies the tree to
a temporary directory, applies the edit there and runs the selection with
``pytest -x``; the mutant is killed when that run reports a failing test.
Every run draws Hypothesis examples from seed 0, so a verdict does not
change from one run to the next.  The checkout itself is never edited.

Run from the repository root, stdlib only (pytest runs in a subprocess)::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 1 unless every one is killed.  A
mutant SURVIVED when its selection passed; it is STALE when its text no
longer occurs exactly once; it is BROKEN when its selection already fails
on the unmutated tree, where a failure would kill any mutant.
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
        "edge-order-kept-after-a-bad-edge",
        "src/councilnet/graph.py",
        "            increasing = False\n",
        "            pass\n",
        ("tests/test_graph.py",),
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
        "hearing-none-misses-a-link-at-the-radius",
        "src/councilnet/graph.py",
        "                if dx * dx + dy * dy <= r2 and v != u:\n                    break\n",
        "                if dx * dx + dy * dy < r2 and v != u:\n                    break\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "cell-index-misses-a-link-at-the-radius",
        "src/councilnet/graph.py",
        "                    if dx * dx + dy * dy <= r2 and v != u:\n                        found.append(v)\n",
        "                    if dx * dx + dy * dy < r2 and v != u:\n                        found.append(v)\n",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "strip-window-stops-short",
        "src/councilnet/graph.py",
        "near = us[i + 1:bisect_right(xs, ux + cell, i + 1)]",
        "near = us[i + 1:bisect_left(xs, ux + cell, i + 1)]",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "front-sliced-when-the-stale-sets-differ",
        "src/councilnet/graph.py",
        "if stale.keys() == old_stale.keys():",
        "if len(stale) == len(old_stale):",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "hand-assembled-base-reused",
        "src/councilnet/graph.py",
        'if getattr(base, "_swept", None) is None:',
        "if base is None:",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "kept-windows-skip-the-strip-below",
        "src/councilnet/graph.py",
        "for k in (key - 1, key, key + 1) if k in kept]",
        "for k in (key, key + 1) if k in kept]",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "front-one-link-short",
        "src/councilnet/graph.py",
        "list(old[u][: front[u]])",
        "list(old[u][: front[u] - 1])",
        ("tests/test_graph.py",),
    ),
    Mutant(
        "leak-ignores-revocation",
        "src/councilnet/ledger.py",
        "            held -= self.revoked\n",
        "            pass\n",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "leak-shortcut-taken-while-one-holder-is-revoked",
        "src/councilnet/ledger.py",
        "if held and self.revoked:",
        "if held and len(self.revoked) > 1:",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "refresh-skips-the-leak",
        "src/councilnet/ledger.py",
        "        self.epoch += 1\n        self.leak(compromised)\n",
        "        self.epoch += 1\n",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "pending-blind-keeps-only-the-newest-draw",
        "src/councilnet/ledger.py",
        "self._pending = list(map(add, self._pending, reversed(draws)))",
        "self._pending = draws[::-1]",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "epoch-check-skipped-with-nothing-pending",
        "src/councilnet/ledger.py",
        "epoch = _common_epoch(live)",
        "epoch = live[0].epoch",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "first-deferral-keeps-the-dict-a-caller-read",
        "src/councilnet/ledger.py",
        "            self._shares = dict(zip(holders, live))\n",
        "            if self.revoked:\n                self._shares = dict(zip(holders, live))\n",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "revocation-under-a-pending-blind-skips-the-check-branch",
        "src/councilnet/ledger.py",
        "if self._pending is None or self.revoked:",
        "if self._pending is None:",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "blind-starts-on-shares-at-another-epoch",
        "src/councilnet/ledger.py",
        "if epoch != self.epoch:",
        "if False:",
        ("tests/test_ledger.py",),
    ),
    Mutant(
        "singleton-refresh-reseeds",
        "src/councilnet/shamir.py",
        "    if count == 0:\n        return []\n",
        "",
        ("tests/test_ledger.py::TestFoldedBlinds",),
    ),
    Mutant(
        "partition-index-without-gateways",
        "src/councilnet/phase2.py",
        "            index.update(dict.fromkeys(c.gateways, c.cluster_id))\n",
        "",
        ("tests/test_phase2.py",),
    ),
    Mutant(
        "adjacent-heads-reported-both-ways",
        "src/councilnet/phase2.py",
        "                if j > i:\n",
        "                if j != i:\n",
        ("tests/test_phase2.py",),
    ),
    Mutant(
        "council-clique-without-its-narrowing",
        "src/councilnet/phase2.py",
        "                    common = common.intersection(adj[w])\n",
        "",
        ("tests/test_formation.py",),
    ),
    Mutant(
        "gateways-include-heads",
        "src/councilnet/phase1.py",
        "if nid != cid and not clusters[cid].issuperset(adj[nid])",
        "if not clusters[cid].issuperset(adj[nid])",
        ("tests/test_phase1.py",),
    ),
    Mutant(
        "freeze-drops-a-gateway-only-cluster",
        "src/councilnet/maintenance.py",
        "if c.council.heads or c.members or c.gateways]",
        "if c.council.heads or c.members]",
        ("tests/test_maintenance.py",),
    ),
    Mutant(
        "heads-trigger-not-strict",
        "src/councilnet/maintenance.py",
        "if health.heads_departed > health.n0 - k:",
        "if health.heads_departed >= health.n0 - k:",
        ("tests/test_maintenance.py",),
    ),
    Mutant(
        "gateway-trigger-not-strict",
        "src/councilnet/maintenance.py",
        "if health.gateways_lost_fraction > gateway_threshold:",
        "if health.gateways_lost_fraction >= gateway_threshold:",
        ("tests/test_maintenance.py",),
    ),
    Mutant(
        "lone-head-scanned-for-company",
        "src/councilnet/maintenance.py",
        "if others or len(heads) > 1:",
        "if True:",
        ("tests/test_sim.py",),
    ),
    Mutant(
        "quiet-pass-with-a-miss-pending",
        "src/councilnet/maintenance.py",
        "memory.clean[1] is p and not memory.missed",
        "memory.clean[1] is p",
        ("tests/test_sim.py",),
    ),
    Mutant(
        "breach-needs-more-than-k",
        "src/councilnet/audit.py",
        "breached = count >= k",
        "breached = count > k",
        ("tests/test_sim.py",),
    ),
    Mutant(
        "audit-ignores-a-held-zero-point",
        "src/councilnet/audit.py",
        "return 1 if 0 in points else prime",
        "return prime",
        ("tests/test_shamir.py",),
    ),
]


SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out")


def copy_tree(tmp: str) -> Path:
    tree = Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(*SKIPPED))
    return tree


def run_selection(tree: Path, selection: tuple[str, ...]) -> int:
    """Run ``selection`` in ``tree`` at Hypothesis seed 0; pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *selection],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def passing(selections: set[tuple[str, ...]]) -> set[tuple[str, ...]]:
    """The selections that pass on an unmutated copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="councilnet-mutant-") as tmp:
        tree = copy_tree(tmp)
        return {selection for selection in selections if run_selection(tree, selection) == 0}


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or ``STALE`` (the old text does not occur
    exactly once)."""
    source = (ROOT / mutant.file).read_text()
    if source.count(mutant.old) != 1:
        return "STALE"
    with tempfile.TemporaryDirectory(prefix="councilnet-mutant-") as tmp:
        tree = copy_tree(tmp)
        (tree / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        code = run_selection(tree, mutant.selection)
    # pytest exits 1 when a test failed; 2-5 mean the run itself went wrong
    # (an interruption, a usage error or nothing collected), which kills nothing.
    return "killed" if code == 1 else "SURVIVED"


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    mutants = [known[n] for n in names] if names else MUTANTS
    sound = passing({m.selection for m in mutants})
    bad = 0
    for mutant in mutants:
        verdict = run(mutant) if mutant.selection in sound else "BROKEN"
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
