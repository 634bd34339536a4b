#!/usr/bin/env python3
"""Layered benchmark of the councilnet round engine.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For one workload it generates the seeded scenario (``scenarios.py``, which
does not import the program), times ``initialize`` several times, then steps
a fixed number of rounds: ``--seconds`` divided by the workload's nominal
round time, and never fewer than ``MIN_ROUNDS``.  With ``--trace 0`` the pass
is untraced and yields the end-to-end metrics; with ``--trace 1`` the layer
entry points are wrapped (``tracer.py``) and the pass yields the per-layer
metrics.  Timings are calibrated to a reference host speed
(``hostspeed.py``).  Every run then replays the first ``CHECK_ROUNDS`` rounds
from a fresh ``initialize`` and gates on identical output digests and work
counts; at the default seed the digests must also equal those stored in
``digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the gate verdict and the environment.
Spans and a full result record are written under ``perfbench/out/``.
``--workload all`` runs every workload in its own process, one after the
other.  ``--write-digests`` stores the digests of the default seed instead
of comparing them; use it only when a change is meant to alter the
simulated output.  See ``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

from hostspeed import PROBE_REF_NS, calibrate, probe_ns  # noqa: E402
from scenarios import WORKLOADS  # noqa: E402
from tracer import LAYERS, Tracer, program_attr  # noqa: E402

DEFAULT_SEED = 1
# A p90 over at least 100 rounds has at least ten samples beyond it.
MIN_ROUNDS = 100
# Round time at the reference host speed; a run steps --seconds / this many
# rounds, so both sides of a comparison do the same work.
NOMINAL_ROUND_S = {"waypoint-1k": 0.17, "static-5k": 0.36, "audit-p17": 0.05}
# Mobile partitions go stale while departures are being detected; after the
# measured rounds the run keeps stepping (unmeasured) until the partition
# verifies, for at most this many rounds.
SETTLE_ROUNDS = 25
# Rounds replayed by the correctness gate: each covers a re-formation or a
# refresh and the adversary's capture on its workload.
CHECK_ROUNDS = {"waypoint-1k": 12, "static-5k": 4, "audit-p17": 20}
# initialize() is timed at least SETUP_MIN times and until SETUP_BUDGET_S.
SETUP_MIN = 5
SETUP_BUDGET_S = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "node_rounds_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "round_ok_ratio": "ratio",
}


class Program:
    """The ``councilnet`` package of this checkout, imported from ``src/``."""

    def __init__(self) -> None:
        src = ROOT / "src"
        if not (src / "councilnet" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no councilnet sources under {src}")
        sys.path.insert(0, str(src))
        import councilnet.sim

        if Path(councilnet.__file__).resolve().parent != (src / "councilnet").resolve():
            raise SystemExit(f"perfbench: imported councilnet from {councilnet.__file__}, not {src}")
        self.sim = councilnet.sim
        # Bound before any tracer is installed, so the benchmark's own checks
        # never show up as spans.
        self.initialize = program_attr("initialize")
        self.step = program_attr("step")
        self.verify_partition = program_attr("verify_partition")
        self.small_prime_limit = program_attr("SMALL_PRIME_LIMIT")
        self.brute_force_limit = program_attr("BRUTE_FORCE_LIMIT")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def partition_json(partition) -> str:
    clusters = sorted(partition.clusters, key=lambda c: c.cluster_id)
    return json.dumps(
        [
            [c.cluster_id, sorted(c.council.heads), sorted(c.members), sorted(c.gateways), c.n, c.k]
            for c in clusters
        ]
    )


class Pass:
    """One run of a scenario from a fresh ``initialize``."""

    def __init__(self, prog: Program, sc, tag: str, stem: str, checkpoint: int,
                 tracer: Tracer | None = None) -> None:
        self.prog, self.sc, self.tag, self.stem, self.checkpoint = prog, sc, tag, stem, checkpoint
        self.tracer = tracer
        self.step_ns: list[int] = []
        self.probe_ns: list[int] = []
        self.measured = 0
        self.failed_rounds = 0
        self.counts: list[tuple] = []
        self.digests: dict[str, str] = {}
        self.state = None
        self.error: str | None = None

    def _round_counts(self, prev_edges) -> tuple:
        """Work counts of the round just stepped, derived from program state."""
        state, prog = self.state, self.prog
        edges = state.topology.edges
        sizes = [c.n for c in state.partition.clusters]
        polys = drift = 0
        for c in state.partition.clusters:
            ledger = state.share_ledger.get(c.cluster_id)
            if ledger is None:
                continue
            drift += ledger.k != c.k
            space = ledger.prime**ledger.k
            if ledger.prime <= prog.small_prime_limit and space <= prog.brute_force_limit:
                polys += space
        links = 0 if edges is prev_edges else len(edges ^ prev_edges)
        base = (len(edges), len(sizes), sum(sizes), links, polys, drift)
        if self.tracer is None:
            return base
        return base + tuple(sorted(self.tracer.counts.get(state.round, {}).items()))

    def _snapshot(self) -> None:
        csv_path, state_path = OUT / f"{self.stem}.metrics.csv", OUT / f"{self.stem}.state.json"
        self.prog.sim.write_metrics(self.state.metrics, csv_path)
        self.prog.sim.dump_state(self.state, state_path)
        self.digests = {
            "metrics_csv": sha256_file(csv_path),
            "state_json": sha256_file(state_path),
            "partition": hashlib.sha256(partition_json(self.state.partition).encode()).hexdigest(),
        }

    def start(self) -> None:
        gc.collect()
        if self.tracer:
            self.tracer.round = 0
            self.state = self.prog.sim.initialize(self.sc)
        else:
            self.state = self.prog.initialize(self.sc)

    def advance(self) -> None:
        """Step one round, timing only the ``step`` call."""
        state, tracer = self.state, self.tracer
        step = self.prog.sim.step if tracer else self.prog.step
        prev_edges, prev_violations = state.topology.edges, len(state.violations)
        if tracer:
            tracer.round = state.round + 1
        self.probe_ns.append(probe_ns())
        start = time.perf_counter_ns()
        step(state)
        self.step_ns.append(time.perf_counter_ns() - start)
        self.failed_rounds += len(state.violations) > prev_violations
        self.counts.append(self._round_counts(prev_edges))
        if state.round == self.checkpoint:
            self._snapshot()

    def run(self, rounds: int, settle: bool = False) -> None:
        """Step ``rounds`` measured rounds, then settle if asked."""
        try:
            with self.tracer or contextlib.nullcontext():
                self.start()
                state = self.state
                last = min(self.sc.rounds, rounds + (SETTLE_ROUNDS if settle else 0))
                while state.round < last and not state.halted:
                    if state.round >= rounds and not self.prog.verify_partition(state.topology, state.partition):
                        break
                    self.advance()
        except Exception:
            self.error = f"{self.tag}: " + traceback.format_exc()
        self.measured = min(rounds, len(self.step_ns))

    def round_ms(self) -> list[float]:
        """Calibrated step times of the measured rounds, in ms."""
        n = self.measured
        return [ns / 1e6 for ns in calibrate(self.step_ns[:n], self.probe_ns[:n])]


def replay_pair(traced: Pass, plain: Pass, rounds: int) -> None:
    """Step a traced and an untraced pass in lockstep, one round each in turn,
    so both see the same host conditions."""
    try:
        with traced.tracer:
            traced.start()
        plain.start()
        for _ in range(rounds):
            if traced.state.halted or plain.state.halted:
                break
            with traced.tracer:
                traced.advance()
            plain.advance()
    except Exception:
        traced.error = f"{traced.tag} / {plain.tag}: " + traceback.format_exc()
    traced.measured, plain.measured = len(traced.step_ns), len(plain.step_ns)


def time_setups(prog: Program, sc) -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds of repeated ``initialize`` calls."""
    samples: list[float] = []
    probes: list[int] = []
    while len(samples) < SETUP_MIN or sum(samples) < SETUP_BUDGET_S:
        gc.collect()
        probes.append(probe_ns())
        start = time.perf_counter()
        prog.initialize(sc)
        samples.append(time.perf_counter() - start)
        if len(samples) >= 200:
            break
    return samples, calibrate(samples, probes)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def invariant_failures(prog: Program, main: Pass) -> list[str]:
    """The program's own failures in the measured pass: its violations, a
    halt, and a final partition that does not verify."""
    state = main.state
    found = list(state.violations)
    if state.halted:
        found.append(f"halted at round {state.round}")
    final = prog.verify_partition(state.topology, state.partition)
    if final:
        found.append(f"final partition does not verify: {final[0]}")
    return found


def gate(args, main: Pass, replays: list[Pass], failures: list[str]) -> list[str]:
    """Correctness gate; returns one message per failed check.

    Any seed: every pass ran without raising, and each replay reproduced the
    measured pass's digests and work counts.  Default seed: the run also has
    no invariant failures and its digests equal the stored reference.  At
    other seeds invariant failures count as failed rounds instead, so a
    defect that only some seeds reach shows in ``round_ok_ratio``.
    """
    problems = [p.error for p in [main, *replays] if p.error]
    if problems:
        return problems
    c = CHECK_ROUNDS[args.workload]
    for p in replays:
        if p.digests != main.digests:
            problems.append(f"{p.tag}: digests differ from the measured pass: {p.digests} vs {main.digests}")
        # Counts the tracer adds exist only when both passes were traced.
        width = min((len(row) for row in main.counts[:1] + p.counts[:1]), default=0)
        if [r[:width] for r in main.counts[:c]] != [r[:width] for r in p.counts[:c]]:
            problems.append(f"{p.tag}: work counts differ from the measured pass")
    if args.seed == DEFAULT_SEED and not args.write_digests:
        if failures:
            problems.append(f"{len(failures)} invariant failures at the default seed, first: {failures[0]}")
        stored = json.loads(DIGESTS.read_text()).get(args.workload)
        if stored != {"seed": DEFAULT_SEED, "rounds": c, **main.digests}:
            problems.append(f"digests differ from {DIGESTS.name}: stored {stored}, got {main.digests}")
    return problems


def timing_stats(n: int, setups: list[float], round_ms: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "round_ms_p50": statistics.median(round_ms),
        "round_ms_p90": statistics.quantiles(round_ms, n=10)[-1],
        "node_rounds_per_s": n * len(round_ms) / (sum(round_ms) / 1e3),
    }


def per_layer(main: Pass, check: Pass, untraced: Pass) -> dict[str, tuple[float, str]]:
    tracer, rounds = main.tracer, main.measured
    # One calibration factor for the whole traced pass.
    scale = PROBE_REF_NS / statistics.median(main.probe_ns[:rounds]) / 1e6
    out: dict[str, tuple[float, str]] = {}
    run_times = tracer.layer_times(range(1, rounds + 1))
    setup_times = tracer.layer_times([0])
    for layer in LAYERS:
        if layer == "sim.initialize":
            continue
        out[f"{layer}.self_ms"] = (run_times[layer]["self_ns"] / rounds * scale, "ms")
        out[f"{layer}.calls"] = (run_times[layer]["calls"] / rounds, "1/round")
    out["sim.step.ms"] = (run_times["sim.step"]["ns"] / rounds * scale, "ms")
    out["maintenance.reform.ms"] = (run_times["maintenance.reform"]["ns"] / rounds * scale, "ms")
    out["setup.sim.initialize.ms"] = (setup_times["sim.initialize"]["ns"] * scale, "ms")
    out["setup.maintenance.reform.ms"] = (setup_times["maintenance.reform"]["ns"] * scale, "ms")
    for layer in ("graph.build_topology", "graph.topology_from_edges", "shamir.split_secret"):
        out[f"setup.{layer}.self_ms"] = (setup_times[layer]["self_ns"] * scale, "ms")

    totals: dict[str, int] = {}
    for rnd, tally in tracer.counts.items():
        if rnd > rounds:
            continue
        for key, value in tally.items():
            if rnd > 0 or key == "phase1.backbone_size":
                totals[key] = totals.get(key, 0) + value
    formations = run_times["phase1.build_dominating_set"]["calls"] + setup_times["phase1.build_dominating_set"]["calls"]
    edges, clusters, heads, links, polys, drift = (sum(col) for col in zip(*(c[:6] for c in main.counts[:rounds])))
    rows = main.state.metrics[:rounds]
    pairs = totals.get("graph.pairs_tested", 0)
    out.update({
        "graph.pairs_tested": (pairs / rounds, "1/round"),
        "graph.edges": (edges / rounds, "count"),
        "graph.edge_yield": (totals.get("graph.built_edges", 0) / pairs if pairs else 0.0, "ratio"),
        "phase1.hello_messages": (totals.get("phase1.hello_messages", 0) / rounds, "1/round"),
        "phase1.backbone_size": (totals["phase1.backbone_size"] / formations, "count"),
        "phase2.clusters": (clusters / rounds, "count"),
        "phase2.mean_council": (heads / clusters, "count"),
        "maintenance.local_update_rounds": (sum(m.updates for m in rows) / rounds, "ratio"),
        "maintenance.reform_rounds": (sum(m.reforms for m in rows) / rounds, "ratio"),
        "maintenance.k_drift_clusters": (drift / rounds, "1/round"),
        "shamir.shares_split": (totals.get("shamir.shares_split", 0) / rounds, "1/round"),
        "shamir.shares_issued": (run_times["shamir.issue_share"]["calls"] / rounds, "1/round"),
        "shamir.shares_refreshed": (totals.get("shamir.shares_refreshed", 0) / rounds, "1/round"),
        "sim.audit.polys_enumerated": (polys / rounds, "1/round"),
        "sim.link_events": (links / rounds, "1/round"),
    })
    # Median over the lockstep replay of traced / untraced time per round.
    ratios = [t / u for t, u in zip(check.step_ns, untraced.step_ns)]
    out["trace.overhead_pct"] = ((statistics.median(ratios) - 1) * 100, "%")
    self_ns = sum(row["self_ns"] for row in run_times.values())
    out["trace.accounted_pct"] = (self_ns / sum(main.step_ns[:rounds]) * 100, "%")
    return out


def run_workload(args) -> int:
    prog = Program()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sc = prog.sim.scenario_from_dict(WORKLOADS[args.workload](args.seed), source=args.workload)
    n = len(sc.nodes)
    c = CHECK_ROUNDS[args.workload]
    rounds = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S[args.workload]))

    raw_setups, setups = time_setups(prog, sc)
    main = Pass(prog, sc, "measured pass", f"{stem}-main", c, Tracer() if args.trace else None)
    main.run(rounds, settle=True)
    check = Pass(prog, sc, "check pass", f"{stem}-check", c, Tracer() if args.trace else None)
    if args.trace:
        untraced = Pass(prog, sc, "untraced pass", f"{stem}-untraced", c)
        replay_pair(check, untraced, c)
        replays = [check, untraced]
    else:
        check.run(c)
        replays = [check]
    failures = invariant_failures(prog, main) if main.error is None else []
    problems = gate(args, main, replays, failures)

    if args.write_digests and not problems:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored[args.workload] = {"seed": DEFAULT_SEED, "rounds": c, **main.digests}
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")

    # A round fails if it adds a violation; a halt leaves the remaining
    # rounds unreached, and they fail too, as does the last round when the
    # final partition does not verify.  A failed gate fails every round.
    attempted = rounds
    unverified = any(f.startswith("final partition") for f in failures)
    failed = min(attempted, main.failed_rounds + (rounds - main.measured) + unverified)
    if problems:
        failed = attempted
    correct = not problems

    round_ms = main.round_ms()
    raw_ms = [ns / 1e6 for ns in main.step_ns[:main.measured]]
    metrics: dict[str, dict] = {}
    if main.measured >= 10 and not any(p.error for p in replays + [main]):
        if args.trace:
            values = per_layer(main, check, untraced)
        else:
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in timing_stats(n, setups, round_ms).items()}
            values["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            values["round_ok_ratio"] = (1 - failed / attempted, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    p90 = statistics.quantiles(round_ms, n=10)[-1] if len(round_ms) >= 2 else float("nan")
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nodes": n,
        "rounds": main.measured,
        "settle_rounds": len(main.step_ns) - main.measured,
        "failed_rounds": failed,
        "round_fail_ratio": failed / attempted,
        "setup_samples": len(setups),
        "round_p50_samples": len(round_ms),
        "round_p90_samples": len(round_ms),
        "round_samples_beyond_p90": sum(v > p90 for v in round_ms),
        "probe_ref_us": PROBE_REF_NS / 1e3,
        "probe_median_us": statistics.median(main.probe_ns) / 1e3 if main.probe_ns else None,
        "uncalibrated": timing_stats(n, raw_setups, raw_ms) if len(raw_ms) >= 2 else {},
        "check_rounds": c,
        "digests": main.digests,
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} round_fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} rounds)")
    if args.trace and metrics:
        step_ms = metrics["sim.step.ms"]["value"]
        shares = {k[:-8]: v["value"] / step_ms * 100 for k, v in metrics.items()
                  if k.endswith(".self_ms") and not k.startswith("setup.")}
        print(f"{args.workload} self time as % of step: " + ", ".join(
            f"{k} {v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.05))
    print(f"{args.workload} gate: " + ("PASS" if correct else "FAIL: " + "; ".join(problems)))
    if failures:
        print(f"{args.workload} invariant failures (counted as failed rounds): {len(failures)}, first: {failures[0]}")
    print(json.dumps({"env": env}))
    record = {"env": env, "correct": correct, "problems": problems,
              "invariant_failures": failures, "metrics": metrics,
              "round_ms": round_ms, "uncalibrated_round_ms": raw_ms,
              "probe_us": [ns / 1e3 for ns in main.probe_ns[:main.measured]]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if main.tracer:
        main.tracer.write_spans(OUT / f"{stem}.spans.csv")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed_given:
            cmd += ["--seed", str(args.seed)]
        if args.write_digests:
            cmd.append("--write-digests")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store the default seed's digests instead of checking them")
    args = parser.parse_args(argv)
    args.seed_given = args.seed is not None
    if not args.seed_given:
        args.seed = DEFAULT_SEED
    if args.write_digests and args.seed != DEFAULT_SEED:
        parser.error(f"--write-digests needs the default seed {DEFAULT_SEED}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
