"""Command-line front end.

Verbs:
  form        one-shot cluster formation: prints and verifies the partition,
              and builds no share ledgers
  simulate    full scenario run, writes the metrics CSV
  audit       post-hoc secrecy check over a state dump
  shares      field-level split / reconstruct utilities

Exit codes: 0 success, 1 invariant violation or secrecy anomaly, 2 input error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import CouncilNetError, ValidationError
from .phase2 import verify_partition
from .shamir import (
    DEFAULT_PRIME,
    Share,
    _check_read_shares,
    choose_threshold,
    reconstruct,
    split_secret,
)
from .audit import audit_dump
from .scenario import check_field_prime, load_scenario, read_json
from .sim import initial_formation, run


def _print_partition(partition) -> None:
    for cluster in sorted(partition.clusters, key=lambda c: c.cluster_id):
        council = ",".join(str(n) for n in sorted(cluster.council.heads))
        members = ",".join(str(n) for n in sorted(cluster.members))
        gateways = ",".join(str(n) for n in sorted(cluster.gateways))
        print(
            f"cluster {cluster.cluster_id}: council={{{council}}} "
            f"members={{{members}}} gateways={{{gateways}}} (n={cluster.n}, k={cluster.k})"
        )


def _cmd_form(args) -> int:
    topology, partition = initial_formation(load_scenario(args.scenario))
    _print_partition(partition)
    problems = verify_partition(topology, partition)
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.prime is not None:
        check_field_prime(args.prime, max(s.nid for s in scenario.nodes), "--prime")
        scenario = replace(scenario, field_prime=args.prime)
    try:
        report = run(scenario, args.out, args.state_out)
    except OSError as exc:  # the scenario is loaded, so only an output write raises this
        raise ValidationError(f"cannot write output: {exc}") from exc
    print(f"simulated {report.rounds} rounds, wrote {args.out}")
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    if report.halted:
        print("run halted early; metrics are partial", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_audit(args) -> int:
    result = audit_dump(read_json(args.state))
    for entry in result.entries:
        status = "BREACHED" if entry.breached else "safe"
        print(
            f"cluster {entry.cluster_id}: adversary holds "
            f"{entry.compromised_head_count} of k={entry.k} shares -> {status} "
            f"consistent_secrets={entry.consistent_secrets}"
        )
    for anomaly in result.anomalies:
        print(f"anomaly: {anomaly}", file=sys.stderr)
    return 0 if result.ok else 1


def _parse_share(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(":")
        return int(x), int(y)
    except ValueError:
        raise ValidationError(f"share must look like X:Y, got {text!r}") from None


def _cmd_shares(args) -> int:
    prime = args.prime
    check_field_prime(prime, 0, "--prime")  # these shares name no node, so no id bounds the prime
    if args.shares_cmd == "split":
        majority = choose_threshold(args.n)  # the council-size rule, before any --k
        k = majority if args.k is None else args.k
        shares = split_secret(args.secret, k, range(1, args.n + 1), args.seed, prime)
        print(f"k={k} prime={prime}")
        for share in shares:
            print(f"{share.x}:{share.y}")
        return 0
    shares = [Share(*_parse_share(s)) for s in args.share]
    _check_read_shares(shares, prime)
    print(reconstruct(shares, args.k, prime))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="councilnet",
        description="Council-based cluster formation and threshold sharing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    form = sub.add_parser("form", help="run cluster formation once and print the partition")
    form.add_argument("--scenario", required=True)
    form.set_defaults(func=_cmd_form)

    simulate = sub.add_parser("simulate", help="run a scenario and write metrics")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out", required=True, help="metrics CSV path")
    simulate.add_argument("--state-out", help="optional JSON state dump for auditing")
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--prime", type=int)
    simulate.set_defaults(func=_cmd_simulate)

    audit = sub.add_parser("audit", help="secrecy audit over a state dump")
    audit.add_argument("--state", required=True)
    audit.set_defaults(func=_cmd_audit)

    shares = sub.add_parser("shares", help="threshold sharing utilities")
    shares_sub = shares.add_subparsers(dest="shares_cmd", required=True)
    split = shares_sub.add_parser("split")
    split.add_argument("--secret", type=int, required=True)
    split.add_argument("--n", type=int, required=True)
    split.add_argument("--k", type=int)
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    split.set_defaults(func=_cmd_shares)
    rec = shares_sub.add_parser("reconstruct")
    rec.add_argument("--share", action="append", required=True, help="X:Y, repeatable")
    rec.add_argument("--k", type=int, required=True)
    rec.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    rec.set_defaults(func=_cmd_shares)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CouncilNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
