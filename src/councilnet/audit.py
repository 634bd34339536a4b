"""Secrecy audit: what the adversary's shares reveal about each cluster secret.

A cluster is breached once the adversary holds k shares of the current
epoch.  Below k, every secret in GF(p) must stay consistent with the held
shares; at k, exactly one must, and it must be the cluster's secret.  The
count is computed in closed form, so the audit runs at every prime, over a
live simulation or over a dumped state read through ``shamir``'s input rules.
Each cluster's entry is a ``ClusterAudit`` named tuple, built once per cluster
and round, and its anomalies go straight into the audit's one list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .errors import CouncilNetError, ValidationError
from .phase1 import ClusterId
from .shamir import (
    Share, _check_element, _check_epoch, _check_prime, _check_read_shares, _check_threshold, _lagrange_at, reconstruct
)

if TYPE_CHECKING:
    from .sim import SimState

# Limits of the exhaustive enumeration that the tests use as an oracle for
# ``_consistent_secret_count``: primes up to SMALL_PRIME_LIMIT, polynomial
# spaces up to BRUTE_FORCE_LIMIT.  The audit itself never enumerates; the
# benchmark harness still reads both names.
BRUTE_FORCE_LIMIT = 250_000
SMALL_PRIME_LIMIT = 17


class ClusterAudit(NamedTuple):
    cluster_id: ClusterId
    compromised_head_count: int
    k: int
    breached: bool
    consistent_secrets: int


@dataclass(frozen=True)
class AuditResult:
    entries: tuple[ClusterAudit, ...]
    anomalies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.anomalies


def _consistent_secret_count(held: Sequence[Share], k: int, prime: int) -> int:
    """Count the secrets f(0) of degree-(k-1) polynomials through the held points.

    Over GF(p) the count is 0, 1 or p (Shamir 1979).  Points are taken mod
    p.  Two y at one x admit no polynomial.  Fewer than k distinct x leave
    f(0) free unless x = 0 is among them.  With k or more, the first k fix
    f, and the rest must lie on it.  The cost never grows with p, nor with k
    while fewer than k points are held.
    """
    points: dict[int, int] = {}
    for x, y, _ in held:
        y %= prime
        if points.setdefault(x % prime, y) != y:
            return 0
    if len(points) < k:
        return 1 if 0 in points else prime
    distinct = [Share(x, y) for x, y in points.items()]
    base = distinct[:k]
    return int(all(_lagrange_at(base, s.x, prime) == s.y for s in distinct[k:]))


def _audit_cluster(
    cid: ClusterId,
    k: int,
    prime: int,
    epoch: int,
    secret: Optional[int],
    held: Sequence[Share],
    anomalies: list[str],
) -> ClusterAudit:
    """The cluster's entry; any anomaly is appended to ``anomalies``."""
    current = [s for s in held if s.epoch == epoch]
    count = len(current)
    breached = count >= k
    consistent = _consistent_secret_count(current, k, prime)
    if not breached:
        if consistent != prime:
            anomalies.append(
                f"cluster {cid}: {count} shares below threshold {k} narrow the secret "
                f"to {consistent} candidates instead of {prime}"
            )
    else:
        if consistent != 1:
            anomalies.append(
                f"cluster {cid}: {count} shares at threshold {k} leave {consistent} candidates"
            )
        if secret is not None and reconstruct(current[:k], k, prime) != secret:
            anomalies.append(f"cluster {cid}: breached reconstruction disagrees with the secret")
    return ClusterAudit(cid, count, k, breached, consistent)


def audit_secrecy(state: SimState) -> AuditResult:
    """Per-cluster breach report for the adversary's current holdings."""
    entries = []
    anomalies: list[str] = []
    for cid, ledger in sorted(state.share_ledger.items()):
        leaked = ledger.leaked
        held = [leaked[nid] for nid in sorted(leaked)]
        entries.append(_audit_cluster(cid, ledger.k, ledger.prime, ledger.epoch, ledger.secret, held, anomalies))
    return AuditResult(tuple(entries), tuple(anomalies))


def audit_dump(payload: Mapping) -> AuditResult:
    """Run the secrecy audit over a previously dumped state.

    A dump raises ``ValidationError``, naming the cluster it was reading,
    when it lacks a field, holds a value of the wrong shape, breaks one of
    ``shamir``'s rules for its prime, a cluster's k, epoch and secret
    (optional, null counts as absent) or the adversary's shares read from
    it, or has a share row whose k or prime is not its cluster's and the
    dump's.  An epoch or secret of another type would hide a row from the
    audit or fail to match a breached reconstruction.
    """
    entries = []
    anomalies: list[str] = []
    where = "malformed state dump"
    try:
        prime = payload["prime"]
        _check_prime(prime, "prime")
        for cluster in payload["clusters"]:
            cid, k, epoch, secret = cluster["cluster_id"], cluster["k"], cluster["epoch"], cluster.get("secret")
            where = f"malformed state dump: cluster {cid}"
            _check_threshold(k)
            _check_epoch(epoch)
            if secret is not None:
                _check_element(secret, prime, "secret")
            held = []
            for x, y, row_k, row_epoch, row_prime in cluster["adversary_shares"]:
                if (row_k, row_prime) != (k, prime):
                    raise ValidationError(f"row (k, prime)=({row_k}, {row_prime}) != ({k}, {prime})")
                held.append(Share(x, y, row_epoch))
            _check_read_shares(held, prime)
            entries.append(_audit_cluster(cid, k, prime, epoch, secret, held, anomalies))
    except (AttributeError, CouncilNetError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: {type(exc).__name__}: {exc}") from None
    return AuditResult(tuple(entries), tuple(anomalies))
