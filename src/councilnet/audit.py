"""Secrecy audit: what the adversary's shares reveal about each cluster secret.

A cluster is breached once the adversary holds k shares of the current
epoch.  Below k, every secret in GF(p) must stay consistent with the held
shares; at k, exactly one must, and it must be the cluster's secret.  The
count is computed in closed form, so the audit runs at every prime, over a
live simulation or over a dumped state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .errors import ValidationError
from .phase1 import ClusterId
from .scenario import _is_int, is_prime
from .shamir import Share, _lagrange_at, reconstruct

if TYPE_CHECKING:
    from .sim import SimState

# Limits of the exhaustive enumeration that the tests use as an oracle for
# ``_consistent_secret_count``: primes up to SMALL_PRIME_LIMIT, polynomial
# spaces up to BRUTE_FORCE_LIMIT.  The audit itself never enumerates; the
# benchmark harness still reads both names.
BRUTE_FORCE_LIMIT = 250_000
SMALL_PRIME_LIMIT = 17


@dataclass(frozen=True)
class ClusterAudit:
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
    for s in held:
        y = s.y % prime
        if points.setdefault(s.x % prime, y) != y:
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
) -> tuple[ClusterAudit, list[str]]:
    current = [s for s in held if s.epoch == epoch]
    count = len(current)
    breached = count >= k
    anomalies: list[str] = []
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
    return ClusterAudit(cid, count, k, breached, consistent), anomalies


def audit_secrecy(state: SimState) -> AuditResult:
    """Per-cluster breach report for the adversary's current holdings."""
    entries = []
    anomalies: list[str] = []
    for cid, ledger in sorted(state.share_ledger.items()):
        leaked = ledger.leaked
        held = [leaked[nid] for nid in sorted(leaked)]
        entry, extra = _audit_cluster(cid, ledger.k, ledger.prime, ledger.epoch, ledger.secret, held)
        entries.append(entry)
        anomalies.extend(extra)
    return AuditResult(tuple(entries), tuple(anomalies))


def audit_dump(payload: Mapping) -> AuditResult:
    """Run the secrecy audit over a previously dumped state.

    A dump raises ``ValidationError`` when it lacks a field or holds a value
    of the wrong shape, when its prime is not prime, a cluster's k is not
    an integer >= 1, its epoch not an integer >= 0 or its secret (optional,
    null counts as absent) not an integer in 0..p-1, or when an adversary
    share row gives a k or a prime other than its cluster's and the dump's,
    an epoch that is not an integer >= 0, an x outside 1..p-1, a y outside
    0..p-1, or an x that another row of the cluster already has.  A row
    counts only at its cluster's epoch, so an epoch of another type would
    hide it from the audit, and a secret of another type would fail to
    match a breached reconstruction.
    """
    entries = []
    anomalies: list[str] = []
    try:
        prime = payload["prime"]
        if not _is_int(prime) or not is_prime(prime):
            raise ValidationError(f"malformed state dump: prime={prime!r} is not a prime")
        for cluster in payload["clusters"]:
            cid, k = cluster["cluster_id"], cluster["k"]
            where = f"malformed state dump: cluster {cid}"
            if not _is_int(k) or k < 1:
                raise ValidationError(f"{where}: k={k!r} is not an integer >= 1")
            epoch = cluster["epoch"]
            if not _is_int(epoch) or epoch < 0:
                raise ValidationError(f"{where}: epoch={epoch!r} is not an integer >= 0")
            secret = cluster.get("secret")
            if secret is not None and not (_is_int(secret) and 0 <= secret < prime):
                raise ValidationError(f"{where}: secret={secret!r} lies outside GF({prime})")
            held = []
            for x, y, row_k, row_epoch, row_prime in cluster["adversary_shares"]:
                if row_k != k:
                    raise ValidationError(f"{where}: row k={row_k} != {k}")
                if row_prime != prime:
                    raise ValidationError(f"{where}: row prime={row_prime} != {prime}")
                if not _is_int(row_epoch) or row_epoch < 0:
                    raise ValidationError(f"{where}: row epoch={row_epoch!r} is not an integer >= 0")
                if not (_is_int(x) and 1 <= x < prime and _is_int(y) and 0 <= y < prime):
                    raise ValidationError(f"{where}: row ({x!r}, {y!r}) lies outside GF({prime})")
                if any(s.x == x for s in held):
                    raise ValidationError(f"{where}: two rows share x={x}")
                held.append(Share(x, y, row_epoch))
            entry, extra = _audit_cluster(cid, k, prime, epoch, secret, held)
            entries.append(entry)
            anomalies.extend(extra)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state dump: {type(exc).__name__}: {exc}") from None
    return AuditResult(tuple(entries), tuple(anomalies))
