"""Share ledger: one cluster's (k, n) sharing and the adversary's copies of it.

The ledger holds the cluster's secret, its shares by holder, the holders
revoked since the last refresh, and what leaked.  One rule decides what
leaks: the adversary holds the current share of every compromised holder
whose share is live.  Splitting, issuing, refreshing and compromising all
apply it through ``leak``; a revoked share stops leaking, but a copy the
adversary already took is kept.

A refresh checks the threshold and the holders' x coordinates once per
membership: the verdicts are kept with the live holders until ``issue`` or
``revoke`` changes who holds a share, since a pure check over unchanged
inputs keeps its verdict.  The epochs are checked on every refresh, and
``shamir``'s one kernel, which splits use too, writes the new shares in one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import AbstractSet, Optional

from .graph import NodeId
from .phase1 import ClusterId
from .phase2 import Cluster
from .shamir import (
    Share,
    _blind,
    _check_threshold,
    _check_xs,
    _common_epoch,
    issue_share,
    split_secret,
)


@dataclass
class ClusterLedger:
    """Secret-sharing state of one cluster: the split secret and live shares."""

    cluster_id: ClusterId
    secret: int
    k: int
    prime: int
    epoch: int = 0
    shares: dict[NodeId, Share] = field(default_factory=dict)
    revoked: set[NodeId] = field(default_factory=set)
    leaked: dict[NodeId, Share] = field(default_factory=dict)
    # The live holders in id order and their x's, as ``refresh`` last checked
    # them; ``issue`` and ``revoke`` drop it.
    _checked: Optional[tuple[list[NodeId], list[int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def split(
        cls, cluster: Cluster, prime: int, rng: random.Random, compromised: AbstractSet[NodeId]
    ) -> ClusterLedger:
        """Draw a fresh secret and split it across the council at the cluster's k."""
        heads = sorted(cluster.council.heads)
        secret = rng.randrange(prime)
        shares = split_secret(secret, cluster.k, heads, rng.randrange(2**62), prime)
        ledger = cls(cluster.cluster_id, secret, cluster.k, prime, shares=dict(zip(heads, shares)))
        ledger.leak(compromised)
        return ledger

    def live_shares(self) -> list[tuple[NodeId, Share]]:
        return [(nid, s) for nid, s in sorted(self.shares.items()) if nid not in self.revoked]

    def leak(self, compromised: AbstractSet[NodeId]) -> None:
        """Hand the adversary the current share of each compromised live holder."""
        for nid, share in self.shares.items():
            if nid in compromised and nid not in self.revoked:
                self.leaked[nid] = share

    def issue(self, nid: NodeId, compromised: AbstractSet[NodeId]) -> Optional[str]:
        """Derive a share for a new head from a live quorum; returns why it
        cannot, else None.  A holder whose share is live is refused, wherever
        it sits among the holders: it has a share already."""
        where = f"cluster {self.cluster_id}"
        if nid in self.shares and nid not in self.revoked:
            return f"{where}: node {nid} already holds a live share"
        live = [s for _, s in self.live_shares()]
        if len(live) < self.k:
            return f"{where}: no quorum of {self.k} live shares to issue for node {nid}"
        # A revoked holder keeps its entry until the next refresh; its own x is
        # free when it rejoins, and the re-issued share equals the revoked one.
        new_x = nid % self.prime
        if new_x == 0 or any(s.x == new_x for h, s in self.shares.items() if h != nid):
            return f"{where}: cannot map node {nid} to a fresh share coordinate"
        self.shares[nid] = issue_share(live[: self.k], new_x, self.k, self.prime)
        self.revoked.discard(nid)
        self._checked = None
        self.leak(compromised)
        return None

    def revoke(self, nid: NodeId) -> None:
        """Exclude a departed holder's share from quorums until the next refresh."""
        if nid in self.shares:
            self.revoked.add(nid)
            self._checked = None

    def refresh(self, rng: random.Random, compromised: AbstractSet[NodeId]) -> None:
        """Re-randomise the live shares into the next epoch; revoked ones die.

        The live holders, sorted by id, and the checks of k and of their x
        coordinates are kept from the last refresh unless a holder was
        revoked or issued since, or the keys of ``shares`` changed; the
        epoch check runs every time, before any draw.  The kernel's dict of
        new shares becomes ``shares``, then ``leak`` runs: a compromised
        holder's new share leaks, a revoked holder's old copy stays.
        """
        checked = self._checked
        if checked is None or self.revoked or list(self.shares) != checked[0]:
            holders = sorted(self.shares.keys() - self.revoked)
            if not holders:
                return
            xs = [self.shares[nid].x for nid in holders]
            _check_threshold(self.k)
            _check_xs(xs, self.prime)
            checked = self._checked = (holders, xs)
        holders, xs = checked
        live = [self.shares[nid] for nid in holders]
        epoch = live[0].epoch
        for share in live:
            if share.epoch != epoch:
                _common_epoch(live)  # raises MixedEpoch, naming the epochs
        shares = _blind(holders, xs, [s.y for s in live], self.k, rng.randrange(2**62), self.prime, epoch + 1)
        self.shares = shares
        self.revoked = set()
        self.epoch += 1
        self.leak(compromised)
