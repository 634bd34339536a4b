"""Share ledger: one cluster's (k, n) sharing and the adversary's copies of it.

The ledger holds the cluster's secret, its shares by holder, the holders
revoked since the last refresh, and what leaked.  One rule decides what
leaks: the adversary holds the current share of every compromised holder
whose share is live.  Splitting, issuing, refreshing and compromising all
apply it through ``leak``; a revoked share stops leaking, but a copy the
adversary already took is kept.

A refresh adds its blind's coefficients, highest first and unreduced, to a
pending blind and evaluates only the shares that leak; reading ``shares``
writes the pending blind into every share, at the ledger's epoch, with
``shamir``'s one kernel, which reduces each share once.  The pending blind is
the ledger's one memo, under one rule: while a blind is pending, no reader
holds the stored shares.  So a refresh checks k, the holders' x coordinates
and their epoch, and moves the live shares to a dict of its own, only when
no blind is pending or a holder is revoked.  ``leak`` intersects the holders
with the compromised nodes in one set operation, and takes out the revoked
holders only when there are some.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import add
from typing import AbstractSet, Collection, Optional

from .errors import MixedEpoch
from .graph import NodeId
from .phase1 import ClusterId
from .phase2 import Cluster
from .shamir import (
    Share,
    _blind,
    _check_threshold,
    _check_xs,
    _common_epoch,
    _draws,
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
    # The blind ``_shares`` still owes: the coefficients of the refreshes since
    # it was last written, highest first and summed without reduction.
    _pending: Optional[list[int]] = field(default=None, init=False, repr=False, compare=False)

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

    def _current(self, nids: Collection[NodeId]) -> dict[NodeId, Share]:
        """The share each of ``nids`` holds now: the stored one plus any pending blind."""
        shares = self._shares
        if self._pending is None:
            return {nid: shares[nid] for nid in nids}
        return _blind(nids, map(shares.__getitem__, nids), self._pending, self.prime, self.epoch)

    def _read(self) -> dict[NodeId, Share]:
        """``shares``, with the pending blind written into a new dict."""
        if self._pending is not None:
            self._shares = self._current(self._shares)
            self._pending = None
        return self._shares

    def _write(self, shares: dict[NodeId, Share]) -> None:
        self._shares = shares
        self._pending = None

    def live_shares(self) -> list[tuple[NodeId, Share]]:
        return [(nid, s) for nid, s in sorted(self.shares.items()) if nid not in self.revoked]

    def leak(self, compromised: AbstractSet[NodeId]) -> None:
        """Hand the adversary the current share of each compromised live holder."""
        held = self._shares.keys() & compromised
        if held and self.revoked:
            held -= self.revoked
        if held:
            self.leaked.update(self._current(held))

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
        self.leak(compromised)
        return None

    def revoke(self, nid: NodeId) -> None:
        """Exclude a departed holder's share from quorums until the next refresh."""
        if nid in self._shares:
            self.revoked.add(nid)

    def refresh(self, rng: random.Random, compromised: AbstractSet[NodeId]) -> None:
        """Re-randomise the live shares into the next epoch; revoked ones die.

        With no blind pending, or a holder revoked, the live holders are
        sorted by id, k, their x coordinates and their one epoch are checked
        before any draw, and their shares move to a dict of their own, which
        no reader holds; a blind starts only on shares at the ledger's epoch.
        The draws are added to the pending blind and only the shares
        ``leak`` hands over are evaluated: a compromised holder's new share
        leaks, a revoked holder's old copy stays.
        """
        if self._pending is None or self.revoked:
            shares = self._shares
            holders = sorted(shares.keys() - self.revoked)
            if not holders:
                return
            _check_threshold(self.k)
            live = [shares[nid] for nid in holders]
            _check_xs([s.x for s in live], self.prime)
            epoch = _common_epoch(live)
            if self._pending is None:
                if epoch != self.epoch:
                    raise MixedEpoch(f"shares at epoch {epoch}, ledger at epoch {self.epoch}")
                self._pending = [0] * (self.k - 1)
            self._shares = dict(zip(holders, live))
            self.revoked = set()
        draws = _draws(rng.randrange(2**62), self.k - 1, self.prime)
        self._pending = list(map(add, self._pending, reversed(draws)))
        self.epoch += 1
        self.leak(compromised)


# A dataclass field, so ``split``, equality and repr go through the property.
ClusterLedger.shares = property(ClusterLedger._read, ClusterLedger._write)
