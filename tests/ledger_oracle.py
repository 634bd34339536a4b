"""Ledger oracle: ``ClusterLedger.refresh`` as it stood before it blinded the
shares in one pass and deferred its blinds.

``OracleLedger.refresh`` is that method verbatim: it lists and checks the
live holders on every call, where the ledger checks them once per pending
blind and again after a revocation, re-randomises their shares through
``shamir_oracle``'s reference refresh, which reduces mod p at every Horner
step, and maps each new share back to its holder by x.  It never defers a
blind: it reads ``live_shares()`` first, which writes any pending blind, and
assigns every new share.  Splitting, issuing, revoking and leaking are the
library's, so the property tests in ``test_ledger.py`` can run the same
steps on both ledgers and require equal state, with or without reading
``shares`` between refreshes.
"""

import random
from typing import AbstractSet

import shamir_oracle

from councilnet.graph import NodeId
from councilnet.ledger import ClusterLedger
from councilnet.shamir import Share


def refresh_shares(shares, k, seed, prime):
    """The reference refresh, taking and returning ``Share`` values."""
    return tuple(Share(*s) for s in shamir_oracle.refresh_shares(shares, k, seed, prime))


class OracleLedger(ClusterLedger):
    def refresh(self, rng: random.Random, compromised: AbstractSet[NodeId]) -> None:
        live = self.live_shares()
        if not live:
            return
        refreshed = refresh_shares([s for _, s in live], self.k, rng.randrange(2**62), self.prime)
        by_x = {s.x: s for s in refreshed}
        shares = {}
        for nid, old in live:
            shares[nid] = new = by_x[old.x]
            if nid in compromised:
                self.leaked[nid] = new
        self.shares = shares
        self.revoked = set()
        self.epoch += 1
