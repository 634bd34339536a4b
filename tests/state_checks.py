"""Invariants that every simulation state must meet between rounds.

``check_state`` is called after each ``step`` by the property runs and the
benchmark-scale run in ``test_sim``: the partition's indexes, the in-touch
scan's preconditions, the pass memory, and the share ledgers'
agreement with their councils, secrets, holders' ids and epochs.
"""

from councilnet.audit import audit_secrecy
from councilnet.phase2 import Partition
from councilnet.shamir import issue_share, reconstruct


def formed_clusters(state):
    """Each cluster of ``state.partition`` by id: the clusters as formed,
    read just after ``initialize`` or a re-form."""
    return {c.cluster_id: c for c in state.partition.clusters}


def check_state(state, formed):
    """Assert every invariant of ``state`` after its last step.

    ``formed`` maps each cluster id to the cluster the last re-form
    installed, as ``formed_clusters`` read it after ``initialize`` or as
    the previous call returned it.  Returns that map for the next call,
    read again if this round re-formed.
    """
    where = f"round {state.round}"
    assert not state.halted, where
    p = state.partition
    # the partition's indexes are the ones its clusters give
    derived = Partition(p.clusters)
    assert p.node_index == derived.node_index, where
    for c in derived.clusters:
        assert p.cluster(c.cluster_id) is c, f"{where}, cluster {c.cluster_id}"
    # the in-touch scan's precondition: the partition assigns exactly the
    # topology's nodes, and misses name only those
    nodes = state.topology.nodes
    memory = state.memory
    assert p.node_index.keys() == nodes, where
    assert memory.missed <= nodes, where
    # a clean pass left no miss pending, and its partition is still the state's
    assert memory.clean is None or not memory.missed, where
    assert memory.clean is None or memory.clean[1] is p, where
    if state.metrics[-1].reforms == 1:
        formed = formed_clusters(state)
    # a cluster without a health entry is the one the last re-form
    # installed, and an entry's baseline is that cluster's
    for c in p.clusters:
        if c.cluster_id not in memory.healths:
            assert c is formed[c.cluster_id], f"{where}, cluster {c.cluster_id}"
    for cid, h in memory.healths.items():
        assert (h.n0, h.gateways0) == (formed[cid].n, len(formed[cid].gateways)), f"{where}, cluster {cid}"
        # maintenance never adds a gateway, so no more are lost than formed
        assert h.gateways_lost <= h.gateways0, f"{where}, cluster {cid}"
    # below k every secret stays possible, at k exactly one does
    for entry in audit_secrecy(state).entries:
        expected = state.scenario.field_prime if entry.compromised_head_count < entry.k else 1
        assert entry.consistent_secrets == expected, f"{where}, cluster {entry.cluster_id}"
    for c in p.clusters:
        ledger = state.share_ledger[c.cluster_id]
        at = f"{where}, cluster {c.cluster_id}"
        assert c.k == ledger.k, at
        # Every stored share, a revoked holder's too, lies at its holder's
        # id (the loader and --prime put the prime above every id) and at
        # the ledger's epoch.
        for nid, share in ledger.shares.items():
            assert (share.x, share.epoch) == (nid, ledger.epoch), f"{at}, holder {nid}"
        # Every live share lies on the polynomial through the first k,
        # which opens to the secret; so every k-subset of them does.
        # (Enumerating the subsets directly reaches C(19, 10) a round.)
        k, prime = ledger.k, ledger.prime
        live_holders = ledger.live_shares()
        # the leak rule: the adversary holds the current share of each
        # compromised live holder, and nothing of anyone else
        assert set(ledger.leaked) <= state.compromised, at
        for nid, share in live_holders:
            if nid in state.compromised:
                assert ledger.leaked[nid] == share, at
        live = [s for _, s in live_holders]
        base = live[:k]
        assert reconstruct(base, k, prime) == ledger.secret, at
        for share in live[k:]:
            assert issue_share(base, share.x, k, prime) == share, at
    return formed
