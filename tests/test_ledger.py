import random

from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.ledger import ClusterLedger
from councilnet.phase2 import Cluster, Council

P = 17


def council_of(n):
    heads = frozenset(range(1, n + 1))
    return Cluster(Council(heads, 1), frozenset(), frozenset(), n // 2 + 1)


class TestIssue:
    def test_returning_holder_gets_its_revoked_share_back(self):
        # A revoked holder keeps its entry in ``shares`` until the next
        # refresh; rejoining the same council must not clash with it.
        ledger = ClusterLedger.split(council_of(3), 13, random.Random(5), set())
        old = ledger.shares[2]
        ledger.revoke(2)
        assert ledger.issue(2, set()) is None
        assert ledger.shares[2] == old
        assert not ledger.revoked

    def test_another_holders_coordinate_is_still_refused(self):
        # Node 15 maps to x = 2 at p = 13, which holder 2 already has.
        ledger = ClusterLedger.split(council_of(3), 13, random.Random(5), set())
        problem = ledger.issue(15, set())
        assert problem == "cluster 1: cannot map node 15 to a fresh share coordinate"
        assert 15 not in ledger.shares


class TestLeakRuleUnderRefresh:
    def test_live_holder_leaks_anew_and_revoked_holder_keeps_its_copy(self):
        ledger = ClusterLedger.split(council_of(5), P, random.Random(3), {1, 2})
        old = dict(ledger.leaked)
        ledger.revoke(2)
        ledger.refresh(random.Random(4), {1, 2})
        assert ledger.epoch == 1
        assert ledger.leaked[1] == ledger.shares[1] and ledger.leaked[1].epoch == 1
        assert 2 not in ledger.shares
        assert ledger.leaked[2] == old[2] and ledger.leaked[2].epoch == 0
        assert set(ledger.leaked) == {1, 2}

    @given(st.integers(1, 8), st.integers(0, 2**32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_leaks_follow_the_rule_across_refreshes(self, n, seed, data):
        # Rounds of: the adversary captures more heads, some holders are
        # revoked, the ledger refreshes.  A model of the rule says what the
        # adversary must hold after each refresh.
        heads = st.sampled_from(range(1, n + 1))
        compromised = data.draw(st.sets(heads))
        rng = random.Random(seed)
        ledger = ClusterLedger.split(council_of(n), P, rng, compromised)
        expected = {nid: ledger.shares[nid] for nid in compromised}
        for _ in range(data.draw(st.integers(1, 4))):
            captured = data.draw(st.sets(heads))
            compromised |= captured
            ledger.leak(captured)
            live = set(ledger.shares) - ledger.revoked
            expected.update({nid: ledger.shares[nid] for nid in captured & live})
            for nid in data.draw(st.sets(heads)):
                ledger.revoke(nid)
            live = set(ledger.shares) - ledger.revoked
            epoch = ledger.epoch
            ledger.refresh(rng, compromised)
            if not live:
                # nothing to refresh: the ledger stays as it was
                assert ledger.epoch == epoch and ledger.leaked == expected
                continue
            assert ledger.epoch == epoch + 1
            assert set(ledger.shares) == live and not ledger.revoked
            for nid in compromised & live:
                # a compromised live holder's entry is its new share
                expected[nid] = ledger.shares[nid]
                assert ledger.leaked[nid].epoch == ledger.epoch
            for nid in (compromised - live) & set(ledger.leaked):
                # a revoked holder's copy stays, at an older epoch
                assert ledger.leaked[nid].epoch < ledger.epoch
            assert ledger.leaked == expected
            # no uncompromised holder ever leaks
            assert set(ledger.leaked) <= compromised
