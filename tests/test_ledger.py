import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from councilnet import shamir
from councilnet.errors import DuplicateX, MixedEpoch
from councilnet.ledger import ClusterLedger
from councilnet.phase2 import Cluster, Council
from councilnet.shamir import DEFAULT_PRIME, Share
from ledger_oracle import OracleLedger

P = 17

# Node ids past P map onto the coordinates of lower ones, and P itself onto
# x = 0, so issuing to them is refused.
NIDS = st.integers(1, P + 3)
LEDGER_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("issue"), NIDS),
        st.tuples(st.just("revoke"), NIDS),
        st.tuples(st.just("compromise"), st.frozensets(NIDS, max_size=3)),
        st.tuples(st.just("refresh"), st.none()),
    ),
    max_size=14,
)
REFRESH = ("refresh", None)
# Runs of one to six refreshes, each after up to two other steps; nothing
# reads ``shares`` inside a run but ``issue``, which needs the current shares.
OTHER_STEP = st.one_of(
    st.tuples(st.just("issue"), NIDS),
    st.tuples(st.just("revoke"), NIDS),
    st.tuples(st.just("compromise"), st.frozensets(NIDS, max_size=3)),
)
UNREAD_RUN = st.lists(st.tuples(st.lists(OTHER_STEP, max_size=2), st.just(REFRESH)), min_size=1, max_size=6).map(
    lambda slots: [step for others, refresh in slots for step in [*others, refresh]]
)


def council_of(n):
    heads = frozenset(range(1, n + 1))
    return Cluster(Council(heads, 1), frozenset(), frozenset(), n // 2 + 1)


def apply_step(ledger, rng, compromised, op, arg):
    """One step on ``ledger``; ``issue`` returns why it was refused, or None."""
    if op == "issue":
        return ledger.issue(arg, compromised)
    if op == "revoke":
        ledger.revoke(arg)
    elif op == "compromise":
        compromised |= arg
        ledger.leak(arg)
    else:
        ledger.refresh(rng, compromised)
    return None


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

    @pytest.mark.parametrize("nid", [1, 3])
    def test_live_holder_is_refused_inside_or_outside_the_quorum(self, nid):
        # At k = 2, holder 1's share is among the first k live shares that a
        # quorum is drawn from, and holder 3's is not; both are refused alike
        # and keep their share.
        ledger = ClusterLedger.split(council_of(3), 13, random.Random(5), set())
        before = dict(ledger.shares)
        problem = ledger.issue(nid, set())
        assert problem == f"cluster 1: node {nid} already holds a live share"
        assert ledger.shares == before

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


class TestRefreshAgainstOracle:
    @settings(max_examples=600, deadline=None)
    @given(
        st.sampled_from([P, DEFAULT_PRIME, 2**64 - 59]),
        st.integers(1, 8),
        st.integers(0, 2**32),
        st.frozensets(NIDS, max_size=3),
        LEDGER_STEPS,
    )
    @example(prime=P, n=3, seed=1, compromised=frozenset({2}), steps=[REFRESH, ("revoke", 2), ("issue", 2), REFRESH, REFRESH])
    @example(prime=P, n=3, seed=2, compromised=frozenset({1}), steps=[REFRESH, ("revoke", 1), ("revoke", 2), ("revoke", 3), REFRESH, ("issue", 1), REFRESH])
    @example(prime=P, n=4, seed=3, compromised=frozenset({4}), steps=[REFRESH, ("revoke", 4), REFRESH, ("issue", 4), REFRESH, REFRESH])
    def test_refresh_matches_the_oracle_ledger(self, prime, n, seed, compromised, steps):
        # The same splits, issues, revocations, leaks and refreshes on the
        # ledger and on the oracle, whose refresh lists and checks the live
        # holders anew every time; both draw from equally seeded rngs.
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        compromised = set(compromised)
        ledger = ClusterLedger.split(council_of(n), prime, rng, compromised)
        oracle = OracleLedger.split(council_of(n), prime, oracle_rng, compromised)
        for i, (op, arg) in enumerate(steps):
            where = f"step {i}: {op} {arg}"
            refused = apply_step(ledger, rng, compromised, op, arg)
            assert refused == apply_step(oracle, oracle_rng, compromised, op, arg), where
            assert ledger.shares == oracle.shares, where
            assert ledger.leaked == oracle.leaked, where
            assert ledger.revoked == oracle.revoked, where
            assert ledger.epoch == oracle.epoch, where
            assert rng.getstate() == oracle_rng.getstate(), where


class TestUnreadRefreshes:
    # A refresh folds its blind into a pending one and evaluates only the
    # leaked shares; reading ``shares`` writes the pending blind.  These tests
    # let the blind span several refreshes before anything reads it.

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from([P, DEFAULT_PRIME, 2**64 - 59]),
        st.integers(1, 8),
        st.integers(0, 2**32),
        st.frozensets(NIDS, max_size=3),
        st.lists(UNREAD_RUN, min_size=1, max_size=4),
    )
    @example(prime=P, n=5, seed=4, compromised=frozenset({1, 3}), runs=[[REFRESH] * 6])
    @example(prime=P, n=5, seed=5, compromised=frozenset({2}), runs=[[REFRESH, REFRESH, ("revoke", 2), REFRESH]])
    def test_unread_refreshes_match_the_oracle_ledger(self, prime, n, seed, compromised, runs):
        # The oracle rewrites every share on every refresh; the ledger under
        # test is read only at the end of each run.
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        compromised = set(compromised)
        ledger = ClusterLedger.split(council_of(n), prime, rng, compromised)
        oracle = OracleLedger.split(council_of(n), prime, oracle_rng, compromised)
        for r, run in enumerate(runs):
            for i, (op, arg) in enumerate(run):
                where = f"run {r} step {i}: {op} {arg}"
                refused = apply_step(ledger, rng, compromised, op, arg)
                assert refused == apply_step(oracle, oracle_rng, compromised, op, arg), where
                if op == "refresh":
                    assert ledger.leaked == oracle.leaked, where
                    assert ledger.epoch == oracle.epoch, where
                    assert rng.getstate() == oracle_rng.getstate(), where
            assert ledger.shares == oracle.shares, f"end of run {r}"
            assert ledger.revoked == oracle.revoked, f"end of run {r}"

    def test_a_dict_read_from_shares_never_changes(self):
        ledger = ClusterLedger.split(council_of(5), P, random.Random(3), {1})
        rng = random.Random(4)
        read = ledger.shares
        kept = dict(read)
        ledger.refresh(rng, {1})
        ledger.refresh(rng, {1})
        current = ledger.shares
        assert read == kept
        assert {s.epoch for s in current.values()} == {2}
        ledger.refresh(rng, {1})
        assert ledger.shares != current
        assert read == kept and {s.epoch for s in current.values()} == {2}
        # nor does any later revocation, leak, refresh or issue
        ledger.revoke(2)
        ledger.leak({4})
        ledger.refresh(rng, {1, 4})
        assert ledger.issue(2, {1, 4}) is None
        ledger.refresh(rng, {1, 4})
        assert read == kept and {s.epoch for s in current.values()} == {2}

    def test_writes_to_a_dict_read_before_a_refresh_reach_no_later_share(self):
        # A twin ledger runs the same calls; only the first ledger's dict,
        # read before its refresh, is written to after it.
        ledgers = [ClusterLedger.split(council_of(5), P, random.Random(3), {1}) for _ in range(2)]
        rngs = [random.Random(4), random.Random(4)]
        read = ledgers[0].shares
        for ledger, rng in zip(ledgers, rngs):
            ledger.refresh(rng, {1})
        read[1] = read[1]._replace(y=(read[1].y + 1) % P)
        read[9] = Share(9, 0, 0)
        del read[3]
        for ledger, rng in zip(ledgers, rngs):
            ledger.leak({5})
            ledger.refresh(rng, {1, 5})
            ledger.revoke(2)
            ledger.refresh(rng, {1, 5})
            assert ledger.issue(2, {1, 5}) is None
        ledger, twin = ledgers
        assert ledger.leaked == twin.leaked
        assert ledger.shares == twin.shares
        assert sorted(ledger.shares) == [1, 2, 3, 4, 5]

    def test_planted_epoch_after_unread_refreshes_is_refused(self):
        ledger = ClusterLedger.split(council_of(3), P, random.Random(6), {1})
        ledger.refresh(random.Random(7), {1})
        ledger.refresh(random.Random(9), {1})
        ledger.shares[2] = ledger.shares[2]._replace(epoch=0)
        shares, leaked, epoch = dict(ledger.shares), dict(ledger.leaked), ledger.epoch
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(MixedEpoch, match=r"^shares span epochs \[0, 2\]$"):
            ledger.refresh(rng, {1})
        # refused before any draw or write
        assert (ledger.shares, ledger.leaked, ledger.epoch) == (shares, leaked, epoch)
        assert rng.getstate() == state

    def test_revoke_then_refresh_after_unread_refreshes_matches_the_oracle(self):
        ledgers = [cls.split(council_of(5), P, random.Random(2), {1, 2}) for cls in (ClusterLedger, OracleLedger)]
        rngs = [random.Random(5), random.Random(5)]
        for ledger, rng in zip(ledgers, rngs):
            ledger.refresh(rng, {1, 2})
            ledger.refresh(rng, {1, 2})
            ledger.revoke(2)
            ledger.revoke(4)
            ledger.refresh(rng, {1, 2})
        ledger, oracle = ledgers
        assert (ledger.leaked, ledger.epoch, ledger.revoked) == (oracle.leaked, oracle.epoch, oracle.revoked)
        assert ledger.leaked[2].epoch == 2 and ledger.leaked[1].epoch == 3
        assert ledger.shares == oracle.shares
        assert sorted(ledger.shares) == [1, 3, 5]


class TestFoldedBlinds:
    # A refresh adds its coefficients, highest first and unreduced, to the
    # pending blind, and the kernel reduces each share once; a k = 1 council
    # has no coefficient to draw.

    @pytest.mark.parametrize("prime", [DEFAULT_PRIME, 2**64 - 59, P])
    def test_three_hundred_unread_refreshes_match_the_oracle_ledger(self, prime):
        rng, oracle_rng = random.Random(21), random.Random(21)
        ledger = ClusterLedger.split(council_of(7), prime, rng, {2, 5})
        oracle = OracleLedger.split(council_of(7), prime, oracle_rng, {2, 5})
        for i in range(300):
            ledger.refresh(rng, {2, 5})
            oracle.refresh(oracle_rng, {2, 5})
            assert ledger.leaked == oracle.leaked, f"refresh {i}"
        assert rng.getstate() == oracle_rng.getstate()
        assert ledger.epoch == oracle.epoch == 300
        assert ledger.shares == oracle.shares
        assert all(s.y < prime and s.epoch == 300 for s in ledger.shares.values())

    def test_a_singleton_refresh_draws_one_seed_and_reseeds_nothing(self):
        rng = random.Random(11)
        ledger = ClusterLedger.split(council_of(1), DEFAULT_PRIME, rng, set())
        (before,) = ledger.shares.values()
        twin = random.Random()
        for epoch in (1, 2, 3):
            twin.setstate(rng.getstate())
            scratch = shamir._scratch.rng.getstate()
            ledger.refresh(rng, {1})
            twin.randrange(2**62)
            assert rng.getstate() == twin.getstate()
            assert shamir._scratch.rng.getstate() == scratch
            assert ledger.epoch == epoch
            assert ledger.leaked == {1: Share(1, before.y, epoch)}
        assert ledger.shares == {1: Share(1, before.y, 3)}


class TestRefreshChecksAfterTheFirst:
    def test_planted_share_of_another_epoch_is_refused(self):
        ledger = ClusterLedger.split(council_of(3), P, random.Random(6), {1})
        ledger.refresh(random.Random(7), {1})
        ledger.shares[2] = ledger.shares[2]._replace(epoch=0)
        shares, leaked, epoch = dict(ledger.shares), dict(ledger.leaked), ledger.epoch
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(MixedEpoch, match=r"^shares span epochs \[0, 1\]$"):
            ledger.refresh(rng, {1})
        # refused before any draw or write
        assert (ledger.shares, ledger.leaked, ledger.epoch) == (shares, leaked, epoch)
        assert rng.getstate() == state

    @pytest.mark.parametrize("stored", [0, 2])
    def test_shares_at_another_epoch_than_the_ledgers_are_refused(self, stored):
        # A blind stamps the ledger's epoch, so it starts only on shares at
        # that epoch, whether they lag behind it or run ahead.
        ledger = ClusterLedger.split(council_of(3), P, random.Random(6), {1})
        ledger.refresh(random.Random(7), {1})
        ledger.shares = {nid: s._replace(epoch=stored) for nid, s in ledger.shares.items()}
        shares, leaked, epoch = dict(ledger.shares), dict(ledger.leaked), ledger.epoch
        rng = random.Random(8)
        state = rng.getstate()
        with pytest.raises(MixedEpoch, match=rf"^shares at epoch {stored}, ledger at epoch 1$"):
            ledger.refresh(rng, {1})
        # refused before any draw or write
        assert (ledger.shares, ledger.leaked, ledger.epoch) == (shares, leaked, epoch)
        assert rng.getstate() == state

    def test_planted_holder_on_a_taken_coordinate_is_refused(self):
        # Node 18's x is 1 mod 17, holder 1's coordinate.
        ledger = ClusterLedger.split(council_of(3), P, random.Random(6), set())
        ledger.refresh(random.Random(7), set())
        ledger.shares[18] = Share(18, 5, ledger.epoch)
        with pytest.raises(DuplicateX):
            ledger.refresh(random.Random(8), set())
