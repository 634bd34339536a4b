import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.audit import BRUTE_FORCE_LIMIT, _consistent_secret_count
from councilnet.errors import (
    CouncilNetError,
    DuplicateX,
    IncompleteShareSet,
    InsufficientShares,
    InvalidCouncilSize,
    MixedEpoch,
    ValidationError,
    ZeroX,
)
from councilnet.shamir import (
    DEFAULT_PRIME,
    Share,
    _draws,
    choose_threshold,
    is_prime,
    issue_share,
    reconstruct,
    refresh_shares,
    split_secret,
)
import shamir_oracle
from secrecy_oracle import consistent_secrets, poly_eval

P = 13

# seeds pinned so the internal coefficient draws are known (see the asserts)
SEED_A1_IS_7 = 9
SEED_ZERO_BLIND = 2


class TestChooseThreshold:
    def test_table(self):
        assert [choose_threshold(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_three_heads_need_two(self):
        assert choose_threshold(3) == 2

    def test_degenerate_single_head(self):
        assert choose_threshold(1) == 1

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 0), (2, -1), (3, 2.5), (3, True)])
    def test_policy_requires_k_within_one_to_n(self, n, k):
        with pytest.raises(ValidationError, match="^threshold k="):
            split_secret(0, k, range(1, n + 1), 0, P)

    def test_rejects_empty_council(self):
        with pytest.raises(InvalidCouncilSize):
            choose_threshold(0)

    @pytest.mark.parametrize("n", [1.5, True])
    def test_rejects_a_council_size_that_is_not_an_int(self, n):
        # 1.5 would give k = 1.0, and True a council of size 1
        with pytest.raises(InvalidCouncilSize):
            choose_threshold(n)

    @given(st.integers(1, 500))
    def test_majority_rule(self, n):
        k = choose_threshold(n)
        assert 1 <= k <= n
        assert 2 * k >= n + 1


class TestSplitSecret:
    def test_known_linear_polynomial(self):
        # seed forces f(x) = 6 + 7x over GF(13)
        shares = split_secret(6, 2, (1, 2, 3), SEED_A1_IS_7, P)
        assert [(s.x, s.y) for s in shares] == [(1, 0), (2, 7), (3, 1)]
        oracle = [poly_eval((6, 7), x, P) for x in (1, 2, 3)]
        assert [s.y for s in shares] == oracle

    def test_k1_shares_equal_secret(self):
        shares = split_secret(6, 1, (1, 2, 3), 0, P)
        assert all(s.y == 6 for s in shares)

    def test_k_equals_n(self):
        shares = split_secret(6, 3, (1, 2, 3), 5, P)
        assert reconstruct(shares, 3, P) == 6
        # two points under-determine a quadratic: at least one pair misleads
        pair_values = {reconstruct(pair, 2, P) for pair in itertools.combinations(shares, 2)}
        assert pair_values != {6}

    def test_share_metadata(self):
        shares = split_secret(6, 2, (1, 2), 0, P)
        assert all(s.epoch == 0 and not hasattr(s, "k") for s in shares)

    def test_deterministic_per_seed(self):
        a = split_secret(11, 3, (1, 2, 3, 4), 42, P)
        b = split_secret(11, 3, (1, 2, 3, 4), 42, P)
        assert a == b

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            split_secret(13, 2, (1, 2), 0, P)
        with pytest.raises(DuplicateX):
            split_secret(6, 2, (1, 1), 0, P)
        with pytest.raises(ZeroX):
            split_secret(6, 2, (0, 1), 0, P)
        with pytest.raises(ZeroX):
            split_secret(6, 2, (13, 1), 0, P)

    def test_threshold_above_the_holder_count_is_named_before_a_bad_secret(self):
        # n is len(xs), so k = 3 over two holders breaks the threshold rule,
        # and a bad k is named before the bad secret 13
        with pytest.raises(ValidationError, match=r"^threshold k=3 must be an integer in 1\.\.2$"):
            split_secret(13, 3, (1, 2), 0, P)


class TestReconstruct:
    def test_two_of_three(self):
        assert reconstruct([Share(1, 0), Share(2, 7)], 2, P) == 6

    def test_all_three(self):
        assert reconstruct([Share(1, 0), Share(2, 7), Share(3, 1)], 2, P) == 6

    def test_insufficient(self):
        with pytest.raises(InsufficientShares):
            reconstruct([Share(1, 0)], 2, P)

    def test_mixed_epoch(self):
        with pytest.raises(MixedEpoch):
            reconstruct([Share(1, 0, epoch=0), Share(2, 7, epoch=1)], 2, P)

    def test_duplicate_x(self):
        with pytest.raises(DuplicateX):
            reconstruct([Share(1, 0), Share(1, 7)], 2, P)

    @pytest.mark.parametrize("shares", [[], [Share(1, 5)]])
    @pytest.mark.parametrize("k", [0, -1])
    def test_threshold_below_one_rejected(self, shares, k):
        # k < 1 passes the length check, so without its own check one share
        # would "reconstruct" to its own y and no shares to a KeyError
        with pytest.raises(ValidationError):
            reconstruct(shares, k, P)

    def test_every_k_subset_reconstructs(self):
        rng = random.Random(77)
        for n in range(1, 7):
            for k in range(1, n + 1):
                secret = rng.randrange(P)
                shares = split_secret(secret, k, range(1, n + 1), rng.randrange(10**6), P)
                for subset in itertools.combinations(shares, k):
                    assert reconstruct(subset, k, P) == secret


class TestIssueShare:
    def test_matches_polynomial_evaluation(self):
        # quorum comes from f(x) = 6 + 7x; the issued point must sit on f
        issued = issue_share([Share(1, 0), Share(2, 7)], 4, 2, P)
        assert (issued.x, issued.y) == (4, poly_eval((6, 7), 4, P))

    def test_existing_coordinate_rejected(self):
        with pytest.raises(DuplicateX):
            issue_share([Share(1, 0), Share(2, 7)], 2, 2, P)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroX):
            issue_share([Share(1, 0), Share(2, 7)], 13, 2, P)

    def test_issued_share_reconstructs_with_others(self):
        issued = issue_share([Share(1, 0), Share(2, 7)], 4, 2, P)
        assert reconstruct([Share(3, 1), issued], 2, P) == 6

    def test_quorum_too_small(self):
        with pytest.raises(InsufficientShares):
            issue_share([Share(1, 0)], 4, 2, P)

    @pytest.mark.parametrize("k", [0, -1])
    def test_threshold_below_one_rejected(self, k):
        with pytest.raises(ValidationError):
            issue_share([Share(1, 0), Share(2, 7)], 4, k, P)

    def test_oracle_equivalence_over_seeded_cases(self):
        rng = random.Random(123)
        for _ in range(100):
            k = rng.randrange(1, 5)
            n = rng.randrange(k, 7)
            coeffs = [rng.randrange(P) for _ in range(k)]
            xs = rng.sample(range(1, P), n + 1)
            quorum = [Share(x, poly_eval(coeffs, x, P)) for x in xs[:n]][:k]
            issued = issue_share(quorum, xs[n], k, P)
            assert issued.y == poly_eval(coeffs, xs[n], P)


# A field element, a threshold and an x coordinate are ints, not bools;
# each of these breaks its rule over GF(13).  A secret of p and a k of 0
# are refused in the tests above.
BAD_SECRETS = [6.5, True, "6", -1]
BAD_KS = [2.5, True]
BAD_XS = [1.5, True, 0, P]


class TestShareInputRules:
    @pytest.mark.parametrize("secret", BAD_SECRETS)
    def test_secret_must_be_a_field_element(self, secret):
        with pytest.raises(ValidationError):
            split_secret(secret, 2, (1, 2, 3), 0, P)

    @pytest.mark.parametrize("k", BAD_KS)
    @pytest.mark.parametrize("call", ["reconstruct", "issue_share", "refresh_shares"])
    def test_threshold_must_be_an_int(self, call, k):
        quorum = [Share(1, 0), Share(2, 7)]
        calls = {
            "reconstruct": lambda: reconstruct(quorum, k, P),
            "issue_share": lambda: issue_share(quorum, 4, k, P),
            "refresh_shares": lambda: refresh_shares(quorum, k, 5, P),
        }
        with pytest.raises(ValidationError):
            calls[call]()

    @pytest.mark.parametrize("x", BAD_XS)
    @pytest.mark.parametrize("call", ["split_secret", "reconstruct", "issue_share", "refresh_shares"])
    def test_x_must_be_an_int_nonzero_mod_p(self, call, x):
        shares = [Share(x, 5), Share(2, 7)]
        calls = {
            "split_secret": lambda: split_secret(6, 2, (x, 2), 0, P),
            "reconstruct": lambda: reconstruct(shares, 2, P),
            "issue_share": lambda: issue_share([Share(2, 7), Share(3, 1)], x, 2, P),
            "refresh_shares": lambda: refresh_shares(shares, 2, 5, P),
        }
        with pytest.raises(CouncilNetError):
            calls[call]()


def primes_up_to(limit):
    """The primes in 0..limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return {n for n in range(limit + 1) if sieve[n]}


# 399165290221 * 798330580441: the smallest composite that passes
# Miller-Rabin to all twelve bases 2..37 (Sorenson & Webster 2017)
PSEUDOPRIME_12 = 318665857834031151167461


class TestIsPrime:
    def test_agrees_with_the_sieve_of_eratosthenes(self):
        limit = 2 * 10**5
        assert {n for n in range(limit + 1) if is_prime(n)} == primes_up_to(limit)

    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051, PSEUDOPRIME_12])
    def test_refuses_strong_pseudoprimes(self, n):
        # the smallest strong pseudoprimes to bases 2, 2..7 and 2..23
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 2**64 - 59])
    def test_accepts_primes_below_2_to_the_64(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [2**64 + 13, True, 13.0, "13"])
    def test_refuses_a_modulus_past_the_bound_or_not_an_int(self, n):
        # 2**64 + 13 is prime, but past the bound where the bases are exact
        assert not is_prime(n)


class TestShare:
    def test_assignment_raises(self):
        share = Share(1, 2)
        with pytest.raises(AttributeError):
            share.y = 3

    def test_equal_values_are_equal_and_hash_alike(self):
        assert Share(1, 2, 3) == Share(1, 2, 3)
        assert hash(Share(1, 2, 3)) == hash(Share(1, 2, 3))
        assert Share(1, 2, 3) != Share(1, 2, 4)

    def test_epoch_defaults_to_zero(self):
        assert Share(1, 2).epoch == 0

    def test_repr(self):
        assert repr(Share(1, 2)) == "Share(x=1, y=2, epoch=0)"


ORACLE_PRIMES = (2, 3, 5, 17, DEFAULT_PRIME, 2**64 - 59)


class TestDrawRule:
    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    @given(st.integers(0, 2**62))
    @settings(max_examples=60, deadline=None)
    def test_draws_are_the_stdlib_randrange_stream(self, p, seed):
        # Splits and refreshes draw through ``_draws``; a CPython whose
        # randrange drew otherwise would fail here by name.
        for count in range(8):
            rng = random.Random(seed)
            assert _draws(seed, count, p) == [rng.randrange(p) for _ in range(count)]

    def test_threads_draw_as_a_serial_run_does(self):
        # Each thread reseeds its own scratch generator; one generator shared
        # by the threads would let a switch between one thread's seed and
        # its draws hand it another's coefficients.
        def work(t):
            shares = split_secret(t, 4, range(1, 8), t)
            out = [shares]
            for i in range(3000):
                shares = refresh_shares(shares, 4, 4 * i + t)
                out.append(shares)
                if i % 100 == 0:
                    out.append(split_secret(i, 3, range(1, 6), 4 * i + t))
            return out

        serial = [work(t) for t in range(4)]
        results = [None] * 4

        def run(t):
            results[t] = work(t)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


@st.composite
def sharings(draw):
    """A prime, a secret, up to 7 x coordinates distinct and nonzero mod p
    (in any order, some given above p), and a split and a refresh seed."""
    p = draw(st.sampled_from(ORACLE_PRIMES))
    residues = draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=min(p - 1, 7), unique=True))
    xs = [x + p * draw(st.integers(0, 2)) for x in residues]
    seeds = st.integers(0, 2**62)
    return p, draw(st.integers(0, p - 1)), xs, draw(seeds), draw(seeds)


class TestArithmeticMatchesOracle:
    @given(sharings())
    @settings(max_examples=150, deadline=None)
    def test_split_and_refresh_match_per_step_reduction(self, case):
        p, secret, xs, split_seed, refresh_seed = case
        n = len(xs)
        for k in range(1, n + 1):
            shares = split_secret(secret, k, xs, split_seed, p)
            assert list(shares) == shamir_oracle.split_secret(secret, k, xs, split_seed, p)
            refreshed = refresh_shares(shares, k, refresh_seed, p)
            assert list(refreshed) == shamir_oracle.refresh_shares(shares, k, refresh_seed, p)
            again = refresh_shares(refreshed, k, split_seed, p)
            assert list(again) == shamir_oracle.refresh_shares(refreshed, k, split_seed, p)
            if k == 1:
                # a degree-0 blind is the zero polynomial
                assert [(s.x, s.y) for s in refreshed] == sorted((s.x, s.y) for s in shares)
                assert [s.epoch for s in refreshed] == [1] * n


class TestRefreshShares:
    def make_shares(self):
        return split_secret(6, 2, (1, 2, 3), SEED_A1_IS_7, P)

    def test_identity_refresh_only_bumps_epoch(self):
        refreshed = refresh_shares(self.make_shares(), 2, SEED_ZERO_BLIND, P)
        assert [(s.x, s.y) for s in refreshed] == [(1, 0), (2, 7), (3, 1)]
        assert all(s.epoch == 1 for s in refreshed)

    def test_secret_survives_any_seed(self):
        for seed in range(20):
            refreshed = refresh_shares(self.make_shares(), 2, seed, P)
            for subset in itertools.combinations(refreshed, 2):
                assert reconstruct(subset, 2, P) == 6

    def test_cross_epoch_mixing_rejected(self):
        old = self.make_shares()
        new = refresh_shares(old, 2, 5, P)
        with pytest.raises(MixedEpoch):
            reconstruct([old[0], new[1]], 2, P)

    @pytest.mark.parametrize("k", [0, -1])
    def test_threshold_below_one_rejected(self, k):
        # k = 0 would bump the epoch without re-randomising any share
        with pytest.raises(ValidationError):
            refresh_shares(self.make_shares(), k, 5, P)

    def test_empty_set_rejected(self):
        with pytest.raises(IncompleteShareSet):
            refresh_shares([], 1, 0, P)

    def test_mixed_epoch_input_rejected(self):
        old = self.make_shares()
        new = refresh_shares(old, 2, 5, P)
        with pytest.raises(MixedEpoch):
            refresh_shares([old[0], new[1], new[2]], 2, 0, P)


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17)


@st.composite
def held_points(draw):
    """A small field, a threshold k (k > p included) whose polynomial space
    the oracle can enumerate, and points with x drawn from 0..2p, each on a
    random degree-(k-1) polynomial or given another y from 0..2p."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    k = draw(st.integers(1, max(j for j in range(1, 18) if p**j <= BRUTE_FORCE_LIMIT)))
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    points = []
    for x in draw(st.lists(st.integers(0, 2 * p), max_size=k + 2)):
        off = draw(st.one_of(st.none(), st.integers(0, 2 * p)))
        points.append((x, poly_eval(coeffs, x, p) if off is None else off))
    return points, k, p


class TestSecrecy:
    def test_single_share_reveals_nothing(self):
        shares = split_secret(6, 2, (1, 2, 3), SEED_A1_IS_7, P)
        for s in shares:
            assert consistent_secrets([(s.x, s.y)], 2, P) == set(range(P))

    def test_below_threshold_pairs_reveal_nothing_k3(self):
        shares = split_secret(9, 3, (1, 2, 3, 4), 31, P)
        for a, b in itertools.combinations(shares, 2):
            assert consistent_secrets([(a.x, a.y), (b.x, b.y)], 3, P) == set(range(P))

    def test_threshold_quorum_pins_the_secret(self):
        shares = split_secret(6, 2, (1, 2, 3), SEED_A1_IS_7, P)
        held = [(s.x, s.y) for s in shares[:2]]
        assert consistent_secrets(held, 2, P) == {6}

    @pytest.mark.parametrize(
        "points, k, p, expected",
        [
            ([], 2, P, P),
            ([(1, 0)], 2, P, P),
            ([(0, 6)], 2, P, 1),
            ([(13, 6), (1, 0)], 3, P, 1),  # 13 is x = 0 in GF(13)
            ([(1, 0), (1, 0)], 2, P, P),  # a repeated point counts once
            ([(1, 0), (1, 5)], 2, P, 0),
            ([(1, 0), (14, 5)], 3, P, 0),  # 14 is x = 1 in GF(13)
            ([(1, 0), (2, 7)], 2, P, 1),  # f(x) = 6 + 7x
            ([(1, 0), (2, 7), (3, 1)], 2, P, 1),
            ([(1, 0), (2, 7), (3, 2)], 2, P, 0),
            ([(0, 6), (1, 0), (2, 7)], 2, P, 1),
            ([(1, 1), (2, 0)], 4, 3, 3),  # k > p, x = 0 not held
            ([(1, 1), (3, 2)], 4, 3, 1),  # k > p, 3 is x = 0 in GF(3)
        ],
        ids=[
            "none-held",
            "one-below-k",
            "x-zero",
            "x-equal-p",
            "repeated-x-equal-y",
            "repeated-x-unequal-y",
            "x-above-p-unequal-y",
            "k-on-polynomial",
            "beyond-k-on-polynomial",
            "beyond-k-off-polynomial",
            "beyond-k-with-x-zero",
            "k-above-p",
            "k-above-p-with-x-zero",
        ],
    )
    def test_closed_form_count_per_branch(self, points, k, p, expected):
        held = [Share(x, y) for x, y in points]
        assert _consistent_secret_count(held, k, p) == expected
        assert len(consistent_secrets(points, k, p)) == expected

    @given(held_points())
    @settings(max_examples=100, deadline=None)
    def test_closed_form_count_matches_enumeration(self, case):
        points, k, p = case
        held = [Share(x, y) for x, y in points]
        assert _consistent_secret_count(held, k, p) == len(consistent_secrets(points, k, p))


@given(
    st.integers(0, DEFAULT_PRIME - 1),
    st.integers(2, 6),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_default_field_round_trip(secret, n, seed):
    k = choose_threshold(n)
    shares = split_secret(secret, k, range(1, n + 1), seed)
    assert reconstruct(shares[:k], k) == secret
