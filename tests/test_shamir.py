import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from councilnet.audit import BRUTE_FORCE_LIMIT, _consistent_secret_count
from councilnet.errors import (
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
    ThresholdPolicy,
    choose_threshold,
    issue_share,
    reconstruct,
    refresh_shares,
    split_secret,
)
from secrecy_oracle import consistent_secrets, poly_eval

P = 13

# seeds pinned so the internal coefficient draws are known (see the asserts)
SEED_A1_IS_7 = 9
SEED_ZERO_BLIND = 2


class TestChooseThreshold:
    def test_table(self):
        assert [choose_threshold(n).k for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_three_heads_need_two(self):
        policy = choose_threshold(3)
        assert (policy.n, policy.k) == (3, 2)

    def test_degenerate_single_head(self):
        assert choose_threshold(1) == ThresholdPolicy(1, 1)

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 0), (2, -1)])
    def test_policy_requires_k_within_one_to_n(self, n, k):
        with pytest.raises(ValidationError):
            ThresholdPolicy(n, k)

    def test_rejects_empty_council(self):
        with pytest.raises(InvalidCouncilSize):
            choose_threshold(0)

    @given(st.integers(1, 500))
    def test_majority_rule(self, n):
        k = choose_threshold(n).k
        assert 1 <= k <= n
        assert 2 * k >= n + 1


class TestSplitSecret:
    def test_known_linear_polynomial(self):
        # seed forces f(x) = 6 + 7x over GF(13)
        shares = split_secret(6, ThresholdPolicy(3, 2), (1, 2, 3), SEED_A1_IS_7, P)
        assert [(s.x, s.y) for s in shares] == [(1, 0), (2, 7), (3, 1)]
        oracle = [poly_eval((6, 7), x, P) for x in (1, 2, 3)]
        assert [s.y for s in shares] == oracle

    def test_k1_shares_equal_secret(self):
        shares = split_secret(6, ThresholdPolicy(3, 1), (1, 2, 3), 0, P)
        assert all(s.y == 6 for s in shares)

    def test_k_equals_n(self):
        shares = split_secret(6, ThresholdPolicy(3, 3), (1, 2, 3), 5, P)
        assert reconstruct(shares, 3, P) == 6
        # two points under-determine a quadratic: at least one pair misleads
        pair_values = {reconstruct(pair, 2, P) for pair in itertools.combinations(shares, 2)}
        assert pair_values != {6}

    def test_share_metadata(self):
        shares = split_secret(6, ThresholdPolicy(2, 2), (1, 2), 0, P)
        assert all(s.epoch == 0 and not hasattr(s, "k") for s in shares)

    def test_deterministic_per_seed(self):
        a = split_secret(11, ThresholdPolicy(4, 3), (1, 2, 3, 4), 42, P)
        b = split_secret(11, ThresholdPolicy(4, 3), (1, 2, 3, 4), 42, P)
        assert a == b

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            split_secret(13, ThresholdPolicy(2, 2), (1, 2), 0, P)
        with pytest.raises(DuplicateX):
            split_secret(6, ThresholdPolicy(2, 2), (1, 1), 0, P)
        with pytest.raises(ZeroX):
            split_secret(6, ThresholdPolicy(2, 2), (0, 1), 0, P)
        with pytest.raises(ZeroX):
            split_secret(6, ThresholdPolicy(2, 2), (13, 1), 0, P)


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

    def test_every_k_subset_reconstructs(self):
        rng = random.Random(77)
        for n in range(1, 7):
            for k in range(1, n + 1):
                secret = rng.randrange(P)
                shares = split_secret(secret, ThresholdPolicy(n, k), range(1, n + 1), rng.randrange(10**6), P)
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


class TestRefreshShares:
    def make_shares(self):
        return split_secret(6, ThresholdPolicy(3, 2), (1, 2, 3), SEED_A1_IS_7, P)

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

    def test_incomplete_set_rejected(self):
        with pytest.raises(IncompleteShareSet):
            refresh_shares(self.make_shares()[:2], 2, 0, P, expected_n=3)

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
        shares = split_secret(6, ThresholdPolicy(3, 2), (1, 2, 3), SEED_A1_IS_7, P)
        for s in shares:
            assert consistent_secrets([(s.x, s.y)], 2, P) == set(range(P))

    def test_below_threshold_pairs_reveal_nothing_k3(self):
        shares = split_secret(9, ThresholdPolicy(4, 3), (1, 2, 3, 4), 31, P)
        for a, b in itertools.combinations(shares, 2):
            assert consistent_secrets([(a.x, a.y), (b.x, b.y)], 3, P) == set(range(P))

    def test_threshold_quorum_pins_the_secret(self):
        shares = split_secret(6, ThresholdPolicy(3, 2), (1, 2, 3), SEED_A1_IS_7, P)
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
    policy = choose_threshold(n)
    shares = split_secret(secret, policy, range(1, n + 1), seed)
    assert reconstruct(shares[: policy.k], policy.k) == secret
