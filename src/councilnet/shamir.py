"""Threshold secret sharing over a prime field.

A (k, n) threshold is one int k: the n holders are the x coordinates a secret
is split over, and ``choose_threshold(n)`` picks k as a strict majority.
A secret s is hidden as the constant term of a random polynomial f of degree
k-1; share i is the point (x_i, f(x_i)).  Any k shares reconstruct f(0) by
Lagrange interpolation, fewer than k reveal nothing.  Shares carry an epoch
counter so that proactive refreshes (adding a random zero-constant
polynomial) invalidate stale material.  Each share-input rule is written
once, here; a modulus is tested for primality where it enters the program.
Splits and refreshes share one draw rule, ``_draws``, which reseeds its scratch
generator through the C base class, and one kernel, ``_blind``, which takes the
shares as stored, the blind's coefficients highest first and the epoch it
stamps; a ledger also runs it on the unreduced sums of several refreshes'
coefficients, stamping its own epoch.
"""

from __future__ import annotations

import itertools
import random
import threading
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateX,
    IncompleteShareSet,
    InsufficientShares,
    InvalidCouncilSize,
    MixedEpoch,
    ValidationError,
    ZeroX,
)
from .graph import _is_int

DEFAULT_PRIME = 2**61 - 1
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n) -> bool:
    """Whether ``n`` is an int and a prime below 2**64, the bound under which Miller-Rabin
    over the first twelve prime bases is exact (Sorenson & Webster 2017)."""
    if not _is_int(n) or not 2 <= n < 2**64:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(prime, name: str) -> None:
    if not is_prime(prime):
        raise ValidationError(f"{name} must be a prime number below 2**64, got {prime!r}")


def _check_element(value, prime: int, name: str) -> None:
    if not (_is_int(value) and 0 <= value < prime):
        raise ValidationError(f"{name} {value!r} is not an integer in 0..{prime - 1}")


def _check_threshold(k, n: Optional[int] = None) -> None:
    if not (_is_int(k) and k >= 1 and (n is None or k <= n)):
        raise ValidationError(f"threshold k={k!r} must be an integer in 1..{'n' if n is None else repr(n)}")


def _check_epoch(epoch) -> None:
    if not (_is_int(epoch) and epoch >= 0):
        raise ValidationError(f"epoch {epoch!r} is not an integer >= 0")


class Share(NamedTuple):
    """One point (x, y) of a sharing polynomial, tagged with its refresh epoch."""

    x: int
    y: int
    epoch: int = 0


def choose_threshold(n: int) -> int:
    """Smallest k with k >= (n+1)/2: a majority of holders must cooperate.

    The single-head council degenerates to k = 1.
    """
    if not _is_int(n) or n < 1:
        raise InvalidCouncilSize(f"council size must be an integer >= 1, got {n!r}")
    return n // 2 + 1


class _Scratch(threading.local):
    # One generator per thread, reseeded in place for every draw: cheaper than a new
    # ``random.Random``, and no thread can reseed another's between its seed and draws.
    def __init__(self) -> None:
        self.rng = random.Random()


_scratch = _Scratch()
# ``_random.Random.seed``: for an int seed ``random.Random.seed`` calls it and clears
# ``gauss_next``, which ``getrandbits`` never reads.
_seed = random.Random.__mro__[1].seed


def _draws(seed: int, count: int, prime: int) -> list[int]:
    """The first ``count`` values of ``random.Random(seed).randrange(prime)``, drawn as
    ``randrange`` does, by ``getrandbits`` of the prime's bit length with rejection."""
    if count == 0:
        return []
    rng = _scratch.rng
    _seed(rng, seed)
    getrandbits, bits = rng.getrandbits, prime.bit_length()
    draws = []
    while len(draws) < count:
        r = getrandbits(bits)
        if r < prime:
            draws.append(r)
    return draws


def _blind(keys: Iterable, shares: Iterable[Share], horner: Sequence[int], prime: int, epoch: int) -> dict:
    """The share (x, y + x * h(x), ``epoch``) under each key, for each (x, y, old epoch) of
    ``shares``, h(x) = c_1 + c_2 x + ... given highest first, as Horner's rule reads it: a
    refresh adds the zero-constant blind x * h(x) to the shares of one epoch (or, with each
    c summed, of several refreshes at once), a split adds it to the secret.  Horner's rule
    runs over exact integers, reduced once per share, so unreduced sums give the same
    shares; ``tuple.__new__`` skips ``Share``'s ``__new__``.
    """
    new = tuple.__new__
    blinded = {}
    for key, (x, y, _) in zip(keys, shares):
        acc = 0
        for c in horner:
            acc = acc * x + c
        blinded[key] = new(Share, (x, (y + x * acc) % prime, epoch))
    return blinded


def _check_xs(xs: Sequence[int], prime: int) -> None:
    for x in xs:
        if not _is_int(x):
            raise ValidationError(f"share x coordinate {x!r} is not an integer")
        if x % prime == 0:
            raise ZeroX(f"share x coordinate {x} is zero in GF({prime})")
    if len({x % prime for x in xs}) != len(xs):
        raise DuplicateX("share x coordinates must be distinct")


def _check_read_shares(shares: Sequence[Share], prime: int) -> None:
    """The rules for shares read from outside the program, where each x is reduced too."""
    for s in shares:
        _check_element(s.x, prime, "share x")
        _check_element(s.y, prime, "share y")
        _check_epoch(s.epoch)
    _check_xs([s.x for s in shares], prime)


def split_secret(
    secret: int,
    k: int,
    xs: Sequence[int],
    seed: int,
    prime: int = DEFAULT_PRIME,
) -> tuple[Share, ...]:
    """Split a secret into one share per x coordinate, deterministically per seed, so that
    any k of the n = ``len(xs)`` shares rebuild it; k is checked first, then the inputs."""
    _check_threshold(k, len(xs))
    _check_element(secret, prime, "secret")
    _check_xs(xs, prime)
    xs = [x % prime for x in xs]
    points = zip(xs, itertools.repeat(secret), itertools.repeat(0))
    return tuple(_blind(xs, points, _draws(seed, k - 1, prime)[::-1], prime, 0).values())


def _common_epoch(shares: Sequence[Share]) -> int:
    epochs = {s.epoch for s in shares}
    if len(epochs) > 1:
        raise MixedEpoch(f"shares span epochs {sorted(epochs)}")
    return epochs.pop()


def _lagrange_at(shares: Sequence[Share], x0: int, prime: int) -> int:
    # Sum of y_i * l_i(x0) where l_i is the Lagrange basis through the x's.
    total = 0
    for i, si in enumerate(shares):
        num, den = 1, 1
        for j, sj in enumerate(shares):
            if i == j:
                continue
            num = num * (x0 - sj.x) % prime
            den = den * (si.x - sj.x) % prime
        total = (total + si.y * num * pow(den, -1, prime)) % prime
    return total


def _quorum(shares: Iterable[Share], k: int, prime: int, *new_xs: int) -> tuple[list[Share], int]:
    """The shares sorted by x and their epoch, once k, count, epochs and x's (and ``new_xs``) pass."""
    _check_threshold(k)
    share_list = sorted(shares, key=lambda s: s.x)
    if len(share_list) < k:
        raise InsufficientShares(f"need at least {k} shares, got {len(share_list)}")
    epoch = _common_epoch(share_list)
    _check_xs([s.x for s in share_list] + list(new_xs), prime)
    return share_list, epoch


def reconstruct(shares: Iterable[Share], k: int, prime: int = DEFAULT_PRIME) -> int:
    """Interpolate the secret at x = 0 from at least k same-epoch shares."""
    return _lagrange_at(_quorum(shares, k, prime)[0], 0, prime)


def issue_share(
    quorum: Iterable[Share],
    new_x: int,
    k: int,
    prime: int = DEFAULT_PRIME,
) -> Share:
    """Derive the share at a fresh x from a reconstruction quorum.

    Computed as the sum of per-holder contributions y_i * l_i(new_x), so no
    single contribution equals the secret; the underlying polynomial never
    materialises in one place.
    """
    quorum_list, epoch = _quorum(quorum, k, prime, new_x)
    new_x %= prime
    return Share(new_x, _lagrange_at(quorum_list, new_x, prime), epoch)


def refresh_shares(
    shares: Iterable[Share],
    k: int,
    seed: int,
    prime: int = DEFAULT_PRIME,
) -> tuple[Share, ...]:
    """Proactively re-randomise the complete share set without moving the secret.

    Adds a random degree-(k-1) polynomial with zero constant term and moves
    the shares to the next epoch, so old and new shares can no longer be
    mixed.  Every call checks k, the epochs and the x coordinates, then
    blinds every share through ``_blind``, stamping the common epoch + 1;
    ``ClusterLedger`` runs that kernel on its pending blinds too, stamping
    its own epoch.  Each new y depends only on its own x and the seed.  The
    new shares come in ascending x.
    """
    _check_threshold(k)
    share_list = sorted(shares, key=lambda s: s.x)
    if not share_list:
        raise IncompleteShareSet("refresh needs at least one share")
    epoch = _common_epoch(share_list)
    xs = [s.x for s in share_list]
    _check_xs(xs, prime)
    return tuple(_blind(xs, share_list, _draws(seed, k - 1, prime)[::-1], prime, epoch + 1).values())
