"""Share-arithmetic oracle: Horner's rule reduced mod p at every step.

Copies of ``split_secret`` and ``refresh_shares`` as they stood before the
share layer evaluated its polynomials over exact integers and reduced once
per share.  They draw the same coefficients from the same seed, and the
refresh evaluates its blind with the zero constant term in place, so the
property tests in ``test_shamir.py`` can require equal shares.  Shares are
plain ``(x, y, epoch)`` tuples; checks on the inputs are left to the library.
"""

import random


def eval_poly(coeffs, x, p):
    """Horner's rule, reduced at every step; coeffs[0] is the constant term."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def split_secret(secret, k, xs, seed, p):
    rng = random.Random(seed)
    coeffs = [secret] + [rng.randrange(p) for _ in range(k - 1)]
    return [(x % p, eval_poly(coeffs, x % p, p), 0) for x in xs]


def refresh_shares(shares, k, seed, p):
    """Shares given as ``(x, y, epoch)`` of one epoch, returned in ascending x."""
    rng = random.Random(seed)
    blind = [0] + [rng.randrange(p) for _ in range(k - 1)]
    return [(x, (y + eval_poly(blind, x, p)) % p, epoch + 1) for x, y, epoch in sorted(shares)]
