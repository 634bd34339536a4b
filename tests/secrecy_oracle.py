"""Exhaustive oracle for the secrecy audit's count of consistent secrets.

Enumerates every degree-(k-1) polynomial over GF(p), so it only runs where
the whole space fits inside ``councilnet.audit``'s enumeration limits.
"""

import itertools
import operator

from councilnet.audit import BRUTE_FORCE_LIMIT, SMALL_PRIME_LIMIT


def poly_eval(coeffs, x, p):
    """Plain power-sum evaluation, no Horner, no library."""
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def consistent_secrets(points, k, p):
    """Constant terms of all degree-(k-1) polynomials over GF(p) that pass
    through every (x, y) point, each point read mod p."""
    assert p <= SMALL_PRIME_LIMIT and p**k <= BRUTE_FORCE_LIMIT, (p, k)
    # each point as its row of powers x^0..x^(k-1), so a candidate costs one
    # dot product per point
    rows = [([pow(x, i, p) for i in range(k)], y % p) for x, y in points]
    return {
        coeffs[0]
        for coeffs in itertools.product(range(p), repeat=k)
        if all(sum(map(operator.mul, coeffs, powers)) % p == y for powers, y in rows)
    }
