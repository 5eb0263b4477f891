"""Exact arithmetic in the prime field F_p."""

from .errors import AlgebraError, ZeroInverse

MAX_P = 1 << 16


def check_prime(p):
    """Validate p by trial division; only small primes are supported."""
    if not isinstance(p, int) or p < 2 or p >= MAX_P:
        raise AlgebraError("characteristic must be a prime below 2^16, got %r" % (p,))
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise AlgebraError("characteristic %d is not prime" % p)
        d += 1
    return p


def inv_mod(a, p):
    a %= p
    if a == 0:
        raise ZeroInverse("0 has no inverse mod %d" % p)
    return pow(a, p - 2, p)
