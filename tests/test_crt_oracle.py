"""CRT differential tests against a naive incremental combiner.

The oracle folds the congruences in one at a time with one modular inverse
per step and shares no code with gapforge.arith.
"""

import math
import random

import pytest

from gapforge.arith import crt_combine
from gapforge.covering import build_certificate, crt_witness


def _naive_crt(classes):
    """(T, P) with T == -a (mod p) for each (p, a), T in [0, P)."""
    T, P = 0, 1
    for p, a in classes:
        t = (-a - T) * pow(P, -1, p) % p
        T += P * t
        P *= p
    return T, P


def _primes_below(n):
    return [k for k in range(2, n) if all(k % d for d in range(2, math.isqrt(k) + 1))]


PRIMES = _primes_below(40_000)


# 1, 2, 3 and odd sizes into the thousands: every level of the product tree
# meets an odd node at some size, at the bottom, in the middle and at the top
@pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 9, 17, 31, 33, 63, 65, 255, 257,
                                  1023, 1025, 2047, 3001, 4095])
def test_crt_combine_matches_naive_oracle(size):
    rng = random.Random(size)
    chosen = rng.sample(PRIMES, size)
    classes = [(p, rng.randrange(p)) for p in chosen]
    w = crt_combine(classes)
    assert (w.T, w.P) == _naive_crt(classes)


@pytest.mark.parametrize("x, q, b", [(10**3, 7, 2), (10**4, 101, 100),
                                     (10**4, 64, 63), (10**5, 113, 87)])
def test_crt_witness_matches_naive_oracle(x, q, b):
    cert = build_certificate(x, q, b)
    T, P = _naive_crt([(c.p, c.a) for c in cert.classes])
    w = crt_witness(cert)
    assert (w.T, w.P) == (T or P, P)
