"""CRT differential tests against a naive incremental combiner.

The oracle folds the congruences in one at a time with one modular inverse
per step and shares no code with gapforge.arith.
"""

import dataclasses
import math
import random

import pytest

from gapforge import covering
from gapforge.arith import crt_combine
from gapforge.covering import build_certificate, crt_witness, witness_of_verified
from gapforge.errors import InvalidCertificate
from gapforge.model import Rational


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


# q = 101, b = 100, y = 20000 under an assumed deficit of 1/50: 3,861 classes,
# 2,393 of them in the forced congruence q*T == b
_LARGE = (101 * 20_000 + 100, 101, 100, Rational(1, 50))


def _shared_count(cert):
    q, b = cert.q, cert.b
    return sum(q % c.p != 0 and (q * c.a + b) % c.p == 0 for c in cert.classes)


def _assert_matches_oracle(cert):
    T, P = _naive_crt([(c.p, c.a) for c in cert.classes])
    w, residues = witness_of_verified(cert)
    assert (w.T, w.P) == (T or P, P)
    assert residues == [w.T % c.p for c in cert.classes]


def _rewritten(cert, q, b):
    """The same classes and y under another progression, x = q*y + b."""
    return dataclasses.replace(cert, x=q * cert.y + b, q=q, b=b)


def test_witness_of_a_pipeline_certificate_matches_naive_oracle():
    cert = build_certificate(*_LARGE)
    assert len(cert.classes) == 3861
    assert _shared_count(cert) == 2393
    _assert_matches_oracle(cert)


# the classes of (10**4, 101, 100) under other (q, b): a negative b and one
# at or above q, each once small and once a period P away from 100, so the
# shared classes stay the forced ones; a q with no shared class; and
# q = 6*101, whose forced congruence is b == 600, where 2 and 3 divide both
# q and b and must not count as shared
@pytest.mark.parametrize("q, b, periods, shared", [
    (101, -1, 0, 0),
    (101, 100 + 5 * 101, 0, 1),
    (101, 100, -1, 59),
    (101, 100, 1, 59),
    (2**89 - 1, 3, 0, 0),
    (6 * 101, 600, 0, 57),
    (6 * 101, 1, 0, 0),
])
def test_witness_of_a_rewritten_certificate_matches_naive_oracle(q, b, periods, shared):
    cert = build_certificate(10**4, 101, 100)
    P = _naive_crt([(c.p, c.a) for c in cert.classes])[1]
    cert = _rewritten(cert, q, b + periods * P)
    assert _shared_count(cert) == shared
    _assert_matches_oracle(cert)


@pytest.mark.parametrize("q", [1, 10**9 + 7])
def test_witness_with_every_class_shared_matches_naive_oracle(q):
    cert = build_certificate(10**4, 101, 100)
    T, P = _naive_crt([(c.p, c.a) for c in cert.classes])
    # q*T == b (mod P) puts every class in the forced congruence
    cert = _rewritten(cert, q, q * T % P - P)
    assert _shared_count(cert) == len(cert.classes)
    _assert_matches_oracle(cert)


@pytest.mark.parametrize("part, message", [("shared", "not divisible"),
                                           ("rest", "not covered")])
def test_witness_check_refuses_a_perturbed_T(monkeypatch, part, message):
    cert = build_certificate(*_LARGE)
    check = covering._covered_residues

    def perturbed(cert, shared, P_S, tree, T):
        P_R = tree[-1][0]
        # + P_R moves T mod every shared prime only, + P_S mod every other
        return check(cert, shared, P_S, tree, T + (P_R if part == "shared" else P_S))

    monkeypatch.setattr(covering, "_covered_residues", perturbed)
    with pytest.raises(InvalidCertificate, match=message):
        witness_of_verified(cert)
