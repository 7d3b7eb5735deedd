"""CRT differential tests against a naive incremental combiner.

The oracle folds the congruences in one at a time with one modular inverse
per step and shares no code with gapforge.arith.  A second oracle is the
product tree with one prime per leaf, its remainder tree and scaled
remainder tree in plain Python ints, against which the packed trees are
checked where their leaf words change width.
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from gapforge import arith, covering
from gapforge.arith import _crt, _product_tree, multi_mod
from gapforge.covering import build_certificate, crt_witness, witness_of_verified
from gapforge.errors import InvalidCertificate
from gapforge.model import MATCHED, ClassTable, Rational


def _naive_crt(classes):
    """(T, P) with T == -a (mod p) for each (p, a), T in [0, P)."""
    T, P = 0, 1
    for p, a in classes:
        t = (-a - T) * pow(P, -1, p) % p
        T += P * t
        P *= p
    return T, P


def _pairs(cert):
    """The (p, a) pairs of a certificate's classes, as Python ints."""
    return list(zip(cert.classes.p.tolist(), cert.classes.a.tolist()))


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
    tree = _product_tree(chosen)
    assert (_crt(tree, np.array([-a % p for p, a in classes])), tree[-1][0]) == _naive_crt(classes)


@pytest.mark.parametrize("x, q, b", [(10**3, 7, 2), (10**4, 101, 100),
                                     (10**4, 64, 63), (10**5, 113, 87)])
def test_crt_witness_matches_naive_oracle(x, q, b):
    cert = build_certificate(x, q, b)
    T, P = _naive_crt(_pairs(cert))
    w = crt_witness(cert)
    assert (w.T, w.P) == (T or P, P)


# q = 101, b = 100, y = 20000 under an assumed deficit of 1/50: 3,861 classes,
# 2,393 of them in the forced congruence q*T == b
_LARGE = (101 * 20_000 + 100, 101, 100, Rational(1, 50))


def _shared_count(cert):
    q, b = cert.q, cert.b
    return sum(q % p != 0 and (q * a + b) % p == 0 for p, a in _pairs(cert))


def _assert_matches_oracle(cert):
    T, P = _naive_crt(_pairs(cert))
    got_T, got_P, residues = witness_of_verified(cert)
    assert (got_T, got_P) == (T or P, P)
    # T mod each class prime, as a column of the class primes' dtype
    assert residues.dtype == cert.classes.p.dtype
    assert residues.tolist() == [got_T % p for p, _ in _pairs(cert)]
    # without product the same T, and no P
    assert witness_of_verified(cert, product=False)[:2] == (got_T, None)


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
    P = _naive_crt(_pairs(cert))[1]
    cert = _rewritten(cert, q, b + periods * P)
    assert _shared_count(cert) == shared
    _assert_matches_oracle(cert)


@pytest.mark.parametrize("q", [1, 10**9 + 7])
def test_witness_with_every_class_shared_matches_naive_oracle(q):
    cert = build_certificate(10**4, 101, 100)
    T, P = _naive_crt(_pairs(cert))
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


def _unpacked_tree(primes):
    """Levels of pairwise products with one prime per leaf."""
    tree = [list(primes)]
    while len(tree[-1]) > 1:
        prev = tree[-1]
        tree.append([prev[i] * prev[i + 1] if i + 1 < len(prev) else prev[i]
                     for i in range(0, len(prev), 2)])
    return tree


def _unpacked_tree_mod(value, tree):
    """value mod each leaf, reduced from the root down."""
    rems = [value]
    for level in reversed(tree):
        rems = [rems[i // 2] % m for i, m in enumerate(level)]
    return rems


def _unpacked_crt(tree, residues):
    """(T, P) with T == residues[i] (mod leaf i): scaled remainders down to
    each prime, then v_L*R + v_R*L up from it."""
    primes, P = tree[0], tree[-1][0]
    scaled = [1]
    for level in reversed(tree[:-1]):
        scaled = [scaled[i // 2] * (level[i ^ 1] if i ^ 1 < len(level) else 1) % m
                  for i, m in enumerate(level)]
    values = [r * pow(c, -1, p) % p for p, r, c in zip(primes, residues, scaled)]
    for level in tree[:-1]:
        values = [values[i] * level[i + 1] + values[i + 1] * level[i]
                  if i + 1 < len(level) else values[i]
                  for i in range(0, len(level), 2)]
    return values[0] % P, P


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _primes_from(n, step, count):
    """The count primes nearest n, from n on in the direction of step."""
    out = []
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n += step
    return out


# the leaf words hold three primes below 2**20, two below 2**31 and one past
# it: the largest prime just below and just above each edge, with two more
# primes on the same side; and just below 2**21 and 2**32, where one more
# prime per word would pass 2**63
EDGES = {f"{side} 2**{e}": (_primes_from(2**e + (1 if side == "above" else -1),
                                         1 if side == "above" else -1, 3), width)
         for e, side, width in ((20, "below", 3), (20, "above", 2), (21, "below", 2),
                                (31, "below", 2), (31, "above", 1), (32, "below", 1))}


@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 299, 300, 301])
def test_packed_trees_match_unpacked_oracle(edge, size):
    tops, width = EDGES[edge]
    rng = random.Random(f"{edge} {size}")
    primes = rng.sample(PRIMES, max(0, size - 3)) + tops[: min(size, 3)]
    rng.shuffle(primes)
    tree = _product_tree(primes)
    assert arith._word_width(tree[0]) == width
    unpacked = _unpacked_tree(primes)
    value = rng.getrandbits(sum(p.bit_length() for p in primes) + 100)
    want = [value % p for p in primes]
    assert multi_mod(value, primes) == _unpacked_tree_mod(value, unpacked) == want
    assert multi_mod(value, tree[0]) == want
    residues = [rng.randrange(p) for p in primes]
    got = _crt(tree, np.array(residues, dtype=tree[0].dtype)), tree[-1][0]
    assert got == _unpacked_crt(unpacked, residues)
    assert got == _naive_crt([(p, -r % p) for p, r in zip(primes, residues)])


def _with_classes(cert, pairs, q, b):
    """cert with matched classes (p, a) added, rewritten to q and b."""
    extra = ClassTable([p for p, _ in pairs], [a for _, a in pairs], MATCHED)
    return dataclasses.replace(cert, x=q * cert.y + b, q=q, b=b,
                               classes=ClassTable.concat(cert.classes, extra))


# the classes of (10**4, 101, 100), 59 of them shared and 13 not, plus one to
# three classes of primes at an edge of the word widths: in the rest, with
# the shared classes kept, with none shared, or with all shared
@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("shared", ["some", "none", "all"])
def test_witness_across_word_widths_matches_naive_oracle(edge, count, shared):
    cert = build_certificate(10**4, 101, 100)
    rng = random.Random(f"{edge} {count} {shared}")
    # a != -b/q mod p keeps an added class out of the forced congruence
    pairs = [(p, (rng.randrange(1, p) - 100 * pow(101, -1, p)) % p)
             for p in EDGES[edge][0][:count]]
    q, b = {"some": (101, 100), "none": (101, -1), "all": (1, 0)}[shared]
    cert = _with_classes(cert, pairs, q, b)
    if shared == "all":
        # q*T == b (mod P) puts every class in the forced congruence
        T, P = _naive_crt(_pairs(cert))
        cert = _rewritten(cert, 1, T - P)
    want = {"some": 59, "none": 0, "all": len(cert.classes)}[shared]
    assert _shared_count(cert) == want
    _assert_matches_oracle(cert)
