import math
import random

import numpy as np
import pytest

from gapforge import arith, sieve
from gapforge.arith import (
    _crt,
    _divmod,
    _prime_inverses,
    _product_tree,
    factorize,
    is_prime,
    multi_mod,
    primorial,
    totient,
)

from prime_oracle import small_primes_up_to


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(97)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_is_prime_matches_trial_division_low_range():
    for n in range(0, 20_000):
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_exhaustive_to_one_million():
    n = 10**6
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    mismatches = [k for k in range(n + 1) if bool(flags[k]) != is_prime(k)]
    assert mismatches == []


def test_is_prime_64_bit_edges():
    assert is_prime(2**61 - 1)
    assert is_prime(18446744073709551557)  # largest prime below 2**64
    assert not is_prime(2**61 + 1)
    # Carmichael / strong pseudoprime classics
    for n in (561, 1729, 25326001, 3825123056546413051):
        assert not is_prime(n), n


def test_totient_examples():
    assert totient(1) == 1
    assert totient(4) == 2
    assert totient(30) == 8


def test_totient_brute_force_gcd_count():
    for q in range(1, 2001):
        expected = sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)
        assert totient(q) == expected, q


def test_totient_against_linear_sieve_table():
    n = 10**4
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched means prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    for q in range(1, n + 1):
        assert totient(q) == phi[q], q


def test_factorize_reconstructs_and_is_prime():
    rng = random.Random(11)
    values = [rng.randrange(2, 10**12) for _ in range(300)]
    values += [3215031751, 2**61 - 1, 600851475143, 2**40, 10**12 - 1]
    for n in values:
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n, n
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_primorial_examples():
    assert primorial(2) == 2
    assert primorial(7) == 210
    assert primorial(23) == 223092870


def test_primorial_divisibility():
    for u in range(2, 24):
        value = primorial(u)
        for p in small_primes_up_to(u):
            assert value % p == 0
            assert value % (p * p) != 0
            value_wo = value // p
            assert value_wo % p != 0
        # dividing out each prime <= u exactly once leaves 1
        rest = value
        for p in small_primes_up_to(u):
            rest //= p
        assert rest == 1


def test_primorial_across_the_column_top():
    # up to 2**16 - 1 the primes are the constant column, past it a sieve
    # of their own
    oracle = small_primes_up_to(70001)
    for u in (65520, 65521, 65535, 65536, 65537, 70001):
        assert primorial(u) == math.prod(p for p in oracle if p <= u), u


def test_small_primes_have_one_source():
    column = arith._SMALL_PRIMES
    assert sieve._SMALL_PRIMES is column and column.size == 6542
    assert arith._TRIAL == small_primes_up_to(10**4 - 1)
    assert arith._TRIAL_HEAD == tuple(arith._TRIAL[:12]) and arith._TRIAL_HEAD[-1] == 37


def _trial_factors(n: int) -> list[tuple[int, int]]:
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + ([(n, 1)] if n > 1 else [])


def test_factorize_matches_trial_division():
    rng = random.Random(25)
    values = list(range(1, 3000)) + [rng.randrange(10**6, 10**9) for _ in range(300)]
    values += [p * p for p in (9949, 9967, 9973, 10007)] + [2 * 9973, 4 * 10007]
    for n in values:
        assert factorize(n) == _trial_factors(n), n


def test_factorize_published_values():
    assert factorize(2**32 + 1) == [(641, 1), (6700417, 1)]  # Euler
    # Landry: both factors pass the trial primes, so Pollard rho splits it
    assert factorize(2**64 + 1) == [(274177, 1), (67280421310721, 1)]
    # 9973 is the last trial prime and 10007 the first prime past it
    assert factorize(9973 * 10007) == [(9973, 1), (10007, 1)]
    assert factorize(10007**2) == [(10007, 2)]


def test_arith_refuses_arguments_out_of_range():
    with pytest.raises(ValueError, match="^factorize expects n >= 1$"):
        factorize(0)
    with pytest.raises(ValueError, match="^totient expects q >= 1$"):
        totient(0)
    with pytest.raises(ValueError, match="^primorial expects u >= 2$"):
        primorial(1)


def _crt_of(classes):
    """_crt of the (p, a) pairs, T == -a (mod p) for each pair, and the
    product P of the primes, the root of their tree."""
    tree = _product_tree([p for p, _ in classes])
    return _crt(tree, np.array([-a % p for p, a in classes], dtype=tree[0].dtype)), tree[-1][0]


def test_crt_combine_examples():
    assert _crt_of([(2, 0)]) == (0, 2)
    assert _crt_of([(2, 0), (3, 1)]) == (2, 6)
    assert _crt_of([(3, 0), (5, 3)]) == (12, 15)
    largest = 2**64 - 59  # the largest prime below 2**64, a leaf of its own
    assert _crt_of([(largest, 5)]) == (largest - 5, largest)


def test_crt_combine_recheck_property():
    rng = random.Random(23)
    primes = small_primes_up_to(500)
    for _ in range(200):
        chosen = rng.sample(primes, rng.randrange(1, 12))
        classes = [(p, rng.randrange(p)) for p in chosen]
        T, P = _crt_of(classes)
        assert 0 <= T < P
        assert P == math.prod(p for p, _ in classes)
        for p, a in classes:
            assert (T + a) % p == 0


def test_crt_combine_many_classes():
    # thousands of congruences must combine quickly and correctly
    primes = small_primes_up_to(20_000)
    rng = random.Random(5)
    classes = [(p, rng.randrange(p)) for p in primes]
    T, _ = _crt_of(classes)
    for p, a in classes[:50] + classes[-50:]:
        assert (T + a) % p == 0
    assert multi_mod(T, [p for p, _ in classes]) == [
        (-a) % p for p, a in classes
    ]


def test_multi_mod_matches_direct_reduction():
    rng = random.Random(31)
    value = rng.getrandbits(5000)
    mods = [rng.randrange(2, 10**9) for _ in range(257)]
    assert multi_mod(value, mods) == [value % m for m in mods]
    assert multi_mod(value, []) == []
    assert multi_mod(value, [7]) == [value % 7]
    # numpy scalars, on both sides of 2**31, multiply as Python ints
    for big in (False, True):
        mods = [np.int64(m + big * 2**40) for m in mods]
        assert multi_mod(value, mods) == [value % int(m) for m in mods]


CUTOFF = arith._BZ_CUTOFF
# divisor and quotient bit lengths at the builtin cutoff, one bit to either
# side, odd and even, and past two and four times it, where the recursion
# splits more than once
BZ_SIZES = (CUTOFF - 1, CUTOFF, CUTOFF + 1, 2 * CUTOFF + 3, 2 * CUTOFF + 4,
            4 * CUTOFF + 7, 9 * CUTOFF + 2)


def _bits(rng, n):
    """A random integer of exactly n bits."""
    return rng.getrandbits(n) | (1 << (n - 1))


def test_divmod_matches_builtin_at_and_past_the_cutoff():
    rng = random.Random(61)
    for n in BZ_SIZES:
        b = _bits(rng, n)
        for k in (0,) + BZ_SIZES:
            a = _bits(rng, n + k) if k else rng.getrandbits(n - 1)
            assert _divmod(a, b) == divmod(a, b), (n, k)
            assert _divmod(a * b, b) == divmod(a * b, b), (n, k)


def test_divmod_extreme_operands():
    rng = random.Random(67)
    for n in BZ_SIZES:
        b = _bits(rng, n)
        for a, d in (
            (b * 2**n - 1, b),  # the largest a of a 2n-by-n step
            (b * 2**(3 * n) - 1, b),
            (_bits(rng, 3 * n), 2**n),
            (_bits(rng, 3 * n), 2**n - 1),
            (2**(2 * n) - 1, 2**n - 1),
            ((2**n - 1) ** 2, 2**n - 1),
            (0, b),
            (b - 1, b),  # zero quotient
            (-_bits(rng, 3 * n), b),  # the builtin's floor semantics
        ):
            assert _divmod(a, d) == divmod(a, d), (n, a.bit_length(), d.bit_length())


def test_prime_inverses_match_pow():
    # 2 and 3, the int64 path's largest primes, and primes past 2**31 that
    # take pow: one batch runs both paths
    primes = [2, 3, 5, 2**31 - 19, 2**31 - 1, 2**31 + 11, 2**61 - 1, 2**64 - 59]
    values, moduli = [], []
    for p in primes:
        for v in (1, p - 1, 2 % p or 1, (p // 3) or 1):
            values.append(v)
            moduli.append(p)
    want = [pow(v, -1, p) for v, p in zip(values, moduli)]
    # the inverses come back as a column of the moduli's dtype
    values, moduli = np.array(values, dtype=object), np.array(moduli, dtype=object)
    found = _prime_inverses(values, moduli)
    assert found.dtype == object and found.tolist() == want
    small = moduli < 2**31
    found = _prime_inverses(values[small].astype(np.int64), moduli[small].astype(np.int64))
    assert found.dtype == np.int64
    assert found.tolist() == [w for w, s in zip(want, small) if s]
    found = _prime_inverses(values[small], moduli[small])
    assert found.dtype == object and found.tolist() == [w for w, s in zip(want, small) if s]
    assert _prime_inverses(np.zeros(0, np.int64), np.zeros(0, np.int64)).size == 0
    rng = random.Random(71)
    primes = small_primes_up_to(50_000)
    values = [rng.randrange(1, p) if p > 2 else 1 for p in primes]
    found = _prime_inverses(np.array(values), np.array(primes))
    assert found.tolist() == [pow(v, -1, p) for v, p in zip(values, primes)]


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1, 2**31 + 11])
def test_prime_inverses_refuse_zero(p):
    for v in (0, p):
        with pytest.raises(ValueError):
            _prime_inverses(np.array([1, v], dtype=object), np.array([5, p], dtype=object))


def test_crt_tree_levels_past_the_cutoff():
    # 1200 primes of ~17 bits: the top levels of the tree hold nodes past
    # the cutoff, so recursive division runs on both passes
    rng = random.Random(73)
    primes = rng.sample(small_primes_up_to(200_000)[1000:], 1200)
    residues = [rng.randrange(p) for p in primes]
    tree = _product_tree(primes)
    got = _crt(tree, np.array(residues))
    assert tree[-2][0].bit_length() > CUTOFF
    assert tree[-1][0] == math.prod(primes)
    T, P = 0, 1
    for p, r in zip(primes, residues):  # incremental oracle
        T += P * ((r - T) * pow(P, -1, p) % p)
        P *= p
    assert got == T
    assert multi_mod(got, primes) == residues
    assert arith._tree_mod(got, tree).tolist() == residues


# least strong pseudoprime to bases 2, 7 and 61: the end of their proven range
SMALL_BASE_LIMIT = 4_759_123_141


def test_is_prime_rejects_strong_pseudoprimes_near_base_limits():
    assert SMALL_BASE_LIMIT == 48781 * 97561
    for n in (
        SMALL_BASE_LIMIT,
        2152302898747,  # strong pseudoprime to 2, 3, 5, 7, 11
        3474749660383,  # strong pseudoprime to 2, 3, 5, 7, 11, 13
        341550071728321,  # strong pseudoprime to 2, ..., 17
        3825123056546413051,  # strong pseudoprime to 2, ..., 23
    ):
        assert not is_prime(n), n


def test_is_prime_matches_trial_division_around_base_limit():
    rng = random.Random(47)
    values = [SMALL_BASE_LIMIT + rng.randrange(-10**5, 10**5 + 1) for _ in range(200)]
    assert min(values) < SMALL_BASE_LIMIT < max(values)
    for n in values:
        assert is_prime(n) == _trial_division(n), n
