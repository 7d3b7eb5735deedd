"""Exact integer primitives: modular arithmetic, primality, totient,
primorials and CRT combination over arbitrary precision; and the package's
one source of small primes, the constant column _SMALL_PRIMES.

Everything here is a pure function; results are exact, never probabilistic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def _eratosthenes(n: int) -> np.ndarray:
    """The primes below n as a read-only int64 column, by plain Eratosthenes."""
    flags = np.ones(n, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes.setflags(write=False)
    return primes


# The 6,542 primes up to _SMALL_TOP, the package's one source of small
# primes, as one constant column built at import in 0.33 ms (2-core x86
# host); its 52 KB sit outside any request's budget, like the code.  A 2**18
# column raised the peak RSS of small covers by about 0.25 MB and did not
# clearly speed up the large ones it would serve.
_SMALL_TOP = 2**16 - 1
_SMALL_PRIMES = _eratosthenes(_SMALL_TOP + 1)

# The primes below 10**4 as Python ints: factorize trial-divides by them,
# and is_prime by their head, the 12 up to 37, held apart because slicing
# it on each call added about 100 ns, a tenth of an is_prime call.
_TRIAL = _SMALL_PRIMES[: np.searchsorted(_SMALL_PRIMES, 10**4)].tolist()
_TRIAL_HEAD = tuple(_TRIAL[:12])

# Fixed Miller-Rabin witness sets.  (2, 7, 61) proves primality for every
# n < 4,759,123,141, the least strong pseudoprime to all three bases
# (Jaeschke, Math. Comp. 61, 1993); the classic seven-base set from
# miller-rabin.appspot.com proves it for every n < 2**64.
_MR_SMALL_LIMIT = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# is_prime is a proof below this bound and nothing at or above it.
PROVEN_LIMIT = 2**64

# Moduli and residues are held in int64 while every value lies in
# [-COLUMN_LIMIT, COLUMN_LIMIT), where a product of two stays below 2**62:
# _WORDS packs two such moduli a word, _prime_inverses batches them in
# numpy, and the class columns of model hold to the same rule.
COLUMN_LIMIT = 2**31

# _divmod hands a division to the builtin once the divisor or the quotient
# has at most this many bits; tree levels whose nodes are that small skip it.
_BZ_CUTOFF = 4000

# Product-tree leaves are int64 words of consecutive moduli: three a word
# while every modulus is below 2**20 (a word below 2**60, so a sum of three
# terms, each below a word, stays below 2**62); two below COLUMN_LIMIT,
# 2**31 (a word below 2**62, a sum of two below 2**63, a product of two
# residues below 2**62); otherwise one, as a Python int.
_WORDS = ((2**20, 3), (COLUMN_LIMIT, 2))


def _prime_inverses(values: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """values[i]**-1 mod primes[i] for each i, as a column of the primes' dtype.

    Every modulus must be prime.  Moduli below COLUMN_LIMIT take values[i]**(p-2)
    mod p, by square-and-multiply in numpy int64 over the whole batch (their
    values must fit in int64); larger moduli take pow(v, -1, p).  A value
    divisible by its prime raises ValueError, as pow does.
    """
    big = primes >= COLUMN_LIMIT
    if big.any():
        out = np.empty_like(primes)
        out[big] = [pow(v, -1, p)
                    for v, p in zip(values[big].tolist(), primes[big].tolist())]
        out[~big] = _prime_inverses(values[~big], primes[~big])
        return out
    mods = primes.astype(np.int64)
    base = values.astype(np.int64) % mods
    if not base.all():
        i = int(np.argmin(base))
        raise ValueError(f"{values[i]} is not invertible modulo {primes[i]}")
    inv = np.ones_like(base)
    exp = mods - 2
    while exp.any():
        inv = np.where(exp & 1, inv * base % mods, inv)
        base = base * base % mods
        exp >>= 1
    return inv.astype(primes.dtype, copy=False)


def _inverses_of(q: int, primes: np.ndarray, phi: int) -> np.ndarray:
    """q**-1 mod each prime of an int64 column, none dividing q, by reciprocity.

    phi is totient(q).  Needs 0 < q < 2**31 and every prime below 2**31.
    p*t == -1 (mod q) for t = -p**(phi - 1) mod q, so 1 + p*t is a multiple
    of q whose quotient, below p as t < q, is q**-1 mod p.  One exponent
    serves the whole batch, by square-and-multiply in numpy int64, where
    every product stays below 2**62; it equals pow(q, -1, p) exactly.
    """
    base = primes % q
    power = np.ones_like(base)
    exp = phi - 1
    while exp:
        if exp & 1:
            power = power * base % q
        base = base * base % q
        exp >>= 1
    return (1 + primes * (-power % q)) // q


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64.

    Trial division by the primes up to 37, then strong probable-prime tests
    to the bases (2, 7, 61) below 4,759,123,141 and to the seven-base set
    from there up to 2**64.  At and above 2**64 a True is not a proof.
    """
    if n < 2:
        return False
    for p in _TRIAL_HEAD:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_SMALL_BASES if n < _MR_SMALL_LIMIT else _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Floyd's cycle detection).

    Deterministic: tries increasing polynomial offsets until one succeeds.
    """
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to factor {n}")  # pragma: no cover


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p ascending.

    Trial division by the primes below 10**4 while p*p <= n, then Pollard
    rho on what remains; fine for the 64-bit desk-scale inputs this package
    deals with.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _TRIAL:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


def totient(q: int) -> int:
    """Euler's phi, computed from the factorization of q."""
    if q < 1:
        raise ValueError("totient expects q >= 1")
    phi = 1
    for p, e in factorize(q):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def primorial(u: int) -> int:
    """Product of all primes <= u, from _SMALL_PRIMES up to _SMALL_TOP."""
    if u < 2:
        raise ValueError("primorial expects u >= 2")
    primes = _SMALL_PRIMES if u <= _SMALL_TOP else _eratosthenes(u + 1)
    return math.prod(primes[: np.searchsorted(primes, u, side="right")].tolist())


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0, by Burnikel-Ziegler recursive division.

    CPython 3.11 divides big integers by schoolbook, in time quadratic in
    the divisor; this splits each 2n-by-n step into two 3n/2-by-n steps, so
    the work goes to Karatsuba products (C. Burnikel and J. Ziegler, "Fast
    recursive division", MPI-I-98-1-022, 1998).  A negative a, or a divisor
    or quotient of at most _BZ_CUTOFF bits, goes to the builtin.
    """
    n = b.bit_length()
    if a < 0 or n <= _BZ_CUTOFF or a.bit_length() - n <= _BZ_CUTOFF:
        return divmod(a, b)
    # long division in base 2**n: each n-bit digit of a, from the top,
    # extends the running remainder r < b, and one 2n-by-n step divides it
    mask = (1 << n) - 1
    quot = rem = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, rem = _div_2n_by_n((rem << n) | ((a >> shift) & mask), b, n)
        quot = (quot << n) | digit
    return quot, rem


def _div_2n_by_n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) where b has exactly n bits and a < b * 2**n."""
    if n <= _BZ_CUTOFF or a.bit_length() - n <= _BZ_CUTOFF:
        return divmod(a, b)
    odd = n & 1
    if odd:  # the halves must be equal: scale both by 2, unscale the remainder
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b_hi, b_lo = b >> half, b & mask
    # a in four half-digits [a1 a2 a3 a4]: divide [a1 a2 a3], then [r a4]
    q_hi, rem = _div_3h_by_2h(a >> n, (a >> half) & mask, b, b_hi, b_lo, half)
    q_lo, rem = _div_3h_by_2h(rem, a & mask, b, b_hi, b_lo, half)
    return (q_hi << half) | q_lo, rem >> odd


def _div_3h_by_2h(
    top: int, low: int, b: int, b_hi: int, b_lo: int, h: int
) -> tuple[int, int]:
    """divmod(top * 2**h + low, b) for b = b_hi * 2**h + b_lo of 2h bits.

    Needs low < 2**h and top < b.  The quotient is estimated from the top
    against b_hi alone, which overshoots by at most 2.
    """
    if top >> h == b_hi:
        quot = (1 << h) - 1
        rem = top - (b_hi << h) + b_hi  # top - quot * b_hi
    else:
        quot, rem = _div_2n_by_n(top, b_hi, h)
    rem = ((rem << h) | low) - quot * b_lo
    while rem < 0:
        quot -= 1
        rem += b
    return quot, rem


def _reduce_level(values: Sequence[int], level: Sequence[int]) -> list[int]:
    """values[i] mod level[i]; recursive division only on levels of big nodes."""
    if level[0].bit_length() > _BZ_CUTOFF:
        return [_divmod(v, m)[1] for v, m in zip(values, level)]
    return [v % m for v, m in zip(values, level)]


def _word_width(mods: np.ndarray) -> int:
    """How many consecutive moduli of a product tree one leaf word holds."""
    top = mods.max()
    return next((width for limit, width in _WORDS if top < limit), 1)


def _product_tree(values: Sequence[int]) -> list:
    """Levels of products of the moduli values, each at least 1.

    Level 0 is the moduli as a numpy column.  Level 1 holds the leaves, each
    the product of _word_width consecutive moduli: int64 words, made by one
    numpy product, when the moduli are below 2**31, and the moduli
    themselves, in an object column, otherwise.  Each later level holds
    the pairwise products of the one below as Python ints; the last is [prod].
    """
    mods = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    width = _word_width(mods)
    if width == 1:  # as Python ints, whatever ints the moduli came as
        words = [int(m) for m in mods.tolist()]
        mods = np.array(words, dtype=object)
    else:
        mods = mods.astype(np.int64)
        padded = np.append(mods, np.ones(-mods.size % width, dtype=np.int64))
        words = padded.reshape(-1, width).prod(axis=1).tolist()
    tree = [mods, words]
    while len(tree[-1]) > 1:
        prev = tree[-1]
        tree.append(
            [
                prev[i] * prev[i + 1] if i + 1 < len(prev) else prev[i]
                for i in range(0, len(prev), 2)
            ]
        )
    return tree


def _leaf_values(level: Sequence[int], mods: np.ndarray) -> np.ndarray:
    """One value per leaf word, repeated for each modulus the word holds."""
    width = _word_width(mods)
    return np.repeat(np.array(level, dtype=mods.dtype), width)[: mods.size]


def _tree_mod(value: int, tree: list) -> np.ndarray:
    """value mod each modulus of a product tree, a column of the moduli's dtype.

    The remainders go from the root down; division stops at the leaf words,
    and one numpy % takes each word's remainder to the remainders by its
    moduli.
    """
    rems = [value]
    for level in reversed(tree[1:]):
        rems = _reduce_level([rems[i // 2] for i in range(len(level))], level)
    return _leaf_values(rems, tree[0]) % tree[0]


def multi_mod(value: int, mods: Sequence[int]) -> list[int]:
    """value mod m for each m >= 1, via a remainder tree.

    Much faster than a loop of big-by-small divisions when value is huge
    and there are many moduli.  Each node reduces its parent's remainder;
    the levels of big nodes divide with _divmod.  mods is a sequence of
    ints or a numpy column.
    """
    if len(mods) == 0:
        return []
    return _tree_mod(value, _product_tree(mods)).tolist()


def _crt(tree: list, residues: np.ndarray) -> int:
    """T in [0, P) with T == residues[i] (mod primes[i]), primes distinct.

    tree is the product tree of the primes, whose moduli they are, and
    whose root is P, their product; residues is a column with residues[i]
    in [0, primes[i]).  The tree
    serves both passes, with no big-integer inverse, and callers may reuse
    it to reduce by the same primes.  Downwards, each node N = L*R hands its
    children the scaled remainders c_L = c_N*R mod L and c_R = c_N*L mod R
    from c_root = 1, so every leaf word w receives (P/w) mod w (Bernstein's
    scaled remainder tree); levels of big nodes divide with _divmod.  Each
    prime p of w then takes (P/p) mod p = (P/w mod p) * (w/p mod p) mod p,
    and the inverses come in one _prime_inverses batch.  Upwards, the values
    v = sum(c_i * N/p_i) start at each word as a numpy sum over its primes,
    which the word widths keep below 2**63, and combine as v_L*R + v_R*L,
    with the node products read from the tree.
    """
    primes, P = tree[0], tree[-1][0]
    scaled = [1]
    for level in reversed(tree[1:-1]):
        last = len(level) - 1
        # a node without a sibling is its parent, whose c passes unchanged
        scaled = _reduce_level(
            [scaled[i // 2] * (level[i ^ 1] if i ^ 1 <= last else 1)
             for i in range(len(level))],
            level,
        )
    cofactor = _leaf_values(tree[1], primes) // primes
    scaled = _leaf_values(scaled, primes) % primes * (cofactor % primes) % primes
    values = residues * _prime_inverses(scaled, primes) % primes
    width = _word_width(primes)
    values = np.add.reduceat(values * cofactor, np.arange(0, primes.size, width)).tolist()
    for level in tree[1:-1]:
        values = [
            values[i] * level[i + 1] + values[i + 1] * level[i]
            if i + 1 < len(level)
            else values[i]
            for i in range(0, len(level), 2)
        ]
    return values[0] % P
