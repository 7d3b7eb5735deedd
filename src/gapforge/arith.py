"""Exact integer primitives: modular arithmetic, primality, totient,
primorials, and CRT combination over arbitrary precision.

Everything here is a pure function; results are exact, never probabilistic.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DuplicateModulus, NotInvertible, ZeroModulus
from .model import CrtWitness, ResidueClass

# Small primes used both for trial division and to seed the factorizer.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fixed Miller-Rabin witness sets.  (2, 7, 61) proves primality for every
# n < 4,759,123,141, the least strong pseudoprime to all three bases
# (Jaeschke, Math. Comp. 61, 1993); the classic seven-base set from
# miller-rabin.appspot.com proves it for every n < 2**64.
_MR_SMALL_LIMIT = 4_759_123_141
_MR_SMALL_BASES = (2, 7, 61)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

# is_prime is a proof below this bound and nothing at or above it.
PROVEN_LIMIT = 2**64


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m).

    Raises ZeroModulus for m < 2 and NotInvertible when gcd(a, m) > 1.
    """
    if m < 2:
        raise ZeroModulus(f"modulus must be at least 2, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible modulo {m}") from None


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64.

    Trial division by the primes up to 37, then strong probable-prime tests
    to the bases (2, 7, 61) below 4,759,123,141 and to the seven-base set
    from there up to 2**64.  At and above 2**64 a True is not a proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
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
    """A nontrivial factor of composite n (Floyd's cycle detection).

    Deterministic: tries increasing polynomial offsets until one succeeds.
    """
    if n % 2 == 0:
        return 2
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

    Trial division by small primes, then Pollard rho on what remains;
    fine for the 64-bit desk-scale inputs this package deals with.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # continue trial division a bit beyond the fixed table
    p = _SMALL_PRIMES[-1] + 2
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
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


def small_primes_up_to(n: int) -> list[int]:
    """Plain Eratosthenes, for the modest limits arith itself needs."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    return [i for i in range(2, n + 1) if flags[i]]


def primorial(u: int) -> int:
    """Product of all primes <= u."""
    if u < 2:
        raise ValueError("primorial expects u >= 2")
    out = 1
    for p in small_primes_up_to(u):
        out *= p
    return out


def _product_tree(values: Sequence[int]) -> list[list[int]]:
    """Levels of pairwise products; level 0 is the input, the last is [prod]."""
    tree = [list(values)]
    while len(tree[-1]) > 1:
        prev = tree[-1]
        tree.append(
            [
                prev[i] * prev[i + 1] if i + 1 < len(prev) else prev[i]
                for i in range(0, len(prev), 2)
            ]
        )
    return tree


def multi_mod(value: int, mods: Sequence[int]) -> list[int]:
    """value mod m for each m, via a remainder tree.

    Much faster than a loop of big-by-small divisions when value is huge
    and there are many moduli.
    """
    if not mods:
        return []
    tree = _product_tree(mods)
    rems = [value % tree[-1][0]]
    for level in reversed(tree[:-1]):
        rems = [rems[i // 2] % m for i, m in enumerate(level)]
    return rems


def _normalize_classes(classes: Iterable) -> list[tuple[int, int]]:
    pairs = []
    for cls in classes:
        if isinstance(cls, ResidueClass):
            pairs.append((cls.p, cls.a))
        else:
            p, a = cls
            pairs.append((int(p), int(a)))
    return pairs


def crt_combine(classes: Iterable) -> CrtWitness:
    """Combine residue classes into T with T == -a_p (mod p) for each (p, a_p).

    Accepts ResidueClass objects or bare (p, a) pairs.  The moduli are checked
    first: a repeated one raises DuplicateModulus, a composite one, or one at
    or above 2**64 where primality is unproven, ValueError.
    Returns T in [0, P) with P the product of the moduli, computed by _crt
    from a single product tree of the primes.
    """
    pairs = _normalize_classes(classes)
    if not pairs:
        raise ValueError("crt_combine needs at least one class")
    seen = set()
    for p, _ in pairs:
        if p in seen:
            raise DuplicateModulus(f"modulus {p} appears twice")
        seen.add(p)
        if p >= PROVEN_LIMIT:
            raise ValueError(f"modulus {p} >= 2**64: primality is unproven")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
    return _crt([p for p, _ in pairs], [(-a) % p for p, a in pairs])


def _crt(primes: Sequence[int], residues: Sequence[int]) -> CrtWitness:
    """T in [0, P) with T == residues[i] (mod primes[i]); primes distinct.

    One product tree of the primes serves both passes, with no big-integer
    inverse.  Downwards, each node N = L*R hands its children the scaled
    remainders c_L = c_N*R mod L and c_R = c_N*L mod R from c_root = 1, so
    every leaf receives (P/p) mod p (Bernstein's scaled remainder tree).
    Upwards, the values v = sum(c_i * N/p_i) combine as v_L*R + v_R*L, with
    the node products read from the tree.
    """
    tree = _product_tree(primes)
    P = tree[-1][0]
    scaled = [1]
    for level in reversed(tree[:-1]):
        nxt = []
        for i in range(0, len(level), 2):
            c = scaled[i // 2]
            if i + 1 < len(level):
                left, right = level[i], level[i + 1]
                nxt.append(c * right % left)
                nxt.append(c * left % right)
            else:
                nxt.append(c)
        scaled = nxt
    values = [
        r * pow(s, -1, p) % p for p, r, s in zip(primes, residues, scaled)
    ]
    for level in tree[:-1]:
        values = [
            values[i] * level[i + 1] + values[i + 1] * level[i]
            if i + 1 < len(level)
            else values[i]
            for i in range(0, len(level), 2)
        ]
    return CrtWitness(T=values[0] % P, P=P)
