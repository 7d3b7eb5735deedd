"""Segmented prime generation and scanning.

Prime lists, prime counts in progressions, maximal prime gaps, least primes
in progressions, and gap scans over rough numbers (integers free of small
prime factors).  Scans are windowed: memory stays bounded by the configured
segment size and results are independent of the segmentation, which the test
suite checks explicitly.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from .arith import is_prime, small_primes_up_to, totient
from .config import DEFAULT, Config
from .errors import BadProgression, EmptyRange, ResourceLimit
from .model import GapRecord, ProgressionStats, Rational


def _check_window(span: int, cfg: Config, what: str) -> None:
    if span > cfg.scan_limit:
        raise ResourceLimit(
            f"{what} covers {span} integers, over the budget of {cfg.scan_limit}"
        )


def _iter_primes_in(lo: int, hi: int, cfg: Config) -> Iterator[int]:
    """Yield primes p with lo < p <= hi, ascending, odd-only segments."""
    if hi < 2 or hi <= lo:
        return
    if lo < 2:
        yield 2
    base = [p for p in small_primes_up_to(math.isqrt(hi)) if p != 2]
    start = max(3, lo + 1)
    if start % 2 == 0:
        start += 1
    last = hi if hi % 2 else hi - 1
    span = 2 * cfg.segment_size
    seg_lo = start
    while seg_lo <= last:
        seg_hi = min(seg_lo + span - 2, last)  # inclusive, odd
        count = (seg_hi - seg_lo) // 2 + 1
        flags = bytearray(count)  # 0 = prime candidate
        for p in base:
            if p * p > seg_hi:
                break
            first = max(p * p, (seg_lo + p - 1) // p * p)
            if first % 2 == 0:
                first += p
            if first > seg_hi:
                continue
            idx = (first - seg_lo) // 2
            flags[idx::p] = b"\x01" * ((seg_hi - first) // (2 * p) + 1)
        pos = flags.find(0)
        while pos != -1:
            yield seg_lo + 2 * pos
            pos = flags.find(0, pos + 1)
        seg_lo = seg_hi + 2


def primes_up_to(n: int, *, config: Optional[Config] = None) -> list[int]:
    """All primes <= n, ascending."""
    cfg = config or DEFAULT
    if n < 0:
        raise ValueError("n must be non-negative")
    if n + 1 > cfg.memory_budget:
        raise ResourceLimit(
            f"prime list up to {n} exceeds the {cfg.memory_budget}-byte budget"
        )
    return list(_iter_primes_in(0, n, cfg))


def primes_in_range(lo: int, hi: int, *, config: Optional[Config] = None) -> list[int]:
    """All primes p with lo < p <= hi, ascending (segmented sieve)."""
    cfg = config or DEFAULT
    if lo > hi:
        raise ValueError("need lo <= hi")
    _check_window(hi - lo, cfg, "prime range scan")
    return list(_iter_primes_in(lo, hi, cfg))


def prime_count_ap(
    x: int, q: int, b: int, *, config: Optional[Config] = None
) -> ProgressionStats:
    """Count primes p <= x with p == b (mod q); delta is exact.

    Sieves only the terms n = b + k*q, 0 <= k <= (x - b) // q, in segments
    of cfg.segment_size terms, so the work is O(x/q) plus one strike per
    sieving prime and segment.  Each prime p <= sqrt(x) not dividing q hits
    the progression exactly at k == -b/q (mod p), starting from the first
    term >= p^2, so a prime p in the progression itself is never struck.
    """
    _validate_progression(q, b)
    if not q < x:
        raise BadProgression(f"need q < x, got q={q}, x={x}")
    cfg = config or DEFAULT
    terms = (x - b) // q + 1
    strikes = [
        (p, (-b * pow(q, -1, p)) % p, max(0, (p * p - b + q - 1) // q))
        for p in small_primes_up_to(math.isqrt(x))
        if q % p
    ]
    count = 0
    for k_lo in range(0, terms, cfg.segment_size):
        k_hi = min(k_lo + cfg.segment_size, terms)  # exclusive
        flags = bytearray(k_hi - k_lo)  # 0 = prime
        if k_lo == 0 and b == 1:
            flags[0] = 1
        for p, k0, k_sq in strikes:
            if k_sq >= k_hi:
                break  # k_sq grows with p, so no later prime strikes here
            first = max(k_lo, k_sq)
            first += (k0 - first) % p
            if first < k_hi:
                flags[first - k_lo :: p] = b"\x01" * ((k_hi - 1 - first) // p + 1)
        count += flags.count(0)
    delta = Rational(count * totient(q), x)
    return ProgressionStats(q=q, b=b, x=x, count=count, delta=delta)


def max_prime_gap(x: int, *, config: Optional[Config] = None) -> GapRecord:
    """Largest gap between consecutive primes with both endpoints <= x.

    Ties go to the record with the smallest left witness.
    """
    cfg = config or DEFAULT
    if x < 5:
        raise ValueError("need x >= 5 so at least one gap exists")
    _check_window(x, cfg, "prime gap scan")
    best = GapRecord(0, 0, 0)
    prev = None
    for p in _iter_primes_in(0, x, cfg):
        if prev is not None and p - prev > best.gap:
            best = GapRecord(p - prev, prev, p)
        prev = p
    return best


def least_prime_ap(q: int, b: int, limit: int) -> Optional[int]:
    """Smallest prime p == b (mod q) with p <= limit, or None if none exists."""
    _validate_progression(q, b)
    if limit < q:
        raise BadProgression(f"need limit >= q, got limit={limit}, q={q}")
    k = b
    while k <= limit:
        if k > 1 and is_prime(k):
            return k
        k += q
    return None


def rough_gap_scan(
    u: int, lo: int, hi: int, *, config: Optional[Config] = None
) -> GapRecord:
    """Largest gap between consecutive u-rough integers found in [lo, hi].

    An integer is u-rough when it has no prime factor <= u; 1 qualifies.
    Ties go to the smallest left witness.  Raises EmptyRange when the window
    holds fewer than two rough integers.
    """
    cfg = config or DEFAULT
    if u < 2:
        raise ValueError("need u >= 2")
    if lo >= hi:
        raise ValueError("need lo < hi")
    _check_window(hi - lo, cfg, "rough gap scan")
    primes = small_primes_up_to(u)
    span = 2 * cfg.segment_size
    best = GapRecord(0, 0, 0)
    prev = None
    found = 0
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + span - 1, hi)  # inclusive
        flags = bytearray(seg_hi - seg_lo + 1)  # 0 = rough
        for p in primes:
            first = (seg_lo + p - 1) // p * p
            if first > seg_hi:
                continue
            idx = first - seg_lo
            flags[idx::p] = b"\x01" * ((seg_hi - first) // p + 1)
        pos = flags.find(0)
        while pos != -1:
            n = seg_lo + pos
            if prev is not None and n - prev > best.gap:
                best = GapRecord(n - prev, prev, n)
            prev = n
            found += 1
            pos = flags.find(0, pos + 1)
        seg_lo = seg_hi + 1
    if found < 2:
        raise EmptyRange(
            f"only {found} {u}-rough integer(s) in [{lo}, {hi}]; no gap to report"
        )
    return best


def _validate_progression(q: int, b: int) -> None:
    if not 0 < b < q:
        raise BadProgression(f"need 0 < b < q, got b={b}, q={q}")
    if math.gcd(b, q) != 1:
        raise BadProgression(f"gcd({b}, {q}) = {math.gcd(b, q)} > 1")
