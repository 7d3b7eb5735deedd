import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gapforge.arith import is_prime, primorial, totient
from gapforge.config import Config
from gapforge.errors import BadProgression, DomainError, EmptyRange, ResourceLimit
from gapforge.model import GapRecord, Rational
from gapforge import arith, sieve
from gapforge.sieve import (
    first_non_prime,
    least_prime_ap,
    max_prime_gap,
    prime_count_ap,
    primes_in_range,
    primes_up_to,
    rough_gap_scan,
    scan_deficits,
)

from prime_oracle import small_primes_up_to

TINY = Config(memory_budget=1 << 16)


def test_primes_up_to_examples():
    assert primes_up_to(1) == []
    assert primes_up_to(10) == [2, 3, 5, 7]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(0) == []
    assert primes_up_to(2) == [2]


def test_prime_tables_refuse_negative_n():
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        primes_up_to(-1)
    with pytest.raises(ValueError, match="^n must be non-negative$"):
        sieve._prime_flags(-1, Config())


def test_primes_in_range_examples():
    assert primes_in_range(10, 10) == []
    assert primes_in_range(5, 15) == [7, 11, 13]
    fifty_to_hundred = primes_in_range(50, 100)
    assert len(fifty_to_hundred) == 10
    assert fifty_to_hundred[-1] == 97


def test_primes_in_range_equals_filtered_primes_up_to():
    table = primes_up_to(10**5)
    rng = random.Random(3)
    windows = [(0, 10**5), (0, 1), (1000, 2000), (99_000, 10**5), (2, 3)]
    windows += [tuple(sorted(rng.sample(range(0, 10**5), 2))) for _ in range(20)]
    for lo, hi in windows:
        expected = [p for p in table if lo < p <= hi]
        assert primes_in_range(lo, hi) == expected, (lo, hi)


def test_primes_in_range_segmentation_independent(segment):
    segment(1 << 16)
    small = primes_in_range(0, 3 * 10**5)
    segment(1 << 22)
    assert small == primes_in_range(0, 3 * 10**5)


def test_prime_count_ap_examples():
    stats = prime_count_ap(100, 4, 3)
    assert stats.count == 13
    assert stats.delta == Rational(13, 50)
    assert prime_count_ap(10, 3, 2).count == 2
    assert prime_count_ap(100, 97, 96).count == 0
    assert prime_count_ap(100, 97, 96).delta == Rational(0, 1)


def test_prime_count_ap_rejections():
    with pytest.raises(BadProgression):
        prime_count_ap(100, 99, 33)  # gcd 33
    with pytest.raises(BadProgression):
        prime_count_ap(100, 4, 0)
    with pytest.raises(BadProgression):
        prime_count_ap(100, 4, 4)
    with pytest.raises(BadProgression):
        prime_count_ap(10, 10, 3)  # q not below x


def test_prime_count_ap_budget_boundaries():
    # scan_limit = 2**19 terms; base primes up to isqrt(x) need isqrt(x) + 1 bytes
    cfg = Config(memory_budget=1 << 16)
    # (2**20 - 1)//2 + 1 = 2**19 terms, at the limit: every odd prime counts
    assert prime_count_ap(2**20, 2, 1, config=cfg).count == len(primes_up_to(2**20)) - 1
    with pytest.raises(ResourceLimit, match="progression sieve covers 524289"):
        prime_count_ap(2**20 + 1, 2, 1, config=cfg)
    # isqrt(2**32 - 1) + 1 = 2**16 bytes fits, one more does not
    x = 2**32 - 1
    assert prime_count_ap(x, 10_007, 1, config=cfg) == prime_count_ap(x, 10_007, 1)
    with pytest.raises(ResourceLimit, match="primes up to 65536,"):
        prime_count_ap(2**32, 10_007, 1, config=cfg)
    # far past the default budget it refuses at once instead of allocating
    with pytest.raises(ResourceLimit):
        prime_count_ap(2**70, 101, 100)
    with pytest.raises(ResourceLimit):
        prime_count_ap(2**70, 2**40 + 1, 2)


def test_prime_count_ap_unit_sum_invariant():
    # summed over units b mod q, counts give pi(x) minus the primes dividing q
    for x in (100, 2000):
        table = primes_up_to(x)
        for q in range(2, 51):
            total = sum(
                prime_count_ap(x, q, b).count
                for b in range(1, q)
                if math.gcd(b, q) == 1
            )
            expected = len(table) - sum(1 for p in table if q % p == 0)
            assert total == expected, (x, q)
    # one spot check at the larger scale
    x = 10**4
    table = primes_up_to(x)
    for q in (12, 30, 49):
        total = sum(
            prime_count_ap(x, q, b).count for b in range(1, q) if math.gcd(b, q) == 1
        )
        assert total == len(table) - sum(1 for p in table if q % p == 0)


def _whole_line_table(n):
    """Primes <= n by plain Eratosthenes over the whole line [0, n]."""
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if flags[i]]


_ORACLE_LIMIT = 10**6
_ORACLE_TABLE = _whole_line_table(_ORACLE_LIMIT)


def _whole_line_count(x, q, b):
    """pi(x; q, b) by filtering the whole-line prime table."""
    assert x <= _ORACLE_LIMIT
    return sum(1 for p in _ORACLE_TABLE[: bisect.bisect_right(_ORACLE_TABLE, x)]
               if p % q == b)


def test_prime_count_ap_matches_whole_line_oracle():
    cases = []
    # b = 1 (n = 1 is the first term and is not prime) and tiny moduli,
    # where the progression holds most of the primes
    for q in (2, 3, 6, 30):
        for x in (q + 1, q + 2, 100, 1009, 65_537, 300_000):
            if x > q:
                cases.append((x, q, 1))
    # progressions holding primes <= sqrt(x), which must not strike themselves
    cases += [(x, 4, 3) for x in (5, 9, 10, 25, 26, 1000, 200_000)]
    cases += [(x, 10, b) for x in (11, 50, 121, 10_000) for b in (3, 7)]
    cases += [(10_000, 7, b) for b in range(1, 7)]
    cases += [(961, 30, 1), (962, 30, 1), (49 * 49, 96, 1)]  # x a prime square
    rng = random.Random(20140101)
    while len(cases) < 500:
        x = rng.randrange(3, 300_000)
        q = rng.randrange(2, min(x, 5000))
        b = rng.randrange(1, q)
        if math.gcd(b, q) == 1:
            cases.append((x, q, b))
    for x, q, b in cases:
        assert prime_count_ap(x, q, b).count == _whole_line_count(x, q, b), (x, q, b)


_TRIAL_PRIMES = _whole_line_table(10**4)


def _trial_division_count(x, q, b):
    """pi(x; q, b) by trial division of each term by the primes <= 10**4.

    Exact below 10_007**2, the square of the least prime above 10**4.
    """
    assert x < 10_007**2
    n = np.arange(b, x + 1, q, dtype=np.int64)
    prime = n > 1
    for p in _TRIAL_PRIMES:
        if p * p > x:
            break
        prime &= (n % p != 0) | (n == p)
    return int(np.count_nonzero(prime))


def test_prime_count_ap_matches_trial_division_at_certify_sizes():
    # q in [1e4, 1e5] with x up to 1e8: nearly every base prime exceeds the
    # number of terms and strikes one term at most
    cases = [(10**7, 10_007, 3), (10**8, 10_007, 3)]
    # b a base prime, a term the strike must spare
    cases += [(10**8, 77_069, 9973), (10**8, 10_000, 7), (3 * 10**7, 99_991, 5477)]
    # b = 1 and even q, with x a prime square
    cases += [(9973**2, q, 1) for q in (10_000, 65_536, 99_998)]
    cases += [(9967**2, 20_010, 1)]
    # x past 1e8, inside the oracle's range
    cases += [(10_007**2 - 10**5, 10_010, 1)]
    rng = random.Random(20261018)
    while len(cases) < 24:
        x = rng.choice((10**7, 3 * 10**7, 10**8 - 1)) - rng.randrange(1000)
        q = rng.randrange(10**4, 10**5 + 1)
        b = rng.randrange(1, q)
        if math.gcd(b, q) == 1:
            cases.append((x, q, b))
    for x, q, b in cases:
        assert prime_count_ap(x, q, b).count == _trial_division_count(x, q, b), (x, q, b)


def test_prime_count_ap_many_segments(segment):
    segment(1 << 16)
    for x, q, b in ((10**6, 6, 1), (10**6, 3, 2), (10**6, 2, 1), (10**6, 4, 3)):
        assert (x - b) // q + 1 > 1 << 16
        assert prime_count_ap(x, q, b).count == _whole_line_count(x, q, b)


def test_prime_count_ap_segmentation_independent(segment):
    # (x - b) // q + 1 exactly 2^17 terms: the last segment ends on a boundary
    exact = 1 + ((1 << 17) - 1) * 6
    for x, q, b in ((10**6, 2, 1), (10**6, 30, 7), (exact, 6, 1), (exact + 5, 6, 1),
                    (999_983, 5, 3)):
        counts = set()
        for size in (1 << 16, (1 << 16) + 1, 1 << 22):
            segment(size)
            counts.add(prime_count_ap(x, q, b).count)
        assert len(counts) == 1, (x, q, b, counts)


def test_max_prime_gap_examples():
    # both endpoints may equal x (documented convention), so G(5) is (3, 5)
    rec = max_prime_gap(5)
    assert (rec.gap, rec.lo, rec.hi) == (2, 3, 5)
    rec = max_prime_gap(100)
    assert (rec.gap, rec.lo, rec.hi) == (8, 89, 97)
    rec = max_prime_gap(1000)
    assert (rec.gap, rec.lo, rec.hi) == (20, 887, 907)


def test_max_prime_gap_monotone():
    prev = 0
    for x in range(5, 1000):
        g = max_prime_gap(x).gap
        assert g >= prev
        prev = g


def test_max_prime_gap_record_is_recheckable():
    for x in (5, 100, 541, 1000, 10_000):
        rec = max_prime_gap(x)
        assert rec.hi - rec.lo == rec.gap
        assert rec.lo < rec.hi <= x
        assert is_prime(rec.lo) and is_prime(rec.hi)
        assert all(not is_prime(k) for k in range(rec.lo + 1, rec.hi))


def test_max_prime_gap_rejects_tiny_x():
    with pytest.raises(ValueError):
        max_prime_gap(4)


def test_least_prime_ap_examples():
    assert least_prime_ap(4, 3, 100) == 3
    assert least_prime_ap(25, 1, 200) == 101
    assert least_prime_ap(9, 4, 12) is None
    assert least_prime_ap(25, 1, 100) is None


def test_least_prime_ap_rejections():
    with pytest.raises(BadProgression):
        least_prime_ap(9, 3, 100)
    with pytest.raises(BadProgression):
        least_prime_ap(9, 4, 5)  # limit below q


def test_rough_gap_scan_examples():
    rec = rough_gap_scan(3, 1, 12)
    assert (rec.gap, rec.lo, rec.hi) == (4, 1, 5)  # smallest-lo tie-break
    rec = rough_gap_scan(2, 1, 10)
    assert (rec.gap, rec.lo, rec.hi) == (2, 1, 3)
    rec = rough_gap_scan(5, 1, 30)
    assert (rec.gap, rec.lo, rec.hi) == (6, 1, 7)


def test_rough_gap_scan_includes_one_as_rough():
    # [1, 6] for u=5: rough numbers are exactly {1} plus nothing else but 7>6
    with pytest.raises(EmptyRange):
        rough_gap_scan(5, 1, 6)
    with pytest.raises(EmptyRange):
        rough_gap_scan(5, 2, 6)  # no rough numbers at all


def test_rough_gap_scan_validation():
    with pytest.raises(ValueError):
        rough_gap_scan(1, 1, 10)
    with pytest.raises(ValueError):
        rough_gap_scan(3, 10, 10)


def test_rough_gap_scan_of_two_matches_oracle(rough_gap_oracle):
    # u = 2 takes no sieve; windows from negative lo to past 2**63, with
    # spans 1 to 3 holding one or two odd integers
    rng = random.Random(2)
    for base in (-10**6, -8, -1, 0, 1, 10**6, 2**63 - 2, 2**64 + 1):
        for lo in (base, base + 1, base + rng.randrange(1000)):
            for hi in (lo + 1, lo + 2, lo + 3, lo + 4, lo + rng.randrange(5, 300)):
                want = rough_gap_oracle(2, lo, hi)
                if want == (0, 0, 0):  # a single odd integer in the window
                    with pytest.raises(EmptyRange) as refused:
                        rough_gap_scan(2, lo, hi)
                    assert str(refused.value) == (
                        f"only 1 2-rough integer(s) in [{lo}, {hi}]; no gap to report")
                else:
                    rec = rough_gap_scan(2, lo, hi)
                    assert (rec.gap, rec.lo, rec.hi) == want, (lo, hi)
    # the window's and the prime table's budget checks come first
    with pytest.raises(ResourceLimit,
                       match="^rough gap scan covers 9 integers, over the budget of 8$"):
        rough_gap_scan(2, 1, 10, config=Config(1))
    with pytest.raises(ResourceLimit, match="^rough gap scan needs the primes up to 2, "
                                            "over the 2-byte budget$"):
        rough_gap_scan(2, 1, 10, config=Config(2))
    assert rough_gap_scan(2, 1, 10, config=Config(3)) == GapRecord(2, 1, 3)


def test_rough_gap_scan_periodic_shift():
    for u in (2, 3, 5, 7):
        period = primorial(u)
        base = rough_gap_scan(u, 1, period + 2)
        shifted = rough_gap_scan(u, 1 + period, 2 * period + 2)
        assert shifted.gap == base.gap
        assert shifted.lo == base.lo + period
        assert shifted.hi == base.hi + period


def test_rough_gap_scan_segmentation_independent(segment):
    for u in (7, 13):
        segment(1 << 16)
        a = rough_gap_scan(u, 1, 400_000)
        segment(1 << 22)
        b = rough_gap_scan(u, 1, 400_000)
        assert a == b


def test_resource_limits():
    with pytest.raises(ResourceLimit):
        primes_up_to(10**6, config=TINY)
    with pytest.raises(ResourceLimit):
        primes_in_range(0, 10**7, config=TINY)
    with pytest.raises(ResourceLimit):
        max_prime_gap(10**7, config=TINY)
    with pytest.raises(ResourceLimit):
        rough_gap_scan(5, 1, 10**7, config=TINY)
    # within budget still works
    assert primes_up_to(30_000, config=TINY)[-1] == 29989


def _trial_division_prime(n):
    """Whether n is a prime below 2**64, by trial division (n small or composite)."""
    if n < 2 or n >= 2**64:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# squares of primes and Carmichael numbers fool naive tests; 3215031751 and
# 4759123141 are strong pseudoprimes to small base sets; the last three sit
# at and past 2**64, where no value counts as a proven prime
HOSTILE = ([-5, 0, 1] + [p * p for p in (2, 3, 5, 7, 31, 97, 997)]
           + [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265]
           + [3215031751, 4759123141, 2**64 - 1, 2**64, 2**89 - 1])


def test_base_prime_sieve_refuses_past_budget(rough_gap_oracle):
    # primes_in_range strikes with the primes up to isqrt(hi), rough_gap_scan
    # with those up to u; each list needs its bound + 1 bytes of the budget
    cfg = Config(memory_budget=1000)
    hi = 1000**2 - 1  # isqrt(hi) = 999 fits
    expected = [n for n in range(hi - 99, hi + 1) if _trial_division_prime(n)]
    assert primes_in_range(hi - 100, hi, config=cfg) == expected
    with pytest.raises(ResourceLimit, match="primes up to 1000,"):
        primes_in_range(hi - 99, hi + 1, config=cfg)
    rec = rough_gap_scan(999, 1, 5000, config=cfg)
    assert (rec.gap, rec.lo, rec.hi) == rough_gap_oracle(999, 1, 5000)
    with pytest.raises(ResourceLimit, match="primes up to 1000,"):
        rough_gap_scan(1000, 1, 5000, config=cfg)
    # far past the default budget they refuse at once instead of allocating
    with pytest.raises(ResourceLimit):
        primes_in_range(2**70, 2**70 + 2000)
    with pytest.raises(ResourceLimit):
        rough_gap_scan(10**10, 1, 1000)


def test_first_non_prime_matches_trial_division():
    rng = random.Random(2029)
    pool = HOSTILE + [rng.randrange(-10, 10**5) for _ in range(400)]
    primes = [n for n in pool if _trial_division_prime(n)]
    assert len(primes) > 20
    for v in pool:
        assert first_non_prime([v]) == (None if _trial_division_prime(v) else v), v
    assert first_non_prime([]) is None
    assert first_non_prime(primes) is None
    for _ in range(200):
        values = rng.sample(primes, rng.randrange(1, 15))
        values[rng.randrange(len(values)):rng.randrange(len(values))] = \
            rng.sample(pool, rng.randrange(3))
        expected = next((v for v in values if not _trial_division_prime(v)), None)
        assert first_non_prime(values) == expected, values


def _isin_first_non_prime(values):
    """The lookup before np.searchsorted: np.isin of the values in [2, top]
    against the whole prime table up to top."""
    values = np.array(values, dtype=object)
    testable = (values >= 2) & (values < 2**64)
    top = int(values[testable].max()) if testable.any() else 1
    arr = np.where(testable, values, 0).astype(np.int64)
    bad = np.flatnonzero(~np.isin(arr, np.array(primes_up_to(top), dtype=np.int64)))
    return int(values[bad[0]]) if bad.size else None


def test_first_non_prime_matches_isin_lookup():
    rng = random.Random(2031)
    # the isin table runs up to the largest value below 2**64, so those stay small
    pool = [v for v in HOSTILE if v < 10**6 or v >= 2**64]
    pool += [rng.randrange(-10, 10**5) for _ in range(300)]
    table = primes_up_to(10**5)
    for _ in range(200):
        values = rng.sample(table, rng.randrange(0, 20))
        at = rng.randrange(len(values) + 1)
        values[at:at] = rng.sample(pool, rng.randrange(3))
        assert first_non_prime(values) == _isin_first_non_prime(values), values


def _kernel_primes(lo, hi):
    """The primes in (lo, hi] by one kernel pass over the wheel, whatever
    the size of the window: base primes from the constant column, 2 and 3
    added by hand, as _primes does past the column."""
    segments = sieve._wheel_primes(lo + 1, hi, Config())
    return [p for p in (2, 3) if lo < p <= hi] + [
        int(sieve._term(start + j)) for start, struck in segments
        for j in np.flatnonzero(~struck)]


def test_prime_producer_matches_plain_eratosthenes():
    # a table serves n <= 2**16 - 1 from the constant column, so the kernel
    # runs this grid by hand too: n <= 24 have no base prime of at least 5;
    # past them every prime square p*p puts p among the base primes of
    # n = p*p on.  _primes runs the kernel on every window: from lo = -10,
    # and below 5, where only the filter lo < p <= hi keeps 2 and 3
    for n in range(2001):
        want = small_primes_up_to(n)
        assert sieve._prime_array(n, sieve._PrimeTable(Config())).tolist() == want, n
        assert _kernel_primes(0, n) == want, n
    for lo in range(-10, 200):
        for hi in {lo, lo + 1, lo + 2, lo + 37, 2000, *range(lo, 5)}:
            want = [p for p in small_primes_up_to(hi) if p > lo]
            assert sieve._primes(lo, hi, Config()).tolist() == want, (lo, hi)
            assert _kernel_primes(lo, hi) == want, (lo, hi)


def test_small_primes_column_is_the_read_only_eratosthenes_table():
    column = sieve._SMALL_PRIMES
    assert sieve._SMALL_TOP == 2**16 - 1
    assert column.dtype == np.int64 and column.size == 6542
    assert column.tolist() == small_primes_up_to(2**16 - 1)
    assert not column.flags.writeable
    with pytest.raises(ValueError):
        column[0] = 4
    # a table starts from the column and goes back to it when released
    table = sieve._PrimeTable(Config())
    assert table.column is column and table.top == sieve._SMALL_TOP
    table.upto(70000)
    assert table.top == 70000 and table.column.size > column.size
    table.release()
    assert table.column is column and table.top == sieve._SMALL_TOP


def test_prime_windows_straddling_the_column_top():
    oracle = small_primes_up_to(70000)
    assert 65537 in oracle  # the first prime past the column
    cfg = Config()

    def want(lo, hi):
        return [p for p in oracle if lo < p <= hi]

    for lo, hi in ((65000, 66000), (65000, 65535), (65535, 65537), (65536, 65537),
                   (65530, 70000), (0, 65536), (65535, 65535)):
        assert sieve._primes(lo, hi, cfg).tolist() == want(lo, hi), (lo, hi)
        assert primes_in_range(lo, hi) == want(lo, hi), (lo, hi)
        assert _kernel_primes(lo, hi) == want(lo, hi), (lo, hi)
        # from a fresh table, and from one already grown past the window
        assert sieve._prime_range(lo, hi, sieve._PrimeTable(cfg)).tolist() == want(lo, hi)
        grown = sieve._PrimeTable(cfg)
        grown.upto(70000)
        assert sieve._prime_range(lo, hi, grown).tolist() == want(lo, hi), (lo, hi)
    # one table asked in turn for each bound around the top, and each anew
    table = sieve._PrimeTable(cfg)
    for n in (65535, 65536, 65537, 65536, 70000, 65535):
        assert table.upto(n).tolist() == want(0, n), n
        assert sieve._PrimeTable(cfg).upto(n).tolist() == want(0, n), n


def test_prime_requests_refuse_at_the_column_top():
    # a table serves up to 65535 from the column without a kernel pass, yet
    # every request keeps its budget checks, in order, with the same texts
    # on both sides of the column's top
    for n in (65535, 65536):
        assert primes_up_to(n, config=Config(memory_budget=n + 1)) == small_primes_up_to(n)
        with pytest.raises(ResourceLimit, match=f"^prime list needs the primes up to {n}, "
                                                f"over the {n}-byte budget$"):
            primes_up_to(n, config=Config(memory_budget=n))
        # the window: n integers need a budget of n / 8 bytes, checked first
        tight = -(-n // 8)
        assert primes_in_range(0, n, config=Config(memory_budget=tight)) == \
            small_primes_up_to(n)
        with pytest.raises(ResourceLimit, match=f"^prime range scan covers {n} integers, "
                                                f"over the budget of {8 * (tight - 1)}$"):
            primes_in_range(0, n, config=Config(memory_budget=tight - 1))
        with pytest.raises(ResourceLimit, match="^prime range scan covers"):
            primes_in_range(0, n, config=Config(memory_budget=1))
        # the base primes: those up to isqrt(n), 255 or 256
        root = math.isqrt(n)
        lo = n - 8 * root
        assert primes_in_range(lo, n, config=Config(memory_budget=root + 1)) == \
            [p for p in small_primes_up_to(n) if p > lo]
        refusal = (f"^prime sieve needs the primes up to {root}, "
                   f"over the {root}-byte budget$")
        with pytest.raises(ResourceLimit, match=refusal):
            primes_in_range(lo, n, config=Config(memory_budget=root))
        table = sieve._PrimeTable(Config(memory_budget=root))
        with pytest.raises(ResourceLimit, match=refusal):
            sieve._prime_range(lo, n, table)
        with pytest.raises(ResourceLimit, match=f"^prime list needs the primes up to {n},"):
            sieve._prime_array(n, table)


def test_prime_range_refuses_a_reversed_window():
    with pytest.raises(ValueError, match="^need lo <= hi$"):
        primes_in_range(10, 5)


def test_windows_past_2_to_the_32_sieve_their_own_base_primes():
    # isqrt(hi) passes the column's top, so the kernel's base primes come
    # from one throwaway _primes(0, isqrt(hi))
    for lo in (2**32 - 500, 2**40, 10**12):
        want = [n for n in range(lo + 1, lo + 1001) if is_prime(n)]
        assert primes_in_range(lo, lo + 1000) == want, lo


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_prime_producer_refusals_at_tiny_budgets(budget):
    # a list up to n needs n + 1 bytes, its base primes up to isqrt(n) as
    # many, and a window of w integers w <= 8 * budget
    cfg = Config(memory_budget=budget)
    for n in range(40):
        if n + 1 > budget:
            refusal = f"^prime list needs the primes up to {n},"
            with pytest.raises(ResourceLimit, match=refusal):
                primes_up_to(n, config=cfg)
        else:
            assert primes_up_to(n, config=cfg) == small_primes_up_to(n)
        for lo in range(n + 1):
            if n - lo > 8 * budget:
                with pytest.raises(ResourceLimit, match="^prime range scan covers"):
                    primes_in_range(lo, n, config=cfg)
            elif math.isqrt(n) + 1 > budget:
                with pytest.raises(ResourceLimit, match=f"^prime sieve needs the primes "
                                                        f"up to {math.isqrt(n)},"):
                    primes_in_range(lo, n, config=cfg)
            else:
                want = [p for p in small_primes_up_to(n) if p > lo]
                assert primes_in_range(lo, n, config=cfg) == want
        if n >= 5 and n <= 8 * budget:
            if math.isqrt(n) + 1 > budget:
                with pytest.raises(ResourceLimit, match="^prime sieve needs"):
                    max_prime_gap(n, config=cfg)
            else:
                assert max_prime_gap(n, config=cfg).hi <= n


def test_first_non_prime_sieves_while_the_table_fits(monkeypatch):
    tables, tested = [], []
    prime_array, is_prime_ = sieve._prime_array, sieve.is_prime

    def recording_prime_array(n, cfg):
        tables.append(n)
        return prime_array(n, cfg)

    def recording_is_prime(n):
        tested.append(n)
        return is_prime_(n)

    monkeypatch.setattr(sieve, "_prime_array", recording_prime_array)
    monkeypatch.setattr(sieve, "is_prime", recording_is_prime)
    primes = [n for n in range(5000) if _trial_division_prime(n)]
    top = primes[-1]
    # budget top + 1 admits the table up to top, as primes_up_to(top) needs
    for budget, table, proven in ((top + 1, [top], []), (top, [], primes + [1729])):
        cfg = Config(memory_budget=budget)
        tables.clear()
        tested.clear()
        assert first_non_prime(primes + [1729, 2**64], config=cfg) == 1729
        assert (tables, tested) == (table, proven)
        # a value at or past 2**64 is reported before any is tested
        tested.clear()
        assert first_non_prime([2**64] + primes, config=cfg) == 2**64
        assert tested == []


def test_least_prime_ap_refuses_past_proven_range():
    # the first candidate past 1 is 2**64 + 1, where is_prime proves nothing
    with pytest.raises(DomainError, match="unproven"):
        least_prime_ap(2**64, 1, 2**70)
    # a prime found below 2**64 is still reported under a larger limit
    assert least_prime_ap(25, 1, 2**70) == 101
    assert least_prime_ap(2**64 - 58, 2**64 - 59, 2**70) == 2**64 - 59


def _record_straddles(rec, boundary):
    return rec.lo < boundary <= rec.hi


def test_max_prime_gap_record_across_segment_boundary(segment):
    # the wheel's segments of s positions start at position 1 + s*k, the
    # first at 5, and a wheel integer n sits at position n // 3; at the
    # size 2**16 no boundary falls inside the record below 5e5, so two
    # sizes put the boundary just past its left end and exactly on its
    # right end
    x = 500_000
    rec = max_prime_gap(x)
    assert (rec.gap, rec.lo, rec.hi) == (114, 492113, 492227)
    sizes = {1 << 16: None, rec.lo // 3: rec.lo + 2, rec.hi // 3 - 1: rec.hi}
    for size, boundary in sizes.items():
        if boundary is not None:
            assert _line_integer(1 + size) == boundary
            assert _record_straddles(rec, boundary)
        segment(size)
        assert max_prime_gap(x) == rec, size


# 2**16 wheel positions from a wheel integer span 3 * 2**16 integers
WHEEL_SPAN = 3 << 16


def test_rough_gap_scan_record_across_segment_boundary(segment):
    # a sub-window holding the record keeps it; start it on the wheel so
    # the first boundary at the size 2**16 (start + WHEEL_SPAN) lands just
    # past the record's left end, then exactly on its right end
    for u, lo, hi in ((50, 10**6, 2 * 10**6), (300, 10**7, 10**7 + 600_000)):
        segment(1 << 20)
        rec = rough_gap_scan(u, lo, hi)
        past_lo = _line_integer(rec.lo // 3 + 1)
        for start in (past_lo - WHEEL_SPAN, rec.hi - WHEEL_SPAN):
            assert start >= lo and math.gcd(start, 6) == 1
            assert _line_integer(start // 3 + (1 << 16)) == start + WHEEL_SPAN
            assert _record_straddles(rec, start + WHEEL_SPAN)
            for size in (1 << 20, 1 << 16):
                segment(size)
                assert rough_gap_scan(u, start, hi) == rec, (u, start, size)


def test_rough_gap_scan_tie_across_segment_boundary(rough_gap_oracle, segment):
    # J(13) = 22 recurs every period, so a window can hold an earlier
    # 22-gap and a later one straddling the first boundary at the size 2**16
    # (start + WHEEL_SPAN); the earlier one must keep the record
    period = primorial(13)
    later = rough_gap_scan(13, 1, period + 1).lo + 5 * period
    start = _line_integer(later // 3 + 1) - WHEEL_SPAN
    assert _record_straddles(GapRecord(22, later, later + 22), start + WHEEL_SPAN)
    expect = rough_gap_oracle(13, start, later + 100)
    assert expect[0] == 22 and expect[1] < later
    for size in (1 << 16, 1 << 20):
        segment(size)
        rec = rough_gap_scan(13, start, later + 100)
        assert (rec.gap, rec.lo, rec.hi) == expect


def test_rough_gap_scan_exact_past_int64(rough_gap_oracle, segment):
    segment(1 << 16)
    lo = 2**70
    for u in (19, 23, 97):
        rec = rough_gap_scan(u, lo, lo + 10**5)
        assert (rec.gap, rec.lo, rec.hi) == rough_gap_oracle(u, lo, lo + 10**5), u


def _scan_oracle(x, qmin, qmax):
    """The whole scan ranking by trial division and an exact Fraction sort."""
    primes = [n for n in range(2, x + 1)
              if all(n % d for d in range(2, math.isqrt(n) + 1))]
    rows = []
    for q in range(max(2, qmin), min(qmax, x - 1) + 1):
        units = [b for b in range(1, q) if math.gcd(b, q) == 1]
        residues = [p % q for p in primes]
        for b in units:
            count = residues.count(b)
            rows.append((Fraction(count * len(units), x), q, b, count))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return [(q, b, count, delta) for delta, q, b, count in rows]


def test_scan_deficits_matches_brute_force_oracle():
    empty_seen = False
    # qmax >= x, moduli just below x (empty progressions), an inverted
    # range, and the whole range
    windows = [(x, qmin, qmax) for x in (3, 4, 10, 100, 101)
               for qmin, qmax in ((2, x + 10), (x - 3, x - 1), (x, x + 5),
                                  (10, 3), (-5, 7), (1, x))]
    windows += [(997, 2, 40), (997, 980, 1010)]
    for x, qmin, qmax in windows:
        ranking = _scan_oracle(x, qmin, qmax)
        # top 1 and 7 cut most moduli's units and merge the selections
        for top in (0, 1, 7, 10**6):
            got = scan_deficits(x, qmin, qmax, top)
            assert all(r.x == x for r in got)
            rows = [(r.q, r.b, r.count, Fraction(r.delta.num, r.delta.den))
                    for r in got]
            assert rows == ranking[:top], (x, qmin, qmax, top)
            empty_seen |= any(r.count == 0 for r in got)
        # a negative top would mean "all but the last rows", which a
        # selection of each modulus's top units cannot give: it is refused
        with pytest.raises(ValueError, match="top >= 0"):
            scan_deficits(x, qmin, qmax, -2)
    assert empty_seen


def test_scan_deficits_refuses_rows_past_the_budget():
    rows = scan_deficits(10**4, 3, 50, 10**9)
    assert len(rows) == sum(totient(q) for q in range(3, 51))
    # no top cuts these rows, so all of them are held at the last modulus
    fit = Config(memory_budget=len(rows) * sieve._ROW_BYTES)
    assert scan_deficits(10**4, 3, 50, 10**9, config=fit) == rows
    short = Config(memory_budget=len(rows) * sieve._ROW_BYTES - 1)
    with pytest.raises(ResourceLimit, match=f"^scan holds {len(rows)} rows "):
        scan_deficits(10**4, 3, 50, 10**9, config=short)
    # a top-10 scan holds at most 30 rows, however many moduli it ranks
    few = Config(memory_budget=30 * sieve._ROW_BYTES)
    assert scan_deficits(10**4, 2, 3000, 10, config=few) == scan_deficits(10**4, 2, 3000, 10)


def test_scan_deficits_budget_and_domain():
    with pytest.raises(ResourceLimit):
        scan_deficits(10**6, 3, 5, 10, config=TINY)
    assert scan_deficits(10**6, 50, 10, 10, config=TINY) == []


@pytest.mark.parametrize("x", [3, 4, 5, 63, 64, 65, 1000, 99991, 10**6 + 1,
                               3 * 10**6 + 1])
def test_residue_counts_match_prime_column_oracle(x):
    # the flags of x < 3 * _ROW fill no whole row, those up to 10**6 + 1
    # fewer than 255 rows, and those of 3 * 10**6 + 1 a block of 255 rows
    # and a short one for small q; periods run from 2 (q = 2, 3, 6) to 1198
    # (q = 599), and most tails are not a whole row
    cfg = Config()
    flags = sieve._prime_flags(x, cfg)
    primes = sieve._prime_array(x, sieve._PrimeTable(cfg))
    for q in range(2, 601):
        want = np.bincount(primes % q, minlength=q)
        assert sieve._residue_counts(flags, q).tolist() == want.tolist(), (x, q)


@pytest.mark.parametrize("x", [10**4 + r for r in range(6)] + [3 * 10**5 + r for r in range(6)])
def test_residue_counts_for_each_gcd_with_six(x):
    # x of every residue mod 6, and q of each gcd with 6, which sets the
    # period 2q / gcd(q, 6) the flags fold on
    cfg = Config()
    flags = sieve._prime_flags(x, cfg)
    primes = sieve._prime_array(x, sieve._PrimeTable(cfg))
    moduli = {1: (5, 7, 25, 35, 211), 2: (2, 4, 8, 10, 212),
              3: (3, 9, 15, 21, 213), 6: (6, 12, 30, 210, 1002)}
    for g, qs in moduli.items():
        for q in qs:
            assert math.gcd(q, 6) == g
            want = np.bincount(primes % q, minlength=q)
            assert sieve._residue_counts(flags, q).tolist() == want.tolist(), (x, q)


def test_scan_deficits_matches_prime_column_oracle():
    x, top = 10**6, 50
    primes = sieve._prime_array(x, sieve._PrimeTable(Config()))
    ranking = []
    for q in range(2, 301):
        counts = np.bincount(primes % q, minlength=q).tolist()
        ranking += [(counts[b] * totient(q), q, b, counts[b])
                    for b in range(1, q) if math.gcd(b, q) == 1]
    ranking.sort()
    got = scan_deficits(x, 2, 300, top)
    assert [(r.q, r.b, r.count, r.delta) for r in got] == [
        (q, b, count, Rational(key, x)) for key, q, b, count in ranking[:top]]


def _stream(start, texts):
    """Line segments from text, one string each, from position start: '.'
    survives, 'x' is struck."""
    segments = []
    for text in texts:
        segments.append((start, np.array([c == "x" for c in text], dtype=bool)))
        start += len(text)
    return segments


def _line_integer(j):
    """The integer at position j of the line of the integers coprime to 6,
    counted lane by lane: 6 * (j // 2) plus 1 or 5."""
    return 6 * (j // 2) + (1, 5)[j % 2]


def _read_every_survivor(segments, prev=None):
    """(gap, lo, hi) of the first maximal gap and the survivor count, read in full."""
    best, found = (0, 0, 0), 0
    for start, struck in segments:
        for i in np.flatnonzero(~struck).tolist():
            n = _line_integer(start + i)
            if prev is not None and n - prev > best[0]:
                best = (n - prev, prev, n)
            prev, found = n, found + 1
    return best, found


def _assert_gap_reader_agrees(segments, prev=None):
    rec, found = sieve._max_gap(iter(segments), prev)
    best, total = _read_every_survivor(segments, prev)
    assert (rec.gap, rec.lo, rec.hi) == best
    assert found == total
    return best


# on the wheel (1, 5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, ...) the
# first segment sets the record 12 = (1, 13): a larger gap needs a step of
# (12 + 3) // 3 = 5 positions, a run of 12 // 3 = 4 struck ones.  A step of
# D positions spans 3D for even D; for odd D, 3D + 1 from an even position
# and 3D - 1 from an odd one.
RECORD_12 = ".xxx.."


@pytest.mark.parametrize("texts, want", [
    # a later gap equal to the record, gated (run 3, 19 -> 31) and read in
    # full (23 -> 35; the trailing run of 4 opens the gate): the earlier one
    # keeps the record
    ([RECORD_12, ".xxx.."], (12, 1, 13)),
    ([RECORD_12, "..xxx.xxxx"], (12, 1, 13)),
    # runs of exactly 4 - 1 and 4 struck, in one segment and in two: only
    # the second is a step past the record
    ([RECORD_12, ".xxx..xxxx."], (14, 35, 49)),
    ([RECORD_12, "xxx.", "..", ".xxxx."], (16, 37, 53)),
    # segments with no survivor, short (gated) and long (read in full), and
    # with a single one, whose boundary gap 17 -> 35 sets a record
    ([RECORD_12, "xxx", "xx.xx", "xxxxxxxxxx", ".x.x."], (38, 35, 73)),
    ([RECORD_12, "xxx", ".", ".xx.x.."], (12, 1, 13)),
    # a record only the boundary gap sets, its right end at index 0 of a
    # segment whose own runs are short
    ([RECORD_12, ".xxxxxx", ".x.x."], (22, 19, 41)),
    # a leading run continuing the previous segment's trailing run, both
    # shorter than 4, and the previous segment read only at its ends
    ([RECORD_12, ".x.xxx", "xx.x."], (18, 25, 43)),
    ([RECORD_12, ".x.x.xxx", "xxx.", "x.x.xxx", "x."], (22, 31, 53)),
])
def test_gap_reader_gate_on_crafted_segments(texts, want):
    assert _assert_gap_reader_agrees(_stream(0, texts)) == want


@pytest.mark.parametrize("texts, want", [
    # a step of 4 from position 6 or 7 ties the record, gated (run 3) and
    # read in full (the trailing run of 4 opens the gate)
    ([RECORD_12, ".xxx."], (12, 1, 13)),
    ([RECORD_12, "x.xxx.xxxx"], (12, 1, 13)),
    # a step of 5 from the odd position 11 is 14, from the even 6 it is 16
    ([RECORD_12, "x.xxx.xxxx."], (14, 35, 49)),
    ([RECORD_12, ".xxxx."], (16, 19, 35)),
    # two steps of 5: from odd 7 (14), then from even 12 (16), which wins;
    # from even 6 and even 12, both 16, and the first one stays
    ([RECORD_12, "x.xxxx.xxxx."], (16, 37, 53)),
    ([RECORD_12, ".xxxx..xxxx."], (16, 19, 35)),
    # a segment with no survivor, and a record only the boundary gap sets
    ([RECORD_12, "xxxxxxx"], (12, 1, 13)),
    ([RECORD_12, "xxxx", "x."], (18, 17, 35)),
])
def test_gap_reader_gate_on_crafted_wheel_segments(texts, want):
    assert _assert_gap_reader_agrees(_stream(0, texts)) == want


def test_gap_reader_gate_after_a_prime_sieve_start():
    # prev = 3 before position 1, the 5 where the wheel's prime sieve
    # starts, makes the first record 2 = (3, 5), which must not engage the
    # gate
    for texts, want in (([".", "x.x."], (6, 5, 11)), (["x", "xx.x"], (10, 3, 13)),
                        (["..x.", "xx.x.x"], (10, 13, 23))):
        assert _assert_gap_reader_agrees(_stream(1, texts), prev=3) == want


def _random_gap_reader_runs():
    rng = random.Random(90210)
    for _ in range(2000):
        density = rng.random()
        texts = ["".join("x" if rng.random() < density else "."
                         for _ in range(rng.randint(1, 24)))
                 for _ in range(rng.randint(1, 12))]
        prev = rng.choice([None, 1])
        _assert_gap_reader_agrees(_stream(1 + rng.randrange(5), texts), prev)


def test_gap_reader_gate_on_random_segments():
    _random_gap_reader_runs()


@pytest.mark.parametrize("read", [1, 3, 16])
def test_gap_reader_gate_on_random_blocks(monkeypatch, read):
    # segments gated and read in blocks of read positions, the last one of
    # a segment shorter
    monkeypatch.setattr(sieve, "_READ", read)
    _random_gap_reader_runs()


# Gate tests: a first segment "." + "x" * (k - 1) + "." sets the record
# 3k + k % 2, a step of k positions from position 0, so a later gap beats
# it only across a run of k struck positions (a step of k + 1, at least
# 3k + 2); a run of k - 1 gives at most 3k + 1 and leaves the record.
# From k = 15 on, the gate first looks for (k - 7) // 8 words of eight
# struck flags in a block whose size is a multiple of 8.
GATE_READ = 256


def _gate_blocks(k, run, offset):
    """Blocks holding one run of run struck entries from index 8 + offset:
    a full _READ block, short ones of a size a multiple of 8 and not, and
    a segment of a full block and a short last one."""
    def block(size):
        head = 8 + offset
        return "." * head + "x" * run + "." * (size - head - run)
    short = 8 + offset + run + 1
    short8 = short + -short % 8 + 8
    return [[block(GATE_READ)], [block(short)], [block(short8)],
            [block(GATE_READ) + block(short + (short % 8 == 0))]]


@pytest.mark.parametrize("k", [14, 15, 16, 17, 73])
def test_word_gate_at_runs_of_k_and_k_minus_one(monkeypatch, k):
    monkeypatch.setattr(sieve, "_READ", GATE_READ)
    record = (3 * k + k % 2, 1, 1 + 3 * k + k % 2)
    for offset in range(8):
        for run in (k - 1, k):
            for texts in _gate_blocks(k, run, offset):
                best = _assert_gap_reader_agrees(
                    _stream(0, ["." + "x" * (k - 1) + "."] + texts))
                assert (best == record) == (run == k - 1), (k, run, offset)


def _longest_run(struck):
    """The length of the longest run of True entries, counted one by one."""
    best = length = 0
    for flag in struck.tolist():
        length = length + 1 if flag else 0
        best = max(best, length)
    return best


def test_run_test_matches_a_count_of_runs():
    # sizes a multiple of 8, tested on words first, and not; a run of 200
    # in 4096 entries takes the word test of its word column too
    rng = np.random.default_rng(88)
    for size in (8, 64, 65, 256, 1000, 1024, 4096):
        for density in (0.5, 0.9, 0.97, 0.995, 1.0):
            struck = rng.random(size) < density
            longest = _longest_run(struck)
            for k in (1, 7, 8, 14, 15, 16, 23, 24, 73, 200, longest, longest + 1):
                if k >= 1:
                    assert sieve._has_run(struck, k) == (k <= longest), (size, density, k)

def _prime_gap_oracle(x):
    """(gap, lo, hi) of the first maximal prime gap up to x, from a bytearray sieve."""
    flags = bytearray([1]) * (x + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(x) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
    best, prev = (0, 0, 0), None
    i = flags.find(1)
    while i != -1:
        if prev is not None and i - prev > best[0]:
            best = (i - prev, prev, i)
        prev, i = i, flags.find(1, i + 1)
    return best


def test_gated_scans_match_oracles_on_seeded_windows(rough_gap_oracle, segment):
    # at the segment size 2**16 every window spans several segments, so
    # the gate reads most of them only at their ends
    segment(1 << 16)
    rng = random.Random(2024)
    for _ in range(20):
        u = rng.choice([2, 3, 5, 7, 11, 13, 23, 31, 61, 127])
        lo = rng.randrange(1, 10**12)
        hi = lo + rng.randrange(270_000, 600_000)
        rec = rough_gap_scan(u, lo, hi)
        assert (rec.gap, rec.lo, rec.hi) == rough_gap_oracle(u, lo, hi), (u, lo, hi)
    for _ in range(20):
        x = rng.randrange(300_000, 1_500_000)
        rec = max_prime_gap(x)
        assert (rec.gap, rec.lo, rec.hi) == _prime_gap_oracle(x), x


def test_line_positions_match_lane_by_lane_map():
    # _position(n) counts the line's integers below n, negative n included
    line = [n for n in range(-60, 600) if math.gcd(n, 6) == 1]
    for n in range(-50, 500):
        below = sum(1 for m in line if m < n) - sum(1 for m in line if m < 0)
        assert sieve._position(n) == below, n
    for j in range(-20, 200):
        assert sieve._term(j) == _line_integer(j), j
    # object columns of positions past 2**63, as past-int64 prime windows
    # map them
    j = np.array([2**63 + d for d in range(-3, 9)] + [2**70 + 1], dtype=object)
    terms = sieve._term(j)
    assert terms.dtype == object
    assert terms.tolist() == [_line_integer(v) for v in j.tolist()]
    assert sieve._position(terms).tolist() == j.tolist()


def test_max_prime_gap_every_x_to_400():
    # x of every residue mod 6, so the wheel ends on each lane, in the
    # first segment and its first _READ block
    for x in range(5, 401):
        rec = max_prime_gap(x)
        assert (rec.gap, rec.lo, rec.hi) == _prime_gap_oracle(x), x


@pytest.mark.parametrize("size", [1, 2, 7, 64])
def test_max_prime_gap_next_to_segment_ends(segment, size):
    # the prime sieve's segments of size positions start at position
    # 1 + k*size; x takes every residue mod 6 around the integer there,
    # so the last segment ends short, full, or one position into the next
    segment(size)
    for k in (1, 2, 5, 40):
        boundary = _line_integer(1 + k * size)
        for x in range(max(5, boundary - 8), boundary + 8):
            rec = max_prime_gap(x)
            assert (rec.gap, rec.lo, rec.hi) == _prime_gap_oracle(x), (size, x)


@pytest.mark.parametrize("u", [2, 3, 4, 5, 7, 23])
def test_rough_gap_scan_matches_oracle_at_every_residue(rough_gap_oracle, segment, u):
    # windows whose ends take every residue mod 6, in closed form (u = 2)
    # and on the wheel, from 1, near 10**6 and past 2**66, where positions
    # pass 2**63, at segment sizes from 7 positions to the real one
    rng = random.Random(u)
    for size in (7, 64, None):
        if size is not None:
            segment(size)
        for base in (1, 10**6, 2**66):
            for r in range(6):
                lo = base + 6 * rng.randrange(100) + r
                hi = lo + 300 + 6 * rng.randrange(50) + rng.randrange(6)
                rec = rough_gap_scan(u, lo, hi)
                assert (rec.gap, rec.lo, rec.hi) == rough_gap_oracle(u, lo, hi), (
                    u, size, lo, hi)


def test_primes_in_range_at_every_residue():
    # lo and hi of every residue mod 6, against is_prime
    rng = random.Random(6)
    for base in (0, 10**6, 10**12):
        for r in range(6):
            for s in range(6):
                lo = base + 6 * rng.randrange(100) + r
                hi = lo + 6 * rng.randrange(10, 40) + s
                want = [n for n in range(lo + 1, hi + 1) if is_prime(n)]
                assert primes_in_range(lo, hi) == want, (lo, hi)


# the segment kernel's base primes: small enough that their spared k lie in
# the first few segments at spans 1, 7 and 64, far below the real segment
# length, which puts every base prime in the first segment
KERNEL_PRIMES = [p for p in range(2, 60) if all(p % d for d in range(2, p))]


def _kernel_rows(q, b, k_lo, k_hi, base, roots, spared):
    """Every row the kernel yields, with its first term and length checked."""
    col = lambda values: np.array(values, dtype=np.int64)  # noqa: E731
    struck, k = [], k_lo
    for first, seg in sieve._segments(q, b, k_lo, k_hi, col(base), col(roots),
                                      col(spared)):
        assert first == b + k * q
        assert seg.dtype == bool and seg.size == min(sieve._SEGMENT, k_hi - k)
        struck += seg.tolist()
        k += seg.size
    assert k == max(k_lo, k_hi)
    return struck


@pytest.mark.parametrize("q, b", [(2, 1), (4, 3), (6, 5), (30, 7), (7, 1)])
@pytest.mark.parametrize("prime_sieve", [True, False])
def test_segment_kernel_matches_trial_division(q, b, prime_sieve, segment):
    # a prime sieve spares the terms that are base primes themselves; a
    # rough scan strikes every term with a base prime factor
    base = [p for p in KERNEL_PRIMES if q % p]
    roots = [next(k for k in range(p) if (b + k * q) % p == 0) for p in base]
    spared = [(p - b) // q for p in base if p >= b and (p - b) % q == 0]
    if not prime_sieve:
        spared = []
    for k_lo, k_hi in ((0, 200), (3, 157), (9, 9)):
        want = [any(n % p == 0 and not (prime_sieve and n == p) for p in base)
                for n in range(b + k_lo * q, b + k_hi * q, q)]
        for span in (1, 7, 64):
            segment(span)
            got = _kernel_rows(q, b, k_lo, k_hi, base, roots, spared)
            assert got == want, (k_lo, k_hi, span)


def test_segment_kernel_rough_window_past_int64(segment):
    # k itself passes 2**63, so the roots are shifted by an exact k mod p
    base = KERNEL_PRIMES[1:]
    roots = [(p - 1) // 2 for p in base]
    k_lo = 2**63 - 40
    want = [any(n % p == 0 for p in base)
            for n in range(1 + 2 * k_lo, 1 + 2 * (k_lo + 150), 2)]
    for span in (1, 7, 64):
        segment(span)
        assert _kernel_rows(2, 1, k_lo, k_lo + 150, base, roots, []) == want


# The primes 5 to 17 strike the line with period 2*5*7*11*13*17 positions,
# which the kernel tiles into each segment of a line whose primes start
# with them; windows start on either side of a period's end, segments are
# shorter and longer than it.
PERIOD = 170_170
PERIOD_STARTS = [PERIOD - 1, 0, 1]


def test_presieve_period_is_the_line_struck_by_5_to_17():
    assert sieve._PERIOD.size == PERIOD and not sieve._PERIOD.flags.writeable
    want = [any((3 * j + 1 + (j & 1)) % p == 0 for p in (5, 7, 11, 13, 17))
            for j in range(PERIOD)]
    assert sieve._PERIOD.tolist() == want


@pytest.mark.parametrize("r", [0, 1, 5000, PERIOD - 1])
def test_tile_repeats_the_period_from_any_entry(r):
    # the period's tail alone, exactly to its end, one entry past it, and
    # several whole periods
    for n in (1, 17, PERIOD - r, PERIOD - r + 1, PERIOD, 3 * PERIOD + 7):
        want = np.resize(np.roll(sieve._PERIOD, -r), n)
        assert np.array_equal(sieve._tile(sieve._PERIOD, r, n), want), n


def test_strike_from_given_flags_sets_them_too():
    rng = np.random.default_rng(17)
    for y in (0, 37, 1023, 20000):
        moduli = rng.integers(1, 3 * y + 3, 40)
        residues = rng.integers(0, 10**6, 40)
        start = rng.random(y + 1) < 0.3
        got = sieve._strike(y, residues, moduli, start.copy())
        assert np.array_equal(got, start | _slice_strike(y, residues, moduli))


def _unpresieved_line(lo, hi, primes, spare):
    """_line's segments with every prime striking, 5 to 17 too, and no
    period: the kernel before the period."""
    primes = np.array(primes, dtype=np.int64)
    roots = np.concatenate([primes // 3, 5 * primes // 3])
    return sieve._segments(1, 0, sieve._position(lo), sieve._position(hi + 1),
                           np.concatenate([2 * primes] * 2), roots,
                           primes // 3 if spare else primes[:0])


@pytest.mark.parametrize("size", [4099, PERIOD - 1, PERIOD + 1, 1 << 20])
def test_presieved_line_matches_the_unpresieved_kernel(segment, size):
    segment(size)
    for r in PERIOD_STARTS:
        for m in (0, 5, 2**62 // PERIOD):
            lo = sieve._term(m * PERIOD + r)
            hi = lo + 3 * 2 * PERIOD + 11
            prime_sieve = small_primes_up_to(math.isqrt(min(hi, 10**8)))[2:]
            for primes, spare in ((prime_sieve, True), (prime_sieve, False),
                                  (KERNEL_PRIMES[2:7], False), (KERNEL_PRIMES[2:6], False),
                                  (KERNEL_PRIMES[2:8], True)):
                got = list(sieve._line(lo, hi, np.array(primes, dtype=np.int64), spare))
                want = list(_unpresieved_line(lo, hi, primes, spare))
                assert [start for start, _ in got] == [start for start, _ in want]
                for (_, a), (_, b) in zip(got, want):
                    assert np.array_equal(a, b), (size, r, m, primes[-1], spare)


@pytest.mark.parametrize("size", [65_536, 262_144])
def test_presieved_scans_match_oracles_at_period_ends(rough_gap_oracle, segment, size):
    # windows from the position k == -1, 0 and 1 (mod the period): prime
    # lists against Eratosthenes, rough scans for u = 13 (no period), 17
    # (the period alone) and 19 (the period and 19) against the window
    # oracle, prime gaps with x at those positions against the gap oracle
    segment(size)
    oracle = small_primes_up_to(4 * 510_510 + 600_000)
    for r in PERIOD_STARTS:
        for m in (0, 3):
            k = m * PERIOD + r
            lo = sieve._term(k) - 2
            hi = lo + 590_000
            want = oracle[bisect.bisect_right(oracle, lo):bisect.bisect_right(oracle, hi)]
            assert primes_in_range(lo, hi) == want, (size, r, m)
            for u in (13, 17, 19):
                rec = rough_gap_scan(u, lo, hi)
                assert (rec.gap, rec.lo, rec.hi) == rough_gap_oracle(u, lo, hi), (u, lo)
        x = sieve._term(PERIOD + r)
        rec = max_prime_gap(x)
        assert (rec.gap, rec.lo, rec.hi) == _prime_gap_oracle(x), x

def _slice_strike(y, residues, moduli):
    """The strike before sparse moduli were listed: one slice per modulus
    up to y, and the least residues of the larger ones."""
    flags = np.zeros(y + 1, dtype=bool)
    keep = moduli >= 2
    p = moduli[keep]
    start = residues[keep] % p
    small = p <= y
    for s, m in zip(start[small].tolist(), p[small].tolist()):
        flags[s::m] = True
    start = start[~small]
    flags[start[start <= y].astype(np.intp)] = True
    return flags


def _strike_moduli(rng, y, listed):
    """Moduli below 2, at and around the slice cut y // _SPARSE, at y, above
    y, and random ones: below the cut, and listed more above it."""
    cut = y // sieve._SPARSE
    edges = [-3, 0, 1, 2, cut - 1, cut, cut + 1, cut + 2, y - 1, y, y + 1, y + 2,
             2 * y + 5]
    return edges + [rng.randrange(2, max(3, cut + 2)) for _ in range(20)] + [
        rng.randrange(max(2, cut + 1), y + 3) for _ in range(listed)]


@pytest.mark.parametrize("y", [0, 1, 2, 37, 300, 1023, 20000])
@pytest.mark.parametrize("listed", [0, 20, 300])
def test_strike_matches_slice_oracle(y, listed):
    rng = random.Random(f"{y} {listed}")
    for _ in range(6):
        moduli = _strike_moduli(rng, y, listed)
        residues = [rng.randrange(-2**62, 2**62) for _ in moduli]
        p, a = np.array(moduli, dtype=np.int64), np.array(residues, dtype=np.int64)
        assert np.array_equal(sieve._strike(y, a, p), _slice_strike(y, a, p))
        # an object column: moduli at and past 2**63, residues past int64
        moduli += [2**63 - 25, 2**63, 2**64 + 13, 3**60]
        residues += [-(3**50), 10**30 + rng.randrange(10**6), -1, 2**64 + 7]
        p, a = np.array(moduli, dtype=object), np.array(residues, dtype=object)
        assert np.array_equal(sieve._strike(y, a, p), _slice_strike(y, a, p))


@pytest.mark.parametrize("count", [sieve._LISTED - 1, sieve._LISTED])
def test_strike_matches_slice_oracle_where_listing_starts(count):
    # count moduli just above the cut, where fewer than _LISTED are sliced
    y = 20000
    cut = y // sieve._SPARSE
    moduli = np.array([2, 3, cut] + list(range(cut + 1, cut + 1 + count)) + [y + 3],
                      dtype=np.int64)
    residues = np.random.default_rng(count).integers(-2**40, 2**40, moduli.size)
    assert np.array_equal(sieve._strike(y, residues, moduli),
                          _slice_strike(y, residues, moduli))


def test_strike_matches_slice_oracle_across_chunks():
    # every modulus from the cut to y: about y * ln(_SPARSE) listed points,
    # many times the 8192 of one chunk at this y
    y = 20000
    moduli = np.arange(y // sieve._SPARSE - 2, y + 5, dtype=np.int64)
    residues = np.random.default_rng(7).integers(-2**40, 2**40, moduli.size)
    want = _slice_strike(y, residues, moduli)
    assert np.array_equal(sieve._strike(y, residues, moduli), want)
    assert not want.all()


def test_strike_matches_slice_oracle_on_flank_windows():
    # the gap bound's flank windows: 1024 offsets, a class per prime <= u
    rng = np.random.default_rng(11)
    primes = np.array(primes_up_to(50_000), dtype=np.int64)
    T = int(rng.integers(2**62))
    for offset, step in ((-1, -1), (20_001, 1), (-1 - 1024, -1)):
        residues = -step * (T % primes + offset)
        assert np.array_equal(sieve._strike(1023, residues, primes),
                              _slice_strike(1023, residues, primes))


RECIPROCITY_Q = [2, 4, 8, 12, 678, 997, 10007, 98359, 510510, 2**31 - 1]


def _roots_oracle(primes, q, b):
    """The primes not dividing q and -b * pow(q, -1, p) mod each, by pow."""
    kept = [p for p in primes if q % p]
    return kept, [-b * pow(q, -1, p) % p for p in kept]


@pytest.mark.parametrize("q", RECIPROCITY_Q)
def test_progression_roots_by_reciprocity_match_fermat_and_pow(q):
    # the primes up to 3000, among them q's small factors, those within
    # 2000 below q, and those within 2000 above it, where q = 2**31 - 1
    # turns the column dtype=object, the fallback's; b runs past every prime
    below = small_primes_up_to(3000)
    below += primes_in_range(max(3000, q - 2000), max(3000, q - 1))
    above = primes_in_range(q, q + 2000)
    for column in (below, below + above):
        primes = np.array(column, dtype=np.int64)
        for b in (1, 3, 10**6 + 3, 2**40 + 5):
            kept, roots = sieve._progression_roots(primes, q, b)
            assert (kept.tolist(), roots.tolist()) == _roots_oracle(column, q, b), (q, b)
            # the Fermat batch gives the same roots
            fermat = sieve._prime_inverses(q % kept, kept)
            assert (-b % kept * fermat % kept).tolist() == roots.tolist(), (q, b)
        if kept.dtype == np.int64:
            assert np.array_equal(arith._inverses_of(q, kept, totient(q)), fermat), q


def test_progression_roots_by_reciprocity_take_no_fermat_batch(monkeypatch):
    def no_fermat(values, primes):
        raise AssertionError("_prime_inverses called")

    monkeypatch.setattr(sieve, "_prime_inverses", no_fermat)
    primes = small_primes_up_to(20_000)
    kept, roots = sieve._progression_roots(np.array(primes, dtype=np.int64), 10007, 3)
    assert (kept.tolist(), roots.tolist()) == _roots_oracle(primes, 10007, 3)


@pytest.mark.parametrize("q", [2**31, 2**31 + 1, (2**64 - 59) * (2**64 - 83)])
def test_progression_roots_past_int32_q_take_the_fallback(monkeypatch, q):
    # q outside (0, 2**31) goes to _prime_inverses, and never to totient:
    # a q of two 64-bit primes would keep factorize busy for hours
    def refuse(*args):
        raise AssertionError("reciprocity or factorize reached")

    monkeypatch.setattr(sieve, "_inverses_of", refuse)
    monkeypatch.setattr(arith, "factorize", refuse)
    primes = small_primes_up_to(3000)
    for b in (1, 2**70 + 1):
        kept, roots = sieve._progression_roots(np.array(primes, dtype=np.int64), q, b)
        assert (kept.tolist(), roots.tolist()) == _roots_oracle(primes, q, b)


def test_units_match_gcd_mask():
    for q in list(range(2, 1000)) + [510510, 2**13 * 3**5]:
        want = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        assert np.array_equal(sieve._units(q), want), q


def _row_sum_residue_counts(flags, q):
    """_residue_counts as it was before flags too short for a row skipped
    the row sums: every row of at least _ROW bytes, however few flags; the
    columns of one period added to their residues by np.add.at."""
    period = 2 * q // math.gcd(q, 6)
    width = period * -(-sieve._ROW // period)
    bits = flags.view(np.uint8)
    rows = bits.size // width
    body = bits[: rows * width].reshape(rows, width)
    cols = np.zeros(width, dtype=np.int64)
    for i in range(0, rows, 255):
        cols += body[i : i + 255].sum(axis=0, dtype=np.uint8)
    tail = bits[rows * width :]
    cols[: tail.size] += tail
    counts = np.zeros(q, dtype=np.int64)
    c = np.arange(period)
    np.add.at(counts, (6 * (c // 2) + np.where(c % 2, 5, 1)) % q,
              cols.reshape(-1, period).sum(axis=0))
    counts[2 % q] += 1
    counts[3 % q] += 1
    return counts


@pytest.mark.parametrize("x", [2, 3, 100, 1000, 4095, 4096, 4097, 6143, 6144,
                               6145, 10**5 + 1])
def test_residue_counts_match_row_sum_oracle(x):
    # below x = 3 * _ROW the flags fill no row of any q
    flags = sieve._prime_flags(x, Config())
    for q in range(2, 1200):
        assert np.array_equal(sieve._residue_counts(flags, q),
                              _row_sum_residue_counts(flags, q)), (x, q)
