"""Segmented prime generation and scanning.

Prime lists, prime counts in progressions, deficit scans, maximal prime
gaps, least primes in progressions, and gap scans over rough numbers
(integers free of small prime factors).  Every sieve here is one numpy
segment kernel, _segments, which strikes the terms b + k*q of a
progression segment by segment with _strike, the [0, y] strike the
covering module shares.  Prime lists, gaps and rough scans walk the line
6k +- 1, the integers coprime to 6: the lanes 6k + 1 and 6k + 5
interleaved, position j holding 3j + 1 + (j & 1), each prime p >= 5
striking each lane as one modulus 2p of one kernel pass; the primes 2 and
3 are added by hand.  The primes 5 to 17 strike the line with a period of
170,170 positions, a constant column built at import: a line whose primes
start with them starts each segment from that period, tiled, and strikes
the rest.  The gap reader gates each block on a run of struck positions
long enough to beat the record, testing 8-byte words of flags before
single flags.  rough_gap_scan(2, ...) needs no sieve: the 2-rough
integers are the odd ones, every gap 2.  The primes below 2**16 are
arith's constant column _SMALL_PRIMES: the kernel takes its base primes
from it for any window below 2**32, and _primes, which runs the kernel on
every window, is the one producer of other prime columns.  The deficit
scan reads no column: it writes the wheel segments into one flag per
integer coprime to 6, about x / 3 bytes for the primes up to x under the
x + 1-byte rule, and counts each modulus's residues by column sums of
those flags.  Memory stays bounded by the segment length _SEGMENT, and
results are independent of it, which the test suite checks explicitly.

A command runs in one _PrimeTable, its context: each stage takes it
through its config argument, which may instead be a Config or None, for
which the stage builds a table of its own.  The table holds the Config,
the primes listed so far, and the roots of q*k + b == 0 solved so far for
the command's progression, with totient(q).  The primes start as
_SMALL_PRIMES and grow by _primes over the new range only, so a command
sieves each prime once and nothing up to 2**16 - 1; every request
(_prime_array, _prime_range) makes its own budget check, and the column
sits outside any budget, like the code.  The roots grow the same way: the
exact count solves the base primes up to isqrt(x), and the forced classes
only the primes past them.  _progression_roots takes q**-1 mod p by
reciprocity for q below 2**31.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import (
    _SMALL_PRIMES,
    _SMALL_TOP,
    COLUMN_LIMIT,
    PROVEN_LIMIT,
    _inverses_of,
    _prime_inverses,
    factorize,
    is_prime,
    totient,
)
from .config import DEFAULT, Config
from .errors import BadProgression, DomainError, EmptyRange, ResourceLimit
from .model import GapRecord, ProgressionStats, Rational


# _strike lists the points of the moduli in (y // _SPARSE, y] rather than
# slicing them: one slice assignment costs 0.4-1.2 us and listing and
# setting a point 8-10 ns, and _strike's time is flat for factors 64 to 256
# on survivor sieves and flank windows.  Listing costs 25-40 us however few
# the moduli, so fewer than _LISTED of them are sliced.  On the wheel's
# 2**20-position segments, where no modulus 2p passes y // 64 below
# x = 6.7e7, medians of 12 alternating calls of max_prime_gap(4.95e7) took
# 40.4, 40.7, 43.4 and 48.8 ms at factors 32, 64, 128 and 256.  (y = 100
# to 2**20, numpy 2.4, 2-core x86 host.)
_SPARSE = 64
_LISTED = 64

# Terms per kernel segment: positions on the line, b + k*q in a progression.
# On the wheel, medians of 12 alternating calls of max_prime_gap(4.95e7),
# scan_deficits(9.9e6, 205, 214, 10) and a rough scan of 4e6 integers,
# u = 19: 41.8, 10.4 and 1.0 ms at 2**20, 48.6, 10.3 and 1.0 at 2**19, 53.6,
# 12.5 and 2.1 at 2**21 (numpy 2.4, 2-core x86 host with 2 MiB of L2 per
# core).
_SEGMENT = 1 << 20

# _max_gap gates and reads blocks of _READ positions, so the first block
# sets a record before the rest of the first segment is read.  A rough scan
# of 4e6 integers, u = 19, took 6.4-7.9 ms reading whole 2**20-position
# segments and 2.2 ms in blocks of 2**16.  Medians of 12 alternating calls,
# max_prime_gap(4.95e7) and that scan, in two sets: 2**16 44.5-44.9 ms and
# 0.99-1.14 ms, 2**15 45.7-45.8 and 1.16-1.27, 2**17 45.2 and 0.92-0.96
# (numpy 2.4, 2-core x86 host); the gaps weigh more.
_READ = 1 << 16


# _residue_counts sums rows of at least _ROW flag bytes.  Per modulus, q in
# [200, 270): at x = 9.9e6 1.8-1.9 ms at 64 bytes, 0.56-0.58 at 1024,
# 0.44-0.46 at 2048 and 0.41-0.42 at 16384; at x = 9.9e5 0.057 ms at 2048
# and 0.087 at 16384 (numpy 2.4, 2-core x86 host).  A short row costs a
# numpy inner loop of its own, a long one more columns to fold.
_ROW = 2048

# What one row of scan_deficits costs until the scan command has printed it:
# the peak RSS of `scan --x 1000 --qmin 2 --qmax 1000 --top 10**9`, 303,791
# rows, less that of a 2-row scan, is 1,090 bytes a row as JSON and 940 as
# a table (Python 3.11, numpy 2.4).
_ROW_BYTES = 1100


def _check_window(span: int, cfg: Config, what: str) -> None:
    if span > cfg.scan_limit:
        raise ResourceLimit(
            f"{what} covers {span} integers, over the budget of {cfg.scan_limit}"
        )


def _check_table(n: int, cfg: Config, what: str) -> None:
    """Refuse a negative n, and the primes up to n unless they fit the budget:
    their sieve takes n + 1 bytes."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n + 1 > cfg.memory_budget:
        raise ResourceLimit(
            f"{what} needs the primes up to {n}, "
            f"over the {cfg.memory_budget}-byte budget"
        )


def _mod(n: int, p: np.ndarray) -> np.ndarray:
    """n mod each entry of a column whose entries are all >= 1, for any int n."""
    if p.dtype == object or -(2**63) <= n < 2**63:
        return n % p
    return (n % p.astype(object)).astype(p.dtype)


def _strike(
    y: int, residues: np.ndarray, moduli: np.ndarray,
    flags: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Flags over [0, y], set at each n == a (mod p) for the paired (a, p).

    flags, if given, are the y + 1 flags to start from, struck in place;
    otherwise they start clear.  Moduli below 2 strike nothing; the callers
    check the budget for y.  A
    modulus above y strikes at most one point, its least residue, so those
    are set by one fancy-index assignment.  A modulus in (y // _SPARSE, y]
    strikes at most _SPARSE points: when there are _LISTED or more of them,
    _strike_listed sets their points by fancy indexing, and the others
    strike by slices.
    """
    if flags is None:
        flags = np.zeros(y + 1, dtype=bool)
    keep = moduli >= 2
    # with no modulus below 2, as in every checked table, nothing is copied
    p, start = (moduli, residues) if keep.all() else (moduli[keep], residues[keep])
    start = start % p
    within = p <= y
    hit = start[~within]
    flags[hit[hit <= y].astype(np.intp)] = True
    # start < p <= y, so both fit int64
    start = start[within].astype(np.int64, copy=False)
    p = p[within].astype(np.int64, copy=False)
    listed = p > y // _SPARSE
    if np.count_nonzero(listed) < _LISTED:
        listed[:] = False
    for s, m in zip(start[~listed].tolist(), p[~listed].tolist()):
        flags[s::m] = True
    if listed.any():
        _strike_listed(flags, start[listed], p[listed])
    return flags


def _strike_listed(flags: np.ndarray, start: np.ndarray, p: np.ndarray) -> None:
    """Set every start + j*p <= y in flags, y = flags.size - 1, for each
    paired start < p <= y.

    The points go in chunks whose int64 index takes about as many bytes as
    flags (at least 64 KiB), each one fancy-index assignment.  A chunk's
    index is a running sum of steps: each modulus's first point steps from
    the previous modulus's last, the others by its p.
    """
    y = flags.size - 1
    counts = (y - start) // p + 1
    ends = np.cumsum(counts)
    # a chunk ends where the running point count passes a multiple of size
    size = max(y + 1, 1 << 16) // 8
    cuts = np.searchsorted(ends, np.arange(size, ends[-1], size)).tolist()
    for lo, hi in zip([0] + cuts, cuts + [ends.size]):
        c, s, m = counts[lo:hi], start[lo:hi], p[lo:hi]
        steps = np.repeat(m, c)
        last = s + (c - 1) * m
        steps[ends[lo:hi] - ends[lo] + c[0] - c] = s - np.append(0, last[:-1])
        flags[np.cumsum(steps, out=steps)] = True


def _segments(
    q: int, b: int, k_lo: int, k_hi: int, primes: np.ndarray, roots: np.ndarray,
    spared: np.ndarray, period: Optional[np.ndarray] = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The segment kernel over the terms n = b + k*q, k_lo <= k < k_hi.

    The term at k is struck when k == roots[i] (mod primes[i]) for some i,
    or when period, a constant flag column, is set at k mod its size,
    unless k is listed in spared.  Yields (first term, struck) per segment
    of up to _SEGMENT terms, struck[i] telling whether the segment's i-th
    term is struck.  k and the first term stay Python ints, so windows past
    2**63 are exact.
    """
    for k in range(k_lo, k_hi, _SEGMENT):
        stop = min(k + _SEGMENT, k_hi)  # exclusive
        flags = None if period is None else _tile(period, k % period.size, stop - k)
        struck = _strike(stop - 1 - k, roots - _mod(k, primes), primes, flags)
        hit = spared[(spared >= k) & (spared < stop)]
        if hit.size:  # so k < 2**63, and hit - k stays int64
            struck[hit - k] = False
        yield b + k * q, struck


def _tile(period: np.ndarray, r: int, n: int) -> np.ndarray:
    """n flags repeating period from its entry r: one copy per period."""
    flags = np.empty(n, dtype=bool)
    head = period[r : r + n]
    flags[: head.size] = head
    for at in range(head.size, n, period.size):
        flags[at : at + period.size] = period[: n - at]
    return flags


def _position(n):
    """The number of integers coprime to 6 below n: the position of n on the
    line, when n is on it.  n is an int or a column."""
    return (n + 4) // 6 + n // 6


def _term(j):
    """The integer at position j of the line; j is an int or a column.

    3j + 1 is the term for even j and one below it for odd j, where it is
    even, so (3j + 1) | 1 is 3j + 1 + (j & 1).
    """
    return (3 * j + 1) | 1


def _lanes(primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots and moduli by which primes >= 5 strike the line.

    The multiples p*m of p on the line, m coprime to 6, repeat every 6p
    integers, 2p positions: p strikes each lane as one modulus 2p, at the
    positions of p and 5p, p // 3 and 5p // 3, both below 2p.  An integer n
    on the line sits at n // 3.
    """
    return (np.concatenate([primes // 3, 5 * primes // 3]),
            np.concatenate([2 * primes] * 2))


# The primes 5 to 17 strike the line with one period of 2*5*7*11*13*17 =
# 170,170 positions, 170 KB built once at import, so a segment of a line
# whose primes start with them begins as that period tiled, and only the
# primes from 19 strike it: each of those five struck the 2**20-position
# segment by two slices, each touching all of it.
_PRESIEVED = np.array([5, 7, 11, 13, 17], dtype=np.int64)
_PERIOD = _strike(2 * math.prod(_PRESIEVED.tolist()) - 1, *_lanes(_PRESIEVED))
_PERIOD.setflags(write=False)


def _line(
    lo: int, hi: int, primes: np.ndarray, spare: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Kernel segments over the integers in [lo, hi] coprime to 6.

    Yields (first position, struck) per segment.  Each of primes, an
    ascending int64 column of primes >= 5, strikes its multiples by _lanes,
    and spares itself when spare is set.  When primes start with 5, 7, 11,
    13 and 17, the segments start from _PERIOD and only the rest strike.
    """
    spared = primes // 3 if spare else primes[:0]
    period = None
    if np.array_equal(primes[: _PRESIEVED.size], _PRESIEVED):
        period, primes = _PERIOD, primes[_PRESIEVED.size :]
    roots, moduli = _lanes(primes)
    return _segments(1, 0, _position(lo), _position(hi + 1), moduli, roots, spared,
                     period)


def _wheel_primes(lo: int, hi: int, cfg: Config) -> Iterator[tuple[int, np.ndarray]]:
    """Line segments over the n coprime to 6 in [max(5, lo), hi], primes unstruck.

    Every prime p >= 5 up to isqrt(hi) strikes its multiples and spares
    itself; any other multiple of p below p*p, coprime to 6, has a smaller
    prime factor of at least 5, which strikes it.  Those primes come from
    _SMALL_PRIMES for hi < 2**32, and past that from one throwaway
    _primes(0, isqrt(hi)), whose recursion ends there.
    """
    root = math.isqrt(max(hi, 0))
    _check_table(root, cfg, "prime sieve")
    base = _SMALL_PRIMES if root <= _SMALL_TOP else _primes(0, root, cfg)
    primes = base[2 : np.searchsorted(base, root, side="right")]
    return _line(max(5, lo), hi, primes, spare=True)


def _primes(lo: int, hi: int, cfg: Config) -> np.ndarray:
    """The primes p with lo < p <= hi, ascending, as a column.

    int64 while hi < 2**63, dtype=object past it, so every prime is exact.
    Every window runs the kernel (_wheel_primes); a _PrimeTable asks only
    past _SMALL_PRIMES, which it starts from.  Raises ValueError unless
    lo <= hi, and ResourceLimit when the window passes the scan limit or
    its base primes the memory budget.
    """
    if lo > hi:
        raise ValueError("need lo <= hi")
    _check_window(hi - lo, cfg, "prime range scan")
    dtype = np.int64 if hi < 2**63 else object
    parts = [np.array([p for p in (2, 3) if lo < p <= hi], dtype=dtype)]
    parts += [_term(start + np.flatnonzero(~struck).astype(dtype, copy=False))
              for start, struck in _wheel_primes(lo + 1, hi, cfg)]
    return np.concatenate(parts)


class _PrimeTable:
    """One command's context: its Config, the primes it has listed, and the
    roots of q*k + b == 0 it has solved for its progression.

    column holds every prime up to top, the largest bound asked for so
    far; it starts as _SMALL_PRIMES, so a request up to _SMALL_TOP is a
    prefix with no kernel pass.  A request past top sieves only (top, n]
    by _primes, so no prime is sieved twice; its base primes come from
    _SMALL_PRIMES while n < 2**32, which no table within a 4 GiB budget
    reaches.  The table checks no budget; each request makes its own checks
    first (_prime_array, _prime_range).  The roots grow the same way:
    solved is ((q, b), phi, done, kept, roots) for one progression, kept
    being those of the column's first done primes that do not divide q,
    and phi totient(q) once a count has given it; a longer request solves
    only the primes past those done.
    A stage given a Config builds a table and lets it go when it returns;
    a stage given the caller's table shares it, so the only primes two
    commands share are the immutable _SMALL_PRIMES.
    """

    __slots__ = ("cfg", "column", "top", "solved")

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.release()

    def upto(self, n: int) -> np.ndarray:
        """The primes <= n, a prefix of the column."""
        if n > self.top:
            more = _primes(self.top, n, self.cfg)
            self.column = np.concatenate([self.column, more])
            self.top = n
        return self.column[: np.searchsorted(self.column, n, side="right")]

    def release(self) -> None:
        """Let the sieved primes and the roots go; the column is _SMALL_PRIMES again."""
        self.column, self.top, self.solved = _SMALL_PRIMES, _SMALL_TOP, None

    def roots(
        self, n: int, q: int, b: int, phi: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The primes <= n not dividing q, and the root k of q*k + b == 0 mod
        each: _progression_roots solves only the primes past those solved
        for (q, b) before, with phi, totient(q), given now or before."""
        primes = self.upto(n)
        if self.solved is None or self.solved[0] != (q, b):
            self.solved = (q, b), None, 0, primes[:0], primes[:0]
        _, known, done, kept, roots = self.solved
        phi = phi or known
        if primes.size > done:
            more, more_roots = _progression_roots(primes[done:], q, b, phi)
            done = primes.size
            kept = np.concatenate([kept, more])
            roots = np.concatenate([roots, more_roots])
        self.solved = (q, b), phi, done, kept, roots
        end = np.searchsorted(kept, n, side="right")
        return kept[:end], roots[:end]


def _context(config) -> _PrimeTable:
    """A stage's config argument as a table: the caller's table itself, or
    a new one for a Config, or for None, DEFAULT."""
    return config if isinstance(config, _PrimeTable) else _PrimeTable(config or DEFAULT)


def _progression_roots(
    primes: np.ndarray, q: int, b: int, phi: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending primes not dividing q, and the root k of q*k + b == 0 mod each.

    q and b may be any ints.  For 0 < q < COLUMN_LIMIT the inverses of q
    come from _inverses_of, by reciprocity, with phi, totient(q), computed
    here unless given; any other q, and a column reaching COLUMN_LIMIT,
    which turns dtype=object so the product of a residue and an inverse
    stays exact, take one _prime_inverses batch, as does an empty column,
    which needs no totient of q.
    """
    if primes.size and primes[-1] >= COLUMN_LIMIT:
        primes = primes.astype(object)
    q_mod = _mod(q, primes)
    primes, q_mod = primes[q_mod != 0], q_mod[q_mod != 0]
    if primes.size and 0 < q < COLUMN_LIMIT and primes.dtype != object:
        inverses = _inverses_of(q, primes, totient(q) if phi is None else phi)
    else:
        inverses = _prime_inverses(q_mod, primes)
    return primes, _mod(-b, primes) * inverses % primes


# Eight True flags, as the uint64 word that holds them.
_TRUE_WORD = np.uint64(0x0101010101010101)


def _has_run(struck: np.ndarray, k: int) -> bool:
    """True when struck holds k >= 1 consecutive True entries.

    Such a run holds (k - 7) // 8 consecutive aligned 8-byte words of True
    entries, so when struck's size is a multiple of 8 the uint64 view, an
    eighth as many entries, is tested for that run first, and a miss
    decides.  Otherwise log-doubling: run starts as the AND of neighbours,
    a new array, so struck is never copied; after each in-place AND of run
    with itself shifted by step, run[i] tells whether struck[i : i + length]
    is all True, so about log2(k) passes over the segment decide it.
    """
    if k > struck.size:
        return False
    if k == 1:
        return bool(struck.any())
    words = (k - 7) // 8
    if words > 0 and struck.size % 8 == 0:
        if not _has_run(struck.view(np.uint64) == _TRUE_WORD, words):
            return False
    run = np.logical_and(struck[:-1], struck[1:])
    n, length = run.size, 2
    while length < k:
        step = min(length, k - length)
        n -= step
        np.logical_and(run[:n], run[step : step + n], out=run[:n])
        length += step
    return bool(run[:n].any())


def _max_gap(
    segments: Iterator[tuple[int, np.ndarray]], prev: Optional[int] = None
) -> tuple[GapRecord, int]:
    """First maximal gap between consecutive survivors of _line, and their
    number.

    prev, if given, is an odd survivor before the first segment.  Each
    boundary gap is read before the block's own, and only a strictly larger
    gap replaces the record, so ties go to the smallest left witness.

    n = 3j + 1 + (j & 1), so survivors D positions apart are
    3D + (j + D) % 2 - j % 2 apart, from j, at most 3D + 1.  Survivors and
    prev are odd, so a gap beating the record g is at least g + 2, and
    spans D >= (g + 3) // 3 positions: g // 3 or more consecutive struck
    ones.  A block of _READ positions without such a run is not read in
    full: its first and last survivor, each within that many entries of its
    end, give the boundary gap and the next prev, and a count of its struck
    entries gives its number of survivors.  A full read stays in index
    space: only a step of the widest D holds the largest gap, and the first
    largest is kept.
    """
    best = GapRecord(0, 0, 0)
    found = 0
    blocks = ((start + cut, struck[cut : cut + _READ])
              for start, struck in segments for cut in range(0, struck.size, _READ))
    for start, struck in blocks:
        run = best.gap // 3
        offs = None
        if run > 0 and not _has_run(struck, run):
            i = int(np.argmin(struck[:run]))
            if struck[i]:
                continue  # a block shorter than run, all struck
            j = struck.size - 1 - int(np.argmin(struck[: -run - 1 : -1]))
            found += struck.size - int(np.count_nonzero(struck))
        else:
            offs = np.flatnonzero(~struck)
            if offs.size == 0:
                continue
            found += offs.size
            i, j = int(offs[0]), int(offs[-1])
        first = _term(start + i)
        if prev is not None and first - prev > best.gap:
            best = GapRecord(first - prev, prev, first)
        if offs is not None and offs.size > 1:
            diffs = np.diff(offs)
            widest = int(diffs.max())
            at = np.flatnonzero(diffs == widest)
            parity = (offs[at] + start % 2) % 2  # of each step's left end
            gaps = 3 * widest + (parity + widest) % 2 - parity
            k = int(np.argmax(gaps))  # first maximum
            if gaps[k] > best.gap:
                lo = _term(start + int(offs[at[k]]))
                best = GapRecord(int(gaps[k]), lo, lo + int(gaps[k]))
        prev = _term(start + j)
    return best, found


def _prime_array(n: int, table: _PrimeTable, what: str = "prime list") -> np.ndarray:
    """All primes <= n from the table; n + 1 must fit the memory budget."""
    _check_table(n, table.cfg, what)
    return table.upto(n)


def _prime_range(lo: int, hi: int, table: _PrimeTable) -> np.ndarray:
    """_primes(lo, hi) with its refusals, from the table once it reaches lo."""
    if lo > table.top:
        return _primes(lo, hi, table.cfg)
    if lo > hi:
        raise ValueError("need lo <= hi")
    _check_window(hi - lo, table.cfg, "prime range scan")
    _check_table(math.isqrt(max(hi, 0)), table.cfg, "prime sieve")
    primes = table.upto(hi)
    return primes[np.searchsorted(primes, lo, side="right"):]


def _prime_flags(n: int, cfg: Config) -> np.ndarray:
    """flags[j] tells whether 3j + 1 + (j & 1) is a prime <= n, for the
    positions j of the wheel's integers up to n.

    Each _wheel_primes segment is written into place, so besides the n // 3
    or so bytes of flags only one segment is held.  n + 1 must fit the
    memory budget, with the refusal of _prime_array; the window check of
    _primes is not repeated, since it needs n past 8 times the budget.
    """
    _check_table(n, cfg, "prime list")
    flags = np.zeros(_position(n + 1), dtype=bool)
    for start, struck in _wheel_primes(5, n, cfg):
        np.logical_not(struck, out=flags[start : start + struck.size])
    return flags


def _units(q: int) -> np.ndarray:
    """The units mod q, ascending: each prime factor of q strikes its multiples once."""
    unit = np.ones(q, dtype=bool)
    for p, _ in factorize(q):
        unit[::p] = False
    return np.flatnonzero(unit)


def _residue_counts(flags: np.ndarray, q: int) -> np.ndarray:
    """The number of primes p <= x with p == r (mod q), for each r in [0, q).

    flags are _prime_flags(x) for some x >= 3, and q >= 2.  The integer at
    position c, 3c + 1 + (c & 1), mod q depends only on c mod period =
    2q / gcd(q, 6), so the flags are summed as rows of a whole number of
    periods, at least _ROW bytes: each block of 255 rows in uint8, which
    cannot overflow since each flag is 0 or 1, the blocks' sums in int64,
    and then the ragged tail.  Flags that fill no whole row are all tail,
    laid on the fewest periods that hold them.  Folding the row's columns
    onto one period gives the count at each column c, which np.bincount
    adds to its residue, shared by several c; the primes 2 and 3 add one
    each.
    """
    period = 2 * q // math.gcd(q, 6)
    width = period * -(-_ROW // period)
    bits = flags.view(np.uint8)
    rows = bits.size // width
    if not rows:  # no whole row: the tail alone, on as few periods as hold it
        width = period * -(-bits.size // period)
    body = bits[: rows * width].reshape(rows, width)
    cols = np.zeros(width, dtype=np.int64)
    for i in range(0, rows, 255):
        cols += body[i : i + 255].sum(axis=0, dtype=np.uint8)
    tail = bits[rows * width :]
    cols[: tail.size] += tail
    # the float weights hold every count exactly, far below 2**53
    counts = np.bincount(_term(np.arange(period)) % q,
                         weights=cols.reshape(-1, period).sum(axis=0), minlength=q)
    counts = counts.astype(np.int64)
    counts[2 % q] += 1
    counts[3 % q] += 1
    return counts


def primes_up_to(n: int, *, config: Optional[Config] = None) -> list[int]:
    """All primes <= n, ascending."""
    return _prime_array(n, _context(config)).tolist()


def primes_in_range(lo: int, hi: int, *, config: Optional[Config] = None) -> list[int]:
    """All primes p with lo < p <= hi, ascending (segmented sieve).

    Raises ResourceLimit when the window or the sieve of its base primes,
    those up to isqrt(hi), exceeds the budget.
    """
    return _primes(lo, hi, config or DEFAULT).tolist()


def first_non_prime(
    values: Sequence[int], *, config: Optional[Config] = None
) -> Optional[int]:
    """The first value, in order, below 2, at or above 2**64 or composite.

    values is a sequence of ints or a numpy column.  None when every value
    is a proven prime.  When the largest value in [2, 2**64) fits the memory
    budget as primes_up_to requires, one sieve up to it decides every
    value; otherwise each goes through is_prime, which is a proof below
    2**64.  At and above 2**64 nothing is tested.
    """
    table = _context(config)
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=object)
    testable = (values >= 2) & (values < PROVEN_LIMIT)
    top = int(values[testable].max()) if testable.any() else 1
    if top + 1 > table.cfg.memory_budget:
        values = values.tolist()
        return next((v for v in values if v >= PROVEN_LIMIT or not is_prime(v)), None)
    if top == 1:  # nothing to test, so every value fails
        return int(values[0]) if values.size else None
    primes = _prime_array(top, table)
    # values outside [2, top] become 0, which no prime list holds; only a
    # composite top sorts past the last prime, and no prime equals it
    arr = np.where(testable, values, 0).astype(np.int64, copy=False)
    at = np.searchsorted(primes, arr)
    np.minimum(at, primes.size - 1, out=at)
    bad = np.flatnonzero(primes[at] != arr)
    return int(values[bad[0]]) if bad.size else None


def prime_count_ap(
    x: int, q: int, b: int, *, config: Optional[Config] = None
) -> ProgressionStats:
    """Count primes p <= x with p == b (mod q); delta is exact.

    Sieves only the terms n = b + k*q, 0 <= k <= (x - b) // q, in segments
    of _SEGMENT terms, so the work is O(x/q) plus one strike per
    sieving prime and segment.  Each prime p <= sqrt(x) not dividing q hits
    the progression exactly at k == -b/q (mod p); the roots come from the
    table, which keeps them for the forced classes of the same command, and
    the segment kernel strikes them from k = 0, sparing the terms
    that are base primes themselves, n = p: any other term p*m with
    1 < m < p has a prime factor below p, which does not divide q and
    strikes it anyway.  n = 1 (b = 1) survives and is taken off the count.
    Raises ResourceLimit, before it allocates, when the terms
    exceed the segmented-scan limit or the base primes up to isqrt(x) the
    memory budget.
    """
    table = _context(config)
    _validate_count(x, q, b)
    terms = (x - b) // q + 1
    _check_window(terms, table.cfg, "progression sieve")
    root = math.isqrt(x)
    base = _prime_array(root, table, "progression sieve")
    phi = totient(q)
    primes, roots = table.roots(root, q, b, phi)
    # the k of the terms that are base primes: n % q == n % reach for every
    # n <= root, and past q > root only n = b, at k = 0, is that small
    reach = min(q, root + 1)
    own = (base[base % reach == b] - b) // reach if b <= root else base[:0]
    segments = _segments(q, b, 0, terms, primes, roots, own)
    # n = 1 (b = 1, k = 0) has no prime factor, so it survives every strike
    count = sum(s.size - int(np.count_nonzero(s)) for _, s in segments) - (b == 1)
    return ProgressionStats(q=q, b=b, x=x, count=count, delta=Rational(count * phi, x))


def max_prime_gap(x: int, *, config: Optional[Config] = None) -> GapRecord:
    """Largest gap between consecutive primes with both endpoints <= x.

    Ties go to the record with the smallest left witness.
    """
    cfg = config or DEFAULT
    if x < 5:
        raise ValueError("need x >= 5 so at least one gap exists")
    _check_window(x, cfg, "prime gap scan")
    return _max_gap(_wheel_primes(5, x, cfg), prev=3)[0]


def least_prime_ap(q: int, b: int, limit: int) -> Optional[int]:
    """Smallest prime p == b (mod q) with p <= limit, or None if none exists.

    Raises DomainError when the search reaches 2**64 before finding a
    prime, since primality is unproven there.
    """
    _validate_progression(q, b)
    if limit < q:
        raise BadProgression(f"need limit >= q, got limit={limit}, q={q}")
    k = b
    while k <= limit:
        if k >= PROVEN_LIMIT:
            raise DomainError(f"candidate {k} >= 2**64: primality is unproven")
        if k > 1 and is_prime(k):
            return k
        k += q
    return None


def rough_gap_scan(
    u: int, lo: int, hi: int, *, config: Optional[Config] = None
) -> GapRecord:
    """Largest gap between consecutive u-rough integers found in [lo, hi].

    An integer is u-rough when it has no prime factor <= u; 1 qualifies.
    For u = 2 the rough integers are the odd ones, every gap 2, so the
    record is the least odd integer >= lo and the next; for u >= 3 they are
    coprime to 6, and the scan walks the wheel.  Ties go to the smallest
    left witness.  Raises EmptyRange when the window holds fewer than two
    rough integers, and ResourceLimit when the window or the sieve of the
    primes up to u exceeds the budget, for u = 2 too.
    """
    table = _context(config)
    if u < 2:
        raise ValueError("need u >= 2")
    if lo >= hi:
        raise ValueError("need lo < hi")
    _check_window(hi - lo, table.cfg, "rough gap scan")
    primes = _prime_array(u, table, "rough gap scan")
    if u == 2:  # the odd integers, from the least one >= lo
        first = lo | 1
        best, found = GapRecord(2, first, first + 2), 1 + (first + 2 <= hi)
    else:  # the primes from 5: 2 and 3 are off the wheel
        best, found = _max_gap(_line(lo, hi, primes[2:], spare=False))
    if found < 2:
        raise EmptyRange(
            f"only {found} {u}-rough integer(s) in [{lo}, {hi}]; no gap to report"
        )
    return best


def scan_deficits(
    x: int, qmin: int, qmax: int, top: int, *, config: Optional[Config] = None
) -> list[ProgressionStats]:
    """The progressions b mod q, qmin <= q <= qmax, q < x, with the fewest primes.

    Every unit b mod q is a row, empty progressions included.  The counts
    of every q come from one set of _prime_flags up to x, x / 3 bytes
    under the x + 1-byte rule of a prime table.  Rows rank by
    delta = count * phi(q) / x, then q, then b; x is the same for every row,
    so the exact integer count * phi(q) orders them as delta does.  Returns
    the first top rows.  Within one modulus the order is that of (count, b),
    so a stable argsort picks each modulus's top units before any row is
    built, and the merged selections are cut back to top whenever they pass
    2 * top: at most 3 * top rows are held.  Raises ValueError for a
    negative top, and ResourceLimit, with no rows, as soon as the rows held
    would pass the memory budget at _ROW_BYTES each.
    """
    if top < 0:
        raise ValueError(f"need top >= 0, got {top}")
    cfg = config or DEFAULT
    ranking = []
    if qmin <= qmax and qmin < x:
        flags = _prime_flags(x, cfg)
        for q in range(max(2, qmin), min(qmax, x - 1) + 1):
            units = _units(q)
            phi = units.size
            counts = _residue_counts(flags, q)
            units = units[np.argsort(counts[units], kind="stable")[:top]]
            held = len(ranking) + units.size
            if held * _ROW_BYTES > cfg.memory_budget:
                raise ResourceLimit(
                    f"scan holds {held} rows of about {_ROW_BYTES} bytes, "
                    f"over the {cfg.memory_budget}-byte budget"
                )
            ranking += [
                (count * phi, q, b, count)
                for b, count in zip(units.tolist(), counts[units].tolist())
            ]
            if len(ranking) > 2 * top:
                ranking.sort()
                del ranking[top:]
    ranking.sort()
    return [
        ProgressionStats(q=q, b=b, x=x, count=count, delta=Rational(key, x))
        for key, q, b, count in ranking[:top]
    ]


def _validate_progression(q: int, b: int) -> None:
    if not 0 < b < q:
        raise BadProgression(f"need 0 < b < q, got b={b}, q={q}")
    if math.gcd(b, q) != 1:
        raise BadProgression(f"gcd({b}, {q}) = {math.gcd(b, q)} > 1")


def _validate_count(x: int, q: int, b: int) -> None:
    """_validate_progression, and q < x, as a count up to x needs."""
    _validate_progression(q, b)
    if not q < x:
        raise BadProgression(f"need q < x, got q={q}, x={x}")
