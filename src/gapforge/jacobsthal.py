"""Exact maximal rough-number gaps over one full primorial period, and
lower bounds on them extracted from covering certificates.

J(u) comes from an exact covering search over one class per prime <= u,
not from a scan of the period; the tests check it against a brute force
over every class assignment, a pure-Python scan oracle and the sieve
module's full-period rough_gap_scan.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import covering
from .arith import multi_mod, primorial
from .config import Config
from .errors import PeriodTooLarge
from .model import CoveringCertificate, GapRecord, JacobsthalValue
from .sieve import _context, _prime_array, _strike

# offsets in the first window of the flank search; each later window doubles
_FLANK_WINDOW = 1 << 10


def jacobsthal_exact(u: int, *, config: Optional[Config] = None) -> JacobsthalValue:
    """Exact J(u): maximal gap between consecutive u-rough integers.

    A gap of length L after a rough lo is one class c_p = -lo mod p per
    prime p <= u that covers the offsets 1 .. L - 1 and neither 0 nor L,
    and the CRT maps those choices one-to-one onto lo mod P, P =
    primorial(u).  So J(u) is the least L at which no choice of classes
    covers a run of L offsets (_least_uncoverable), and the witness is the
    least lo over every choice that covers 1 .. J - 1 and misses both
    flanks (_first_gap): the first maximal gap of [1, P + 1], as a scan of
    the period would report it.

    The window rule of that scan still bounds u.  n -> P - n maps rough
    integers to rough integers, so with r the largest rough integer <= P/2
    the first maximal gap of [1, P + 1] lies in [1, P - r + 2]; r is found
    by walking down from P/2, fewer than J(u)/2 odd steps.  Refuses with
    PeriodTooLarge when that window is longer than config.scan_limit, before
    sieving anything near u, and with ResourceLimit when the primes up to u
    exceed the memory budget.
    """
    table = _context(config)
    if u < 2:
        raise ValueError("need u >= 2")
    cap = table.cfg.scan_limit
    # primorial(n) >= 2**pi(n), and the k-th prime is below k*k for k >= 2,
    # so primorial((cap.bit_length() + 1)**2) already exceeds 2 * cap: a
    # larger u is refused without sieving up to u
    limit = max(2, (cap.bit_length() + 1) ** 2)
    period = primorial(min(u, limit))
    r = period // 2  # odd for every u >= 2, as rough integers are
    # the window [1, P - r + 2] spans more than P/2 integers, so a period
    # with P/2 >= cap is refused without walking down to r
    while r < cap and math.gcd(r, period) != 1:
        r -= 2
    if period - r + 1 > cap:
        value = f" = {period}" if u <= limit else ""
        raise PeriodTooLarge(
            f"primorial({u}){value} is past the scan budget: its half-period "
            f"window is over {cap} integers"
        )
    # a refusal names the rough gap scan, whose window rule J(u) keeps
    primes = _prime_array(u, table, "rough gap scan").tolist()
    gap, masks = _least_uncoverable(primes)
    lo = _first_gap(primes, masks, gap)
    return JacobsthalValue(
        u=u, value=gap, witness=GapRecord(gap, lo, lo + gap), exact=True
    )


def _may_cover(run: int, rows: list[list[int]]) -> bool:
    """False when one class from each row cannot cover the bits of run.

    The rows' best single-class hit counts must add up to run's bit count.
    """
    need = run.bit_count()
    for row in rows:
        if need <= 0:
            break
        need -= max(map(int.bit_count, map(run.__and__, row)))
    return need <= 0


def _cover(
    left: int, masks: list[list[int]], covered: int = 0, i: int = 0
) -> Optional[int]:
    """The offsets covered by covered and one class each of primes i, i + 1,
    ..., all of left among them, or None when no choice covers left.

    Depth-first over the primes in ascending order.  A prime's classes are
    deduplicated by their hits on left and tried with the most hits first;
    a class hitting a superset covers whatever a smaller one does, so a
    class hitting nothing is never tried.  Once left is covered, each prime
    still free takes the class of the first uncovered offset, which
    lengthens the covered run at no cost.
    """
    if not left:
        for row in masks[i:]:
            first = (covered ^ (covered + 1)).bit_length() - 1
            covered |= row[first % len(row)]
        return covered
    if not _may_cover(left, masks[i:]):
        return None
    effects = {left & m: m for m in masks[i]}
    effects.pop(0, None)
    for hit in sorted(effects, key=int.bit_count, reverse=True):
        got = _cover(left ^ hit, masks, covered | effects[hit], i + 1)
        if got is not None:
            return got
    return None


def _least_uncoverable(primes: list[int]) -> tuple[int, list[list[int]]]:
    """The least L at which no class per prime covers L consecutive offsets,
    with the class masks built on the way: masks[i][c] holds, as bits, the
    offsets that are c mod primes[i], below some size of at least L.

    A covering of offsets 0 .. L - 1 is a covering of every shorter run, so
    coverability is monotone in L; each covering found skips on to one past
    its first uncovered offset, and the exhausted search at L is the proof.
    """
    n, size, masks = 1, 0, []
    while True:
        if n > size:
            size = 2 * n
            masks = [[sum(1 << k for k in range(c, size, p)) for c in range(p)]
                     for p in primes]
        got = _cover((1 << n) - 1, masks)
        if got is None:
            return n, masks
        n = (got ^ (got + 1)).bit_length()


def _first_gap(primes: list[int], masks: list[list[int]], gap: int) -> int:
    """The least lo >= 1 with lo and lo + gap u-rough and none between them.

    Enumerates the choices that cover the offsets 1 .. gap - 1 with
    classes missing both flanks, 0 and gap, keeping lo mod the product M of
    the primes that took a class.  Each prime takes a class that hits the
    run, or is left free to take any class missing the flanks; once the run
    is covered, every prime left is free too, and lo steps by M until no
    free prime divides lo or lo + gap, the least lo of those choices.
    """
    classes = [[c for c in range(p) if c and c != gap % p] for p in primes]
    rows = [[row[c] for c in cs] for row, cs in zip(masks, classes)]
    best = None

    def walk(run: int, i: int, lo: int, modulus: int, free: list[int]) -> None:
        nonlocal best
        if not run:
            free = free + primes[i:]
            while any(lo % p == 0 or (lo + gap) % p == 0 for p in free):
                lo += modulus
            best = lo if best is None else min(best, lo)
            return
        if not _may_cover(run, rows[i:]):
            return
        p = primes[i]
        inverse = pow(modulus, -1, p)
        for c, m in zip(classes[i], rows[i]):
            hit = run & m
            if hit:  # lo == -c (mod p)
                step = (-c - lo) * inverse % p
                walk(run ^ hit, i + 1, lo + modulus * step, modulus * p, free)
        walk(run, i + 1, lo, modulus, free + [p])

    walk((1 << gap) - 2, 0, 0, 1, [])
    return best


def _flank(residues: np.ndarray, primes: np.ndarray, offset: int, step: int) -> int:
    """First offset from offset on, stepping by 1 or -1, with T + offset u-rough.

    residues[i] is T mod primes[i], over every prime <= u.  The offsets
    offset + step*i, 0 <= i < width, are struck as one window: T plus the
    i-th is divisible by p exactly when i == -step*(T + offset) (mod p).
    Each window after the first is twice as wide as the one before.
    """
    width = _FLANK_WINDOW
    while True:
        struck = _strike(width - 1, -step * (residues + offset), primes)
        i = covering._first(~struck)
        if i is not None:
            return offset + step * i
        offset += step * width
        width *= 2


def jacobsthal_bound_from_certificate(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> JacobsthalValue:
    """Lower bound J(u) >= y + 2 certified by a verified covering.

    The witness is the pair of u-rough integers immediately flanking the
    covered run [T, T + y] of the CRT witness; the reported rational form
    (x - b)/q of the bound rides along as gap_lower_rational.

    Verifies the certificate once, raising InvalidCertificate on any
    failure.  The class primes' residues of T come from the witness's own
    validated reduction; one remainder pass reduces T by the primes <= u
    that carry no class, picked by a sorted lookup, and each flank is found
    by striking windows of offsets with both (_flank).  Raises ResourceLimit,
    before it verifies, when the primes up to u exceed the memory budget.
    """
    # the primes up to u come first, so the verifier's primality proof
    # lists none past them; a negative u lists none and fails verification
    table = _context(config)
    primes = _prime_array(max(cert.u, 0), table)
    covering._require_verified(cert, table)
    T, _, residues = covering.witness_of_verified(cert, product=False)
    classed = cert.classes.p.astype(np.int64)
    # the verified class primes are distinct primes <= u, so each one's
    # sorted place in the table is its own
    unclassed = np.delete(primes, np.searchsorted(primes, classed))
    rems = np.concatenate([residues.astype(np.int64),
                           np.array(multi_mod(T, unclassed), dtype=np.int64)])
    mods = np.concatenate([classed, unclassed])
    lo = T + _flank(rems, mods, -1, -1)
    hi = T + _flank(rems, mods, cert.y + 1, 1)
    return JacobsthalValue(
        u=cert.u,
        value=cert.y + 2,
        witness=GapRecord(hi - lo, lo, hi),
        exact=False,
        gap_lower_rational=cert.bound_rational(),
    )
