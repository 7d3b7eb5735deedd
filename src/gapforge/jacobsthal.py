"""Exact maximal rough-number gaps over one full primorial period, and
lower bounds on them extracted from covering certificates.

The exact scan is sieve.rough_gap_scan over half the period, so it runs on
the sieve module's numpy segment kernel; the tests check it against a
pure-Python oracle of their own and against the full-period scan.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import covering
from .arith import multi_mod, primorial
from .config import DEFAULT, Config
from .errors import PeriodTooLarge
from .model import CoveringCertificate, GapRecord, JacobsthalValue, Rational
from .sieve import _prime_array, _strike, rough_gap_scan

# offsets in the first window of the flank search; each later window doubles
_FLANK_WINDOW = 1 << 10


def jacobsthal_exact(u: int, *, config: Optional[Config] = None) -> JacobsthalValue:
    """Exact J(u): maximal gap between consecutive u-rough integers.

    The rough integers repeat with period P = primorial(u), and both ends
    of [1, P + 1] are rough, so that window holds every gap of the pattern.
    n -> P - n maps rough integers to rough integers, so each gap above P/2
    mirrors one of the same length below it with a smaller left end; with r
    the largest rough integer <= P/2, the gap straddling P/2 is (r, P - r).
    The first maximal gap of [1, P + 1] therefore lies in [1, P - r + 2],
    which is all the scan covers (the + 2 keeps u = 2, P = 2, whole), and
    the scan's own tie rule finds the same witness as a full-period scan.
    r is found by walking down from P/2, fewer than J(u)/2 odd steps.

    Refuses with PeriodTooLarge when that window is longer than
    config.scan_limit rather than approximating, before sieving anything near
    u, and with ResourceLimit when the primes up to u exceed the memory budget.
    """
    cfg = config or DEFAULT
    if u < 2:
        raise ValueError("need u >= 2")
    cap = cfg.scan_limit
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
    witness = rough_gap_scan(u, 1, period - r + 2, config=cfg)
    return JacobsthalValue(u=u, value=witness.gap, witness=witness, exact=True)


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
    that carry no class, and each flank is found by striking windows of
    offsets with both (_flank).  Raises ResourceLimit when the primes up to
    u exceed the memory budget.
    """
    cfg = config or DEFAULT
    covering.require_verified(cert, config=cfg)
    primes = _prime_array(cert.u, cfg)
    w, residues = covering.witness_of_verified(cert)
    classed = cert.classes.p.astype(np.int64)
    unclassed = primes[~np.isin(primes, classed)]
    rems = np.concatenate([residues.astype(np.int64),
                           np.array(multi_mod(w.T, unclassed), dtype=np.int64)])
    mods = np.concatenate([classed, unclassed])
    lo = w.T + _flank(rems, mods, -1, -1)
    hi = w.T + _flank(rems, mods, cert.y + 1, 1)
    return JacobsthalValue(
        u=cert.u,
        value=cert.y + 2,
        witness=GapRecord(hi - lo, lo, hi),
        exact=False,
        gap_lower_rational=Rational(cert.x - cert.b, cert.q),
    )
