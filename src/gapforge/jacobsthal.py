"""Exact maximal rough-number gaps over one full primorial period, and
lower bounds on them extracted from covering certificates.

The exact scan is sieve.rough_gap_scan over the period, so it runs on the
sieve module's numpy segment kernel; the tests check it against a
pure-Python oracle of their own.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import covering
from .arith import primorial
from .config import DEFAULT, Config
from .errors import PeriodTooLarge
from .model import CoveringCertificate, GapRecord, JacobsthalValue, Rational
from .sieve import primes_up_to, rough_gap_scan


def jacobsthal_exact(
    u: int, period_cap: Optional[int] = None, *, config: Optional[Config] = None
) -> JacobsthalValue:
    """Exact J(u): maximal gap between consecutive u-rough integers.

    Scans the full period [1, P + 1], P = primorial(u), striking multiples
    of every prime <= u; both endpoints of the window are rough, so every
    gap class of the periodic pattern appears exactly once.  Refuses with
    PeriodTooLarge when P exceeds the cap rather than approximating, and
    with ResourceLimit when it exceeds the scan budget.
    """
    cfg = config or DEFAULT
    if u < 2:
        raise ValueError("need u >= 2")
    cap = period_cap if period_cap is not None else cfg.period_cap
    period = primorial(u)
    if period > cap:
        raise PeriodTooLarge(f"primorial({u}) = {period} exceeds the cap {cap}")
    witness = rough_gap_scan(u, 1, period + 1, config=cfg)
    return JacobsthalValue(u=u, value=witness.gap, witness=witness, exact=True)


def _next_rough(
    residues: np.ndarray, primes: np.ndarray, offset: int, step: int
) -> int:
    """First offset from offset on, moving by step, with T + offset u-rough.

    residues[i] is T mod primes[i], over every prime <= u.
    """
    while not np.all((residues + offset) % primes):
        offset += step
    return offset


def jacobsthal_bound_from_certificate(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> JacobsthalValue:
    """Lower bound J(u) >= y + 2 certified by a verified covering.

    The witness is the pair of u-rough integers immediately flanking the
    covered run [T, T + y] of the CRT witness; the reported rational form
    (x - b)/q of the bound rides along as gap_lower_rational.

    Verifies the certificate once, raising InvalidCertificate on any
    failure, then reduces T once modulo every prime <= u: the class primes'
    residues validate the witness and all of them locate the flanks.
    Raises ResourceLimit when the primes up to u exceed the memory budget.
    """
    cfg = config or DEFAULT
    covering.require_verified(cert, config=cfg)
    primes = primes_up_to(cert.u, config=cfg)
    w, residues = covering.witness_of_verified(cert, primes)
    rems = np.array(residues, dtype=np.int64)
    mods = np.array(primes, dtype=np.int64)
    lo = w.T + _next_rough(rems, mods, -1, -1)
    hi = w.T + _next_rough(rems, mods, cert.y + 1, 1)
    return JacobsthalValue(
        u=cert.u,
        value=cert.y + 2,
        witness=GapRecord(hi - lo, lo, hi),
        exact=False,
        gap_lower_rational=Rational(cert.x - cert.b, cert.q),
    )
