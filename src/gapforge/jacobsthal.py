"""Exact maximal rough-number gaps over one full primorial period, and
lower bounds on them extracted from covering certificates.

The exact scan is sieve.rough_gap_scan over the period, so it runs on the
sieve module's numpy segment kernel; the tests check it against a
pure-Python oracle of their own.
"""

from __future__ import annotations

from typing import Optional

from . import covering
from .arith import multi_mod, primorial, small_primes_up_to
from .config import DEFAULT, Config
from .errors import PeriodTooLarge
from .model import CoveringCertificate, GapRecord, JacobsthalValue, Rational
from .sieve import rough_gap_scan


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


def _is_rough_offset(offset: int, primes: list[int], residues: list[int]) -> bool:
    """Whether T + offset is u-rough, given residues[i] = T mod primes[i]."""
    return all((r + offset) % p for p, r in zip(primes, residues))


def jacobsthal_bound_from_certificate(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> JacobsthalValue:
    """Lower bound J(u) >= y + 2 certified by a verified covering.

    The witness is the pair of u-rough integers immediately flanking the
    covered run [T, T + y] of the CRT witness; the reported rational form
    (x - b)/q of the bound rides along as gap_lower_rational.

    Raises InvalidCertificate when the certificate fails verification
    (crt_witness re-checks it before combining).
    """
    cfg = config or DEFAULT
    w = covering.crt_witness(cert, config=cfg)
    primes = small_primes_up_to(cert.u)
    residues = multi_mod(w.T, primes)
    below = -1
    while not _is_rough_offset(below, primes, residues):
        below -= 1
    above = cert.y + 1
    while not _is_rough_offset(above, primes, residues):
        above += 1
    lo = w.T + below
    hi = w.T + above
    witness = GapRecord(hi - lo, lo, hi)
    return JacobsthalValue(
        u=cert.u,
        value=cert.y + 2,
        witness=witness,
        exact=False,
        gap_lower_rational=Rational(cert.x - cert.b, cert.q),
    )
