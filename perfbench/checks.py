"""Independent checks of gapforge's outputs.

Numpy and stdlib only: nothing here imports gapforge or compares against a
stored copy of an earlier output.  Each check returns a list of problems
(empty when the output is right).  The published Jacobsthal values are those
of Hagedorn, Math. Comp. 78 (2009), and OEIS A048670.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

# J(u): the largest gap between consecutive integers free of primes <= u
PUBLISHED_J = {2: 2, 3: 4, 5: 6, 7: 10, 11: 14, 13: 22, 17: 26, 19: 34, 23: 40}


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n, from a plain numpy sieve of Eratosthenes."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def totient(q: int) -> int:
    phi, n, d = q, q, 2
    while d * d <= n:
        if n % d == 0:
            phi -= phi // d
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        phi -= phi // n
    return phi


def count_ap(x: int, q: int, b: int) -> int:
    """Primes n <= x with n == b (mod q), in O(x/q) memory.

    Sieves only n = b + kq: each prime p <= sqrt(x) not dividing q strikes
    k == -b * q^-1 (mod p), except at n = p itself.
    """
    kmax = (x - b) // q
    alive = np.ones(kmax + 1, dtype=bool)
    if b == 1:
        alive[0] = False
    for p in primes_upto(math.isqrt(x)):
        p = int(p)
        if q % p == 0:
            continue
        k = (-b * pow(q, -1, p)) % p
        if b + k * q == p:
            k += p
        alive[k::p] = False
    return int(alive.sum())


def _primes_by_trial_division(values: np.ndarray) -> bool:
    if values.size == 0:
        return True
    if values.min() < 2:
        return False
    composite = np.zeros(values.size, dtype=bool)
    for d in range(2, math.isqrt(int(values.max())) + 1):
        composite |= (values % d == 0) & (values != d)
    return not composite.any()


def _ratio_holds(u: int, q: int, delta: Fraction, x: int) -> bool:
    """u / ln u >= 10 * delta * x / q, decided in Decimal until unambiguous."""
    if delta == 0:
        return True
    lhs = Decimal(u * q * delta.denominator)
    prec = 60
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            rhs = Decimal(10 * delta.numerator * x) * Decimal(u).ln()
            if abs(lhs - rhs) > rhs.scaleb(10 - prec):
                return lhs > rhs
        prec *= 2


def check_certificate(obj: dict, x: int, q: int, b: int, delta: Fraction) -> list[str]:
    """The certificate proves what it claims for (x, q, b) at deficit delta."""
    bad = []
    if (obj["x"], obj["q"], obj["b"]) != (x, q, b):
        bad.append(f"progression {(obj['x'], obj['q'], obj['b'])} != {(x, q, b)}")
    y, u = obj["y"], obj["u"]
    if y != (x - b) // q:
        bad.append(f"y={y} != floor((x-b)/q)")
    if Fraction(obj["delta"]["num"], obj["delta"]["den"]) != delta:
        bad.append(f"delta {obj['delta']} != {delta}")
    ps = np.array([c["p"] for c in obj["classes"]], dtype=np.int64)
    ais = np.array([c["a"] for c in obj["classes"]], dtype=np.int64)
    if np.unique(ps).size != ps.size:
        bad.append("moduli repeat")
    if not _primes_by_trial_division(ps):
        bad.append("a modulus is not prime")
    if ps.size and int(ps.max()) > u:
        bad.append("a modulus exceeds u")
    if ((ais < 0) | (ais >= ps)).any():
        bad.append("a residue lies outside [0, p)")
    forced = np.array([c["kind"] == "forced" for c in obj["classes"]])
    if ((q * ais[forced] + b) % ps[forced]).any():
        bad.append("a forced class has q*a + b != 0 (mod p)")
    covered = np.zeros(y + 1, dtype=bool)
    for p, a in zip(ps.tolist(), ais.tolist()):
        covered[a % p :: p] = True
    if not covered.all():
        bad.append(f"n={int(np.argmin(covered))} is covered by no class")
    if not (u * u > 4 * x and _ratio_holds(u, q, delta, x)):
        bad.append(f"u={u} fails u^2 > 4x or u/ln u >= 10 delta x/q")
    if (u - 1) ** 2 > 4 * x and _ratio_holds(u - 1, q, delta, x):
        bad.append(f"u-1={u - 1} already meets both conditions")
    return bad


def check_cover_output(stdout: str, obj: dict) -> list[str]:
    want = f"J({obj['u']}) ≥ {obj['x'] - obj['b']}/{obj['q']}"
    return [] if stdout.strip() == want else [f"cover printed {stdout.strip()!r}"]


def check_report(stdout: str, strict: bool) -> list[str]:
    """verify accepted: every check passed, the witness among them."""
    report = json.loads(stdout)
    names = {e["check"] for e in report}
    bad = [f"{e['check']} failed" for e in report if not e["pass"]]
    needed = {"covers_range", "class_primes_prime", "witness_validates"}
    if strict:
        needed |= {"delta_hypothesis", "forced_classes_match"}
    bad += [f"no {n} check" for n in sorted(needed - names)]
    return bad


def check_rejection(stdout: str) -> list[str]:
    report = json.loads(stdout)
    return [] if any(not e["pass"] for e in report) else ["no check failed"]


def check_bound(rec: dict, obj: dict) -> list[str]:
    """J(u) >= y + 2 from the flanks of the covered run of the CRT witness T.

    lo and hi must be u-rough and every integer between them not; the
    witness T is the one integer in (lo, hi - y] with T == -a_p (mod p) for
    every class, and [T, T + y] then lies between the flanks.
    """
    bad = []
    u, y = obj["u"], obj["y"]
    lo, hi = int(rec["lo"], 16), int(rec["hi"], 16)
    if rec["u"] != u or rec["value"] != y + 2 or rec["exact"]:
        bad.append(f"bound u={rec['u']} value={rec['value']} exact={rec['exact']}")
    if rec["gap"] != hi - lo or hi - lo < y + 2:
        bad.append(f"witness gap {rec['gap']} vs hi-lo {hi - lo}, y+2 {y + 2}")
        return bad
    primes = primes_upto(u).tolist()
    r_lo = np.array([lo % p for p in primes], dtype=np.int64)
    pa = np.array(primes, dtype=np.int64)
    if not r_lo.all() or not ((r_lo + (hi - lo)) % pa).all():
        bad.append("a flank is not u-rough")
    rough_inside = np.ones(hi - lo - 1, dtype=bool)  # lo+1 .. hi-1
    for p, r in zip(primes, r_lo.tolist()):
        rough_inside[(-r - 1) % p :: p] = False
    if rough_inside.any():
        bad.append(f"lo+{int(np.argmax(rough_inside)) + 1} is u-rough")
    index = {p: i for i, p in enumerate(primes)}
    idx = np.array([index.get(c["p"], -1) for c in obj["classes"]])
    if (idx < 0).any():
        return bad + ["a class modulus is not a prime <= u"]
    cp = pa[idx]
    ca = np.array([c["a"] for c in obj["classes"]], dtype=np.int64)
    hits = [t for t in range(1, hi - lo - y)
            if not ((r_lo[idx] + t + ca) % cp).any()]
    if len(hits) != 1:
        bad.append(f"{len(hits)} candidates T with T == -a_p (mod p) between the flanks")
    return bad


def max_prime_gap(limit: int) -> tuple[int, int, int]:
    """(gap, lo, hi) of the first maximal gap between primes <= limit."""
    primes = primes_upto(limit)
    d = np.diff(primes)
    i = int(np.argmax(d))
    return int(d[i]), int(primes[i]), int(primes[i + 1])


def check_gaps(stdout: str, limit: int) -> list[str]:
    rec = json.loads(stdout)
    want = max_prime_gap(limit)
    got = (rec["gap"], rec["lo"], rec["hi"])
    return [] if got == want else [f"gaps {got} != {want}"]


def _rough_mask(lo: int, hi: int, u: int) -> np.ndarray:
    """mask[i] is True when lo + i has no prime factor <= u."""
    mask = np.ones(hi - lo + 1, dtype=bool)
    for p in primes_upto(u).tolist():
        mask[(-lo) % p :: p] = False
    return mask


def _first_max_gap(lo: int, mask: np.ndarray) -> tuple[int, int, int]:
    pos = np.flatnonzero(mask)
    d = np.diff(pos)
    i = int(np.argmax(d))
    return int(d[i]), lo + int(pos[i]), lo + int(pos[i + 1])


def check_jacobsthal(stdout: str, u: int) -> list[str]:
    rec = json.loads(stdout)
    bad = []
    if rec["value"] != PUBLISHED_J[u] or not rec["exact"]:
        bad.append(f"J({u}) = {rec['value']}, published {PUBLISHED_J[u]}")
    w = rec["witness"]
    mask = _rough_mask(w["lo"], w["hi"], u)
    if w["hi"] - w["lo"] != rec["value"] or not (mask[0] and mask[-1]) \
            or mask[1:-1].any():
        bad.append(f"witness {w} is not a gap of {rec['value']} between rough integers")
    return bad


def check_rough(rec: dict, u: int, lo: int, hi: int) -> list[str]:
    want = _first_max_gap(lo, _rough_mask(lo, hi, u))
    got = (rec["gap"], rec["lo"], rec["hi"])
    bad = [] if got == want else [f"rough_gap_scan {got} != {want}"]
    if rec["gap"] > PUBLISHED_J[u]:
        bad.append(f"gap {rec['gap']} exceeds J({u}) = {PUBLISHED_J[u]}")
    return bad


def check_scan(stdout: str, x: int, qmin: int, qmax: int, top: int) -> list[str]:
    """Rows are the top progressions by deficit, each count re-measured."""
    rows = json.loads(stdout)
    got = [(r["q"], r["b"], r["count"], Fraction(r["delta"]["num"], r["delta"]["den"]))
           for r in rows]
    primes = primes_upto(x)
    ranked = []
    for q in range(max(2, qmin), min(qmax, x - 1) + 1):
        counts = np.bincount(primes % q, minlength=q)
        phi = totient(q)
        ranked += [(Fraction(int(counts[b]) * phi, x), q, b, int(counts[b]))
                   for b in range(1, q) if math.gcd(b, q) == 1]
    ranked.sort()
    want = [(q, b, c, d) for d, q, b, c in ranked[:top]]
    bad = [] if got == want else [f"scan rows {got[:3]}... != {want[:3]}..."]
    for q, b, count, delta in got:
        n = count_ap(x, q, b)
        if n != count or delta != Fraction(n * totient(q), x):
            bad.append(f"row ({q}, {b}): count {count}, counter says {n}")
    return bad
