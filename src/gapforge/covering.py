"""The covering-system pipeline.

Turns a measured prime deficit in a progression b mod q into an explicit,
machine-checkable set of residue classes a_p mod p (one per prime p <= u)
covering every integer in [0, y], y = floor((x - b)/q).  Each stage is
exposed on its own so any step can be re-checked independently; the
verifier re-derives everything a certificate claims.

Also hosts the log-space scenario calculator for parameter regimes far
beyond anything constructible.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from typing import Callable, Optional

import numpy as np

from .arith import (
    COLUMN_LIMIT,
    PROVEN_LIMIT,
    _crt,
    _divmod,
    _prime_inverses,
    _product_tree,
    _tree_mod,
    factorize,
)
from .config import Config
from .errors import (
    DomainError,
    GapforgeError,
    InsufficientPrimes,
    InvalidCertificate,
    Overflow,
    ResourceLimit,
)
from .model import (
    FORCED,
    GREEDY,
    KINDS,
    MATCHED,
    ClassTable,
    CoveringCertificate,
    CrtWitness,
    Rational,
    ScenarioResult,
    VerificationReport,
)
from .sieve import (
    _context,
    _mod,
    _prime_array,
    _prime_range,
    _PrimeTable,
    _strike,
    _validate_count,
    _validate_progression,
    first_non_prime,
    prime_count_ap,
)


def _ratio_ok(u: int, lhs_factor: int, log_factor: int) -> bool:
    """Decide u * lhs_factor >= log_factor * ln(u) without rounding doubt.

    Fast float path with an error band; ambiguous comparisons re-run under
    Decimal at increasing precision.  Exact ties cannot occur (ln of an
    integer >= 2 is irrational), so the loop always terminates.
    """
    if log_factor <= 0:
        return True
    lhs = u * lhs_factor
    try:
        approx = log_factor * math.log(u)
        if lhs > approx * (1 + 1e-12):
            return True
        if lhs < approx * (1 - 1e-12):
            return False
    except OverflowError:
        pass
    prec = 50
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            rhs = Decimal(log_factor) * Decimal(u).ln()
            band = Decimal(10) ** (rhs.adjusted() - prec + 2)
            if Decimal(lhs) > rhs + band:
                return True
            if Decimal(lhs) < rhs - band:
                return False
        prec *= 2


def _condition_holds(n: int, u: int) -> bool:
    """The sufficient condition n <= u/(5 ln u) on |N'| = n, decided exactly."""
    return _ratio_ok(u, 1, 5 * n)


def compute_u(x: int, q: int, delta: Rational) -> int:
    """Least integer u with u^2 > 4x and u / ln(u) >= 10 * delta * x / q.

    The square condition is checked in exact integers; the ratio condition
    compares u * q * delta.den against 10 * delta.num * x * ln(u) with a
    precision guard, so boundary values never depend on float rounding.
    """
    if not x > q >= 1:
        raise ValueError(f"need x > q >= 1, got x={x}, q={q}")
    if not Rational(0) <= delta <= Rational(1):
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    u_sq = math.isqrt(4 * x) + 1
    if delta.num == 0:
        return u_sq
    lhs_factor = q * delta.den
    log_factor = 10 * delta.num * x
    hi = max(4, u_sq)
    while not _ratio_ok(hi, lhs_factor, log_factor):
        hi *= 2
        if hi >= 2 * PROVEN_LIMIT:
            raise Overflow("u exceeds the 64-bit range")
    lo = 3
    while lo < hi:
        mid = (lo + hi) // 2
        if _ratio_ok(mid, lhs_factor, log_factor):
            hi = mid
        else:
            lo = mid + 1
    # u's primes are proven by is_prime, so u stays below PROVEN_LIMIT
    u = max(u_sq, lo)
    if u >= PROVEN_LIMIT:
        raise Overflow("u exceeds the 64-bit range")
    return u


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _first_repeat(p: np.ndarray) -> Optional[int]:
    """Index of the first entry equal to an earlier one, or None."""
    order = np.argsort(p, kind="stable")
    ordered = p[order]
    later = order[1:][ordered[1:] == ordered[:-1]]
    return int(later.min()) if later.size else None


def forced_classes(
    u: int, q: int, b: int, *, config: Optional[Config] = None
) -> ClassTable:
    """The unique class killing the progression mod p, for each p <= u/2, p not dividing q.

    a_p solves q * a_p + b == 0 (mod p).  Raises BadProgression as the
    count does, and ResourceLimit, before it allocates, when the primes up
    to u/2 exceed the memory budget.  Given the caller's table, it solves
    only the primes past those whose roots the table holds for the same q
    and b.
    """
    table = _context(config)
    if u < 3:
        raise ValueError("need u >= 3")
    _validate_progression(q, b)
    _prime_array(u // 2, table)  # the budget check, before the roots list any prime
    return ClassTable(*table.roots(u // 2, q, b), FORCED)


def sieve_survivors(
    y: int, forced: ClassTable, *, config: Optional[Config] = None
) -> np.ndarray:
    """Ascending n in [0, y] avoiding every forced class, as an int64 column."""
    if y < 0:
        raise ValueError("need y >= 0")
    if y + 1 > _context(config).cfg.memory_budget:
        raise ResourceLimit(f"survivor sieve over [0, {y}] exceeds the memory budget")
    repeat = _first_repeat(forced.p)
    if repeat is not None:
        raise ValueError(f"duplicate forced prime {forced.p[repeat]}")
    return np.flatnonzero(~_strike(y, forced.a, forced.p))


def _ascending(survivors, name: str) -> np.ndarray:
    """survivors as an int64 column; ValueError unless ascending and distinct."""
    column = np.asarray(survivors, dtype=np.int64)
    if np.any(column[1:] <= column[:-1]):
        raise ValueError(f"{name} must be ascending and distinct")
    return column


def best_residue(survivors: np.ndarray, p: int) -> tuple[int, int]:
    """Residue mod p hitting the most survivors; ties take the smallest.

    Returns (residue, hit count); no survivors give (0, 0).  The residues
    are counted as runs of their sorted column, so nothing of size p is
    allocated.
    """
    residues = np.sort(np.asarray(survivors, dtype=np.int64) % p)
    if not residues.size:
        return 0, 0
    starts = np.flatnonzero(np.append(True, residues[1:] != residues[:-1]))
    runs = np.diff(np.append(starts, residues.size))
    top = int(np.argmax(runs))  # the first longest run has the smallest residue
    return int(residues[starts[top]]), int(runs[top])


def greedy_cover(survivors, q: int, u: int) -> tuple[ClassTable, np.ndarray]:
    """Greedily cover survivors with one class per prime p | q, p <= u/2.

    Primes are taken in ascending order; each step picks the residue hitting
    the most remaining survivors (covering at least a 1/p share).  The at
    most one prime factor of q above u/2 is skipped.  survivors is an
    ascending int64 column or list; returns the chosen classes and the
    still-uncovered survivors as an int64 column.
    """
    remaining = _ascending(survivors, "survivors")
    primes, residues = [], []
    for p, _ in factorize(q):
        if 2 * p > u:
            continue
        a, _hits = best_residue(remaining, p)
        primes.append(p)
        residues.append(a)
        remaining = remaining[remaining % p != a]
    return ClassTable(primes, residues, GREEDY), remaining


def match_large_primes(
    remaining, u: int, *, config: Optional[Config] = None
) -> ClassTable:
    """Pair leftover survivors with distinct fresh primes in (u/2, u].

    remaining is an ascending int64 column or list.  The i-th survivor gets
    the i-th fresh prime (ascending) and the class n mod p aimed straight
    at it.  Raises InsufficientPrimes when the fresh primes run out,
    reporting whether the sufficient condition |N'| <= u / (5 ln u) held.
    """
    remaining = _ascending(remaining, "remaining survivors")
    if not remaining.size:
        return ClassTable([], [], MATCHED)
    fresh = _prime_range(u // 2, u, _context(config))
    if remaining.size > fresh.size:
        raise InsufficientPrimes(remaining.size, fresh.size,
                                 _condition_holds(remaining.size, u))
    fresh = fresh[: remaining.size]
    return ClassTable(fresh, remaining % fresh, MATCHED)


def _construct(
    x: int, q: int, b: int, delta: Optional[Rational], table: _PrimeTable
) -> CoveringCertificate:
    """The construction for (x, q, b), unverified; a delta of None is measured.

    Checks the progression, measures delta exactly from the primes if it is
    not given, then runs compute_u, forced_classes, sieve_survivors,
    greedy_cover and match_large_primes, every prime and root from the one
    table: the forced classes solve no root the count solved.
    """
    _validate_count(x, q, b)
    if delta is None:
        delta = prime_count_ap(x, q, b, config=table).delta
    u = compute_u(x, q, delta)
    y = (x - b) // q
    forced = forced_classes(u, q, b, config=table)
    survivors = sieve_survivors(y, forced, config=table)
    greedy, remaining = greedy_cover(survivors, q, u)
    matched = match_large_primes(remaining, u, config=table)
    return CoveringCertificate(
        x=x,
        q=q,
        b=b,
        delta=delta,
        u=u,
        y=y,
        classes=ClassTable.concat(forced, greedy, matched),
        survivors_initial=len(survivors),
        survivors_after_greedy=len(remaining),
    )


def build_certificate(
    x: int,
    q: int,
    b: int,
    delta_override: Optional[Rational] = None,
    *,
    config: Optional[Config] = None,
) -> CoveringCertificate:
    """Run the whole construction for (x, q, b) and self-check the result.

    delta is measured exactly from the primes unless an override is given
    (the override explores the construction under a hypothetical deficit).
    The certificate then passes the structural verify_certificate checks
    through _require_verified.  A matching step past the sufficient
    condition |N'| <= u/(5 ln u) proceeds on the actual prime supply, and
    the cover command says so on stderr; the library writes nothing.
    Deterministic: identical arguments give byte-identical certificates.
    One prime table serves the count, the construction and the check.
    """
    table = _context(config)
    cert = _construct(x, q, b, delta_override, table)
    _require_verified(cert, table)
    return cert


def _first_failure(mask: np.ndarray, detail: Callable[[int], str]) -> str:
    """detail(i) at the first True index i of mask, or "" when there is none."""
    i = _first(mask)
    return "" if i is None else detail(i)


def verify_certificate(
    cert: CoveringCertificate, strict: bool = False, *, config: Optional[Config] = None
) -> VerificationReport:
    """Check a certificate and report every failure; never raises.

    Structural checks re-examine what the certificate states: distinct prime
    moduli, kind placement, y and u consistency, and complete coverage of
    [0, y].  strict additionally checks the forced congruences, re-measures
    the prime count behind delta, and rebuilds the certificate from
    (x, q, b) with the recorded delta, unverified, then diffs u, the forced
    classes (as a set), both survivor counts, and the greedy and matched
    classes (as lists); a rebuild that raises is one pipeline_re_run
    failure.  Any tampering with a pipeline-produced certificate shows up.
    One prime table, the caller's when config is one, serves the primality
    proof, the count and the rebuild, which solves no root the count
    solved; it lets its primes go once they have proven the class primes,
    before the coverage check allocates, or when strict after the rebuild.
    """
    table = _context(config)
    report = VerificationReport()

    def check(name: str, failure: str) -> None:
        report.add(name, not failure, failure)

    classes = cert.classes
    p, a, kind = classes.p, classes.a, classes.kind
    check("class_primes_distinct", "" if _first_repeat(p) is None else "a modulus repeats")
    # one sieve of the verifier's own proves the moduli when it fits the budget
    bad_prime = first_non_prime(p, config=table)
    if not strict:
        table.release()
    check("class_primes_prime", "" if bad_prime is None else f"p={bad_prime} " + (
        "is at or above 2**64, where primality is unproven"
        if bad_prime >= PROVEN_LIMIT else "is not prime"))
    check("class_primes_at_most_u",
          _first_failure(p > cert.u, lambda i: f"p={p[i]} exceeds u={cert.u}"))
    check("residues_in_range",
          _first_failure((a < 0) | (a >= p), lambda i: f"a={a[i]} outside [0, {p[i]})"))
    # p below 2 divides nothing: 1 stands in for it wherever p divides
    low = p < 2
    divisor = np.where(low, 1, p)
    above = 2 * divisor > cert.u
    divides_q = _mod(cert.q, divisor) == 0
    is_forced, is_greedy, is_matched = (kind == code for code in (FORCED, GREEDY, MATCHED))
    # a misplaced class is told by the first rule it breaks
    placement = (
        (low, "{kind} p={p} is below 2"),
        (is_matched & ~above, "matched p={p} is not above u/2"),
        (~is_matched & above, "{kind} p={p} is above u/2"),
        (is_greedy & ~divides_q, "greedy p={p} does not divide q"),
        (is_forced & divides_q, "forced p={p} divides q"),
    )
    check("kind_placement", _first_failure(
        np.logical_or.reduce([broken for broken, _ in placement]),
        lambda i: next(text for broken, text in placement if broken[i]).format(
            kind=KINDS[kind[i]], p=p[i]),
    ))
    check("y_matches",
          "" if cert.q > 0 and cert.y == (cert.x - cert.b) // cert.q
          else f"y={cert.y} but floor((x-b)/q) disagrees")
    check("u_exceeds_2sqrt",
          "" if cert.u * cert.u > 4 * cert.x else f"u^2 <= 4x at u={cert.u}")
    if cert.y < 0:
        check("covers_range", f"y={cert.y} is negative")
    elif cert.y + 1 > table.cfg.memory_budget:
        check("covers_range", "coverage check exceeds the memory budget")
    else:
        check("covers_range", _first_failure(
            ~_strike(cert.y, a, p), "n={} is covered by no class".format))

    if not strict:
        return report

    forced = classes.select(is_forced)
    check("forced_congruence", _first_failure(
        low[is_forced] | (_kills(cert.q, cert.b, forced.a, divisor[is_forced]) != 0),
        lambda i: f"q*a+b != 0 mod {forced.p[i]} for a={forced.a[i]}",
    ))
    try:
        stats = prime_count_ap(cert.x, cert.q, cert.b, config=table)
        hypothesis = (
            stats.delta <= cert.delta, f"measured {stats.delta}, recorded {cert.delta}"
        )
    except (GapforgeError, ValueError) as exc:
        hypothesis = (False, str(exc))
    try:
        rebuilt = _construct(cert.x, cert.q, cert.b, cert.delta, table)
    except (GapforgeError, ValueError) as exc:
        report.add("delta_hypothesis", *hypothesis)
        # a failure whatever the exception's text
        report.add("pipeline_re_run", False, str(exc))
        return report
    table.release()  # the rebuild took the last primes
    redone = rebuilt.classes
    check("forced_classes_match",
          "" if _same_pairs(forced, redone.select(redone.kind == FORCED))
          else "forced classes differ from re-derivation")
    report.add("delta_hypothesis", *hypothesis)
    check("u_matches_recompute",
          "" if rebuilt.u == cert.u else f"recomputed u={rebuilt.u}, recorded {cert.u}")
    counts = (rebuilt.survivors_initial, rebuilt.survivors_after_greedy)
    recorded = (cert.survivors_initial, cert.survivors_after_greedy)
    report.add(
        "survivor_accounting",
        counts == recorded,
        f"|N|={counts[0]} recorded {recorded[0]}; "
        f"|N'|={counts[1]} recorded {recorded[1]}",
    )
    for code in (GREEDY, MATCHED):
        check(f"{KINDS[code]}_classes_match",
              "" if classes.select(kind == code) == redone.select(redone.kind == code)
              else f"{KINDS[code]} classes differ from deterministic re-run")
    return report


def _kills(q: int, b: int, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(q*a + b) mod p for each class; every p >= 1."""
    return (_mod(q, p) * (a % p) + _mod(b, p)) % p


def _same_pairs(one: ClassTable, other: ClassTable) -> bool:
    """Whether the two tables hold the same set of (p, a) pairs."""
    if object in (one.p.dtype, other.p.dtype):
        return set(zip(one.p.tolist(), one.a.tolist())) == set(
            zip(other.p.tolist(), other.a.tolist()))

    def pair_set(t: ClassTable) -> np.ndarray:
        # one int64 key per pair, injective on [-2**31, 2**31)**2, sorted and
        # deduplicated by hand: np.unique imports numpy.ma (~15 ms, ~1 MB)
        keys = np.sort(t.p * 2**32 + (t.a + COLUMN_LIMIT))
        return keys[np.append(True, keys[1:] != keys[:-1])[: keys.size]]

    return bool(np.array_equal(pair_set(one), pair_set(other)))


def crt_witness(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> CrtWitness:
    """Concrete T with T + n divisible by a class prime for all n in [0, y].

    Verifies the certificate once, raising InvalidCertificate on any failure,
    then builds T and its period P with witness_of_verified: the classes
    that kill b mod q solve as the one congruence q*T == b (mod P_S), a
    small CRT combines the others, and P_S must divide q*T - b before T is
    returned.
    """
    _require_verified(cert, config)
    T, P, _ = witness_of_verified(cert)
    return CrtWitness(T=T, P=P)


def _require_verified(cert: CoveringCertificate, config) -> None:
    """Run verify_certificate once, config as for it, and raise
    InvalidCertificate on any failure."""
    report = verify_certificate(cert, config=config)
    if not report.ok:
        raise InvalidCertificate(
            "; ".join(f"{e.check}: {e.detail}" for e in report.failures)
        )


def witness_of_verified(
    cert: CoveringCertificate, *, product: bool = True
) -> tuple[int, Optional[int], np.ndarray]:
    """The CRT witness T of a verified certificate, its period P, and T mod
    each class prime as a column of the class primes' dtype.

    The certificate must have passed verify_certificate.  T solves
    T == -a_p (mod p) over every class.  A class with p not dividing q and
    q*a_p + b == 0 (mod p), whatever its kind, is shared: together the
    shared classes are the one congruence q*T == b (mod P_S), where P_S is
    their product from one product tree.  It is solved by one inverse mod
    q and one exact division by q, with no tree division.  _crt combines
    only the other classes, the rest: one division of P_S by q*P_R, with
    P_R the rest's product, gives V == P_S (mod q*P_R), whose residues V_p
    give each rest prime's T_S mod p, and the steps
    k_p = (-a_p - T_S) / P_S mod p make T = T_S + P_S*k.  A T of 0 is
    shifted up by one period so the witness run sits strictly inside the
    positive integers.  _covered_residues then checks T, whatever it was
    built from.

    P = P_S*P_R is multiplied only when product is set, and is None
    otherwise: the gap bound and a witness check with nothing to compare
    read T alone.
    """
    q, b = cert.q, cert.b
    p, a = cert.classes.p, cert.classes.a
    shared = (_mod(q, p) != 0) & (_kills(q, b, a, p) == 0)
    rest_p, rest_a = p[~shared], a[~shared]
    # with no shared class P_S = 1; with no rest class nothing reads the tree
    P_S = _product_tree(p[shared] if shared.any() else [1])[-1][0]
    tree = _product_tree(rest_p if rest_p.size else [1])
    # q divides b + k*P_S; the quotient W is b/q mod P_S, and T_S = W mod P_S
    k = -b * pow(P_S % q, -1, q) % q
    m, T = divmod((b + k * P_S) // q, P_S)
    if rest_p.size:
        # V == P_S (mod q*P_R), so W == ((b + k*V) mod q*P_R)/q and
        # T_S = W - m*P_S == W - m*V (mod P_R).  For p not dividing q that
        # is T_R = (b + k*V_p)/q - m*V_p mod p, from V's residues V_p, with
        # b, k and m reduced mod p so that every int64 product stays below
        # 2**62; for p dividing q it needs W itself
        qP_R = q * tree[-1][0]
        V = _divmod(P_S, qP_R)[1]
        V_p = _tree_mod(V, tree)
        q_p = _mod(q, rest_p)
        divides = q_p == 0
        q_p[divides] = 1
        # one batch inverts q*V_p: times q it is V_p**-1, times V_p q**-1
        inverse = _prime_inverses(q_p * V_p % rest_p, rest_p)
        T_R = (_mod(b, rest_p) + _mod(k, rest_p) * V_p) % rest_p
        T_R = (T_R * (V_p * inverse % rest_p) - _mod(m, rest_p) * V_p) % rest_p
        if divides.any():
            whole = (b + k * V) % qP_R // q - m * V
            T_R[divides] = [whole % d for d in rest_p[divides].tolist()]
        steps = (-rest_a - T_R) % rest_p * (q_p * inverse % rest_p) % rest_p
        T += P_S * _crt(tree, steps)
    # a T of 0 takes P even when the caller reads only T
    P = P_S * tree[-1][0] if product or not T else None
    T = T or P
    return T, P if product else None, _covered_residues(cert, shared, P_S, tree, T)


def _covered_residues(
    cert: CoveringCertificate,
    shared: np.ndarray,
    P_S: int,
    tree: list,
    T: int,
) -> np.ndarray:
    """T mod each class prime, in class order, once T is checked.

    The check reads T, not the values it was built from.  P_S must divide
    q*T - b, one division whose quotient is about q*P_R; that gives
    T mod p = -a_p at each shared class.  T is reduced down the rest's
    product tree.  The walk over all y + 1 offsets through those residues
    is the gcd(T + n, P) > 1 check without materializing y big gcds.
    Raises InvalidCertificate when either part fails.
    """
    if _divmod(cert.q * T - cert.b, P_S)[1]:
        raise InvalidCertificate("q*T - b is not divisible by the shared classes")
    p, a = cert.classes.p, cert.classes.a
    residues = -a % p
    rest = ~shared
    residues[rest] = _tree_mod(T, tree)[: np.count_nonzero(rest)]
    miss = _first_failure(~_strike(cert.y, -residues, p),
                          "gcd(T+{}, P) = 1; witness is not covered".format)
    if miss:
        raise InvalidCertificate(miss)
    return residues


def scenario_bound(log_q: float, delta: float, B: float) -> ScenarioResult:
    """Evaluate the exceptional-zero gap bound in log space.

    Pure arithmetic on the asymptotic forms: log_x = B log q,
    u ~ delta * x * log x / q, and the bound u / (delta log u); nothing is
    constructed.  Raises DomainError outside log_q > 0, 0 < delta < 1, B > 1,
    when the implied u drops to 1 or below (iterated log undefined), or
    when log_x, log_u or the bound overflows a float.
    """
    if not (math.isfinite(log_q) and math.isfinite(delta) and math.isfinite(B)):
        raise DomainError("inputs must be finite")
    if log_q <= 0:
        raise DomainError(f"log_q must be positive, got {log_q}")
    if not 0 < delta < 1:
        raise DomainError(f"delta must lie strictly in (0, 1), got {delta}")
    if B <= 1:
        raise DomainError(f"B must exceed 1, got {B}")
    log_x = B * log_q
    log_u = math.log(delta) + log_x + math.log(log_x) - log_q
    if log_u <= 0:
        raise DomainError(
            f"implied u is at or below 1 (log_u = {log_u:.4g}); scenario is degenerate"
        )
    log_gap_bound = log_u - math.log(delta) - math.log(log_u)
    if not all(map(math.isfinite, (log_x, log_u, log_gap_bound))):
        raise DomainError(
            f"the bound overflows a float (log_x = {log_x}, log_u = {log_u})"
        )
    return ScenarioResult(
        log_q=log_q,
        delta=delta,
        B=B,
        log_x=log_x,
        log_u=log_u,
        log_gap_bound=log_gap_bound,
    )
