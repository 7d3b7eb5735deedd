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

import logging
import math
from decimal import Decimal, localcontext
from typing import Iterable, Optional

from .arith import (
    PROVEN_LIMIT,
    _crt,
    _divmod,
    _prime_inverses,
    _product_tree,
    _tree_mod,
    factorize,
)
from .config import DEFAULT, Config
from .errors import (
    BadProgression,
    DomainError,
    GapforgeError,
    InsufficientPrimes,
    InvalidCertificate,
    Overflow,
    ResourceLimit,
)
from .model import (
    ClassKind,
    CoveringCertificate,
    CrtWitness,
    Rational,
    ResidueClass,
    ScenarioResult,
    VerificationReport,
)
from .sieve import first_non_prime, prime_count_ap, primes_in_range, primes_up_to

logger = logging.getLogger(__name__)

_U64_MAX = 2**64 - 1


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
        if hi > 2 * _U64_MAX:
            raise Overflow("u exceeds the 64-bit range")
    lo = 3
    while lo < hi:
        mid = (lo + hi) // 2
        if _ratio_ok(mid, lhs_factor, log_factor):
            hi = mid
        else:
            lo = mid + 1
    u = max(u_sq, lo)
    if u > _U64_MAX:
        raise Overflow("u exceeds the 64-bit range")
    return u


def forced_classes(u: int, q: int, b: int) -> list[ResidueClass]:
    """The unique class killing the progression mod p, for each p <= u/2, p not dividing q.

    a_p solves q * a_p + b == 0 (mod p).
    """
    if u < 3:
        raise ValueError("need u >= 3")
    if math.gcd(b, q) != 1:
        raise ValueError(f"need gcd(b, q) = 1, got gcd = {math.gcd(b, q)}")
    primes = [p for p in primes_up_to(u // 2) if q % p]
    inverses = _prime_inverses([q % p for p in primes], primes)
    return [
        ResidueClass(p, (-b) * inv % p, ClassKind.FORCED)
        for p, inv in zip(primes, inverses)
    ]


def _strike(y: int, residues: Iterable[int], moduli: Iterable[int]) -> bytearray:
    """Flags over [0, y], set at each n == a (mod p) for the paired (a, p).

    Moduli below 2 strike nothing; the callers check the budget for y.
    """
    flags = bytearray(y + 1)
    for a, p in zip(residues, moduli):
        if p >= 2:
            start = a % p
            if start <= y:
                flags[start::p] = b"\x01" * ((y - start) // p + 1)
    return flags


def sieve_survivors(
    y: int, forced: list[ResidueClass], *, config: Optional[Config] = None
) -> list[int]:
    """Ascending n in [0, y] avoiding every forced class."""
    cfg = config or DEFAULT
    if y < 0:
        raise ValueError("need y >= 0")
    if y + 1 > cfg.memory_budget:
        raise ResourceLimit(f"survivor sieve over [0, {y}] exceeds the memory budget")
    seen = set()
    for cls in forced:
        if cls.p in seen:
            raise ValueError(f"duplicate forced prime {cls.p}")
        seen.add(cls.p)
    flags = _strike(y, (c.a for c in forced), (c.p for c in forced))
    return [n for n in range(y + 1) if not flags[n]]


def best_residue(survivors: list[int], p: int) -> tuple[int, int]:
    """Residue mod p hitting the most survivors; ties take the smallest.

    Returns (residue, hit count); an empty survivor list gives (0, 0).
    """
    if not survivors:
        return 0, 0
    counts: dict[int, int] = {}
    for n in survivors:
        r = n % p
        counts[r] = counts.get(r, 0) + 1
    top = max(counts.values())
    return min(r for r, c in counts.items() if c == top), top


def greedy_cover(
    survivors: list[int], q: int, u: int
) -> tuple[list[ResidueClass], list[int]]:
    """Greedily cover survivors with one class per prime p | q, p <= u/2.

    Primes are taken in ascending order; each step picks the residue hitting
    the most remaining survivors (covering at least a 1/p share).  The at
    most one prime factor of q above u/2 is skipped.  Returns the chosen
    classes and the still-uncovered survivors.
    """
    if any(a >= b for a, b in zip(survivors, survivors[1:])):
        raise ValueError("survivors must be ascending and distinct")
    classes = []
    remaining = list(survivors)
    for p, _ in factorize(q):
        if 2 * p > u:
            continue
        a, _hits = best_residue(remaining, p)
        classes.append(ResidueClass(p, a, ClassKind.GREEDY))
        remaining = [n for n in remaining if n % p != a]
    return classes, remaining


def match_large_primes(remaining: list[int], u: int) -> list[ResidueClass]:
    """Pair leftover survivors with distinct fresh primes in (u/2, u].

    The i-th survivor (ascending) gets the i-th fresh prime (ascending) and
    the class n mod p aimed straight at it.  Raises InsufficientPrimes when
    the fresh primes run out, reporting whether the sufficient condition
    |N'| <= u / (5 ln u) held.
    """
    if any(a >= b for a, b in zip(remaining, remaining[1:])):
        raise ValueError("remaining survivors must be ascending and distinct")
    if not remaining:
        return []
    fresh = primes_in_range(u // 2, u)
    if len(remaining) > len(fresh):
        holds = len(remaining) * 5 * math.log(u) <= u
        raise InsufficientPrimes(len(remaining), len(fresh), holds)
    return [
        ResidueClass(p, n % p, ClassKind.MATCHED)
        for n, p in zip(remaining, fresh)
    ]


def _construct(
    x: int, q: int, b: int, delta: Optional[Rational], cfg: Config
) -> CoveringCertificate:
    """The construction for (x, q, b), unverified; a delta of None is measured.

    Checks the progression, measures delta exactly from the primes if it is
    not given, then runs compute_u, forced_classes, sieve_survivors,
    greedy_cover and match_large_primes.
    """
    if not 0 < b < q < x:
        raise BadProgression(f"need 0 < b < q < x, got b={b}, q={q}, x={x}")
    if math.gcd(b, q) != 1:
        raise BadProgression(f"gcd({b}, {q}) > 1")
    if delta is None:
        delta = prime_count_ap(x, q, b, config=cfg).delta
    u = compute_u(x, q, delta)
    y = (x - b) // q
    forced = forced_classes(u, q, b)
    survivors = sieve_survivors(y, forced, config=cfg)
    greedy, remaining = greedy_cover(survivors, q, u)
    matched = match_large_primes(remaining, u)
    return CoveringCertificate(
        x=x,
        q=q,
        b=b,
        delta=delta,
        u=u,
        y=y,
        classes=tuple(forced + greedy + matched),
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
    through require_verified, and a matching step that ran past the
    sufficient condition |N'| <= u/(5 ln u) is logged as a warning.
    Deterministic: identical arguments give byte-identical certificates.
    """
    cfg = config or DEFAULT
    cert = _construct(x, q, b, delta_override, cfg)
    if cert.survivors_after_greedy * 5 * math.log(cert.u) > cert.u:
        logger.warning(
            "matching %d survivors at u=%d: the sufficient condition "
            "|N'| <= u/(5 ln u) fails, proceeding on the actual prime supply",
            cert.survivors_after_greedy,
            cert.u,
        )
    require_verified(cert, config=cfg)
    return cert


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
    """
    cfg = config or DEFAULT
    report = VerificationReport()
    primes = [c.p for c in cert.classes]
    report.add(
        "class_primes_distinct",
        len(set(primes)) == len(primes),
        "" if len(set(primes)) == len(primes) else "a modulus repeats",
    )
    # one sieve of the verifier's own proves the moduli when it fits the budget
    bad_prime = first_non_prime(primes, config=cfg)
    if bad_prime is None:
        prime_detail = ""
    elif bad_prime >= PROVEN_LIMIT:
        prime_detail = (
            f"p={bad_prime} is at or above 2**64, where primality is unproven"
        )
    else:
        prime_detail = f"p={bad_prime} is not prime"
    report.add("class_primes_prime", bad_prime is None, prime_detail)
    over = next((p for p in primes if p > cert.u), None)
    report.add(
        "class_primes_at_most_u",
        over is None,
        "" if over is None else f"p={over} exceeds u={cert.u}",
    )
    bad_res = next((c for c in cert.classes if not 0 <= c.a < c.p), None)
    report.add(
        "residues_in_range",
        bad_res is None,
        "" if bad_res is None else f"a={bad_res.a} outside [0, {bad_res.p})",
    )
    placement = ""
    for c in cert.classes:
        if c.p < 2:
            placement = f"{c.kind.value} p={c.p} is below 2"
        elif c.kind is ClassKind.MATCHED:
            if 2 * c.p <= cert.u:
                placement = f"matched p={c.p} is not above u/2"
        elif 2 * c.p > cert.u:
            placement = f"{c.kind.value} p={c.p} is above u/2"
        elif c.kind is ClassKind.GREEDY and cert.q % c.p != 0:
            placement = f"greedy p={c.p} does not divide q"
        elif c.kind is ClassKind.FORCED and cert.q % c.p == 0:
            placement = f"forced p={c.p} divides q"
        if placement:
            break
    report.add("kind_placement", not placement, placement)
    y_ok = cert.q > 0 and cert.y == (cert.x - cert.b) // cert.q
    report.add(
        "y_matches",
        y_ok,
        "" if y_ok else f"y={cert.y} but floor((x-b)/q) disagrees",
    )
    u_ok = cert.u * cert.u > 4 * cert.x
    report.add("u_exceeds_2sqrt", u_ok, "" if u_ok else f"u^2 <= 4x at u={cert.u}")
    if cert.y < 0:
        report.add("covers_range", False, f"y={cert.y} is negative")
    elif cert.y + 1 > cfg.memory_budget:
        report.add("covers_range", False, "coverage check exceeds the memory budget")
    else:
        gap = _strike(cert.y, (c.a for c in cert.classes), primes).find(0)
        report.add(
            "covers_range",
            gap == -1,
            "" if gap == -1 else f"n={gap} is covered by no class",
        )

    if not strict:
        return report

    def of_kind(classes, kind: ClassKind) -> list[ResidueClass]:
        return [c for c in classes if c.kind is kind]

    forced = of_kind(cert.classes, ClassKind.FORCED)
    bad_cong = next(
        (c for c in forced if c.p < 2 or (cert.q * c.a + cert.b) % c.p != 0),
        None,
    )
    report.add(
        "forced_congruence",
        bad_cong is None,
        ""
        if bad_cong is None
        else f"q*a+b != 0 mod {bad_cong.p} for a={bad_cong.a}",
    )
    try:
        measured = prime_count_ap(cert.x, cert.q, cert.b, config=cfg).delta
        hypothesis = (
            measured <= cert.delta, f"measured {measured}, recorded {cert.delta}"
        )
    except (GapforgeError, ValueError) as exc:
        hypothesis = (False, str(exc))
    try:
        rebuilt = _construct(cert.x, cert.q, cert.b, cert.delta, cfg)
    except (GapforgeError, ValueError) as exc:
        report.add("delta_hypothesis", *hypothesis)
        report.add("pipeline_re_run", False, str(exc))
        return report
    same = set(forced) == set(of_kind(rebuilt.classes, ClassKind.FORCED))
    report.add(
        "forced_classes_match",
        same,
        "" if same else "forced classes differ from re-derivation",
    )
    report.add("delta_hypothesis", *hypothesis)
    report.add(
        "u_matches_recompute",
        rebuilt.u == cert.u,
        "" if rebuilt.u == cert.u else f"recomputed u={rebuilt.u}, recorded {cert.u}",
    )
    counts = (rebuilt.survivors_initial, rebuilt.survivors_after_greedy)
    recorded = (cert.survivors_initial, cert.survivors_after_greedy)
    report.add(
        "survivor_accounting",
        counts == recorded,
        f"|N|={counts[0]} recorded {recorded[0]}; "
        f"|N'|={counts[1]} recorded {recorded[1]}",
    )
    for kind, check in (
        (ClassKind.GREEDY, "greedy_classes_match"),
        (ClassKind.MATCHED, "matched_classes_match"),
    ):
        same = of_kind(rebuilt.classes, kind) == of_kind(cert.classes, kind)
        report.add(
            check,
            same,
            "" if same else f"{kind.value} classes differ from deterministic re-run",
        )
    return report


def crt_witness(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> CrtWitness:
    """Concrete T with T + n divisible by a class prime for all n in [0, y].

    Verifies the certificate once, raising InvalidCertificate on any failure,
    then builds T with witness_of_verified: the classes that kill b mod q
    solve as the one congruence q*T == b (mod P_S), a small CRT combines
    the others, and P_S must divide q*T - b before T is returned.
    """
    cfg = config or DEFAULT
    require_verified(cert, config=cfg)
    return witness_of_verified(cert)[0]


def require_verified(
    cert: CoveringCertificate, *, config: Optional[Config] = None
) -> None:
    """Run verify_certificate once and raise InvalidCertificate on any failure."""
    report = verify_certificate(cert, config=config)
    if not report.ok:
        raise InvalidCertificate(
            "; ".join(f"{e.check}: {e.detail}" for e in report.failures)
        )


def witness_of_verified(
    cert: CoveringCertificate,
) -> tuple[CrtWitness, list[int]]:
    """The CRT witness of a verified certificate, and T mod each class prime.

    The certificate must have passed verify_certificate.  T solves
    T == -a_p (mod p) over every class.  A class with p not dividing q and
    q*a_p + b == 0 (mod p), whatever its kind, is shared: together the
    shared classes are the one congruence q*T == b (mod P_S), where P_S is
    their product from one product tree.  It is solved by one inverse mod
    q and one exact division by q, with no tree division.  _crt combines
    only the other classes, the rest: one division of P_S by q*P_R, with
    P_R the rest's product, gives P_S and T_S mod each rest prime, and the
    steps k_p = (-a_p - T_S) / P_S mod p make T = T_S + P_S*k.  A T of 0 is
    shifted up by one period so the witness run sits strictly inside the
    positive integers.  _covered_residues then checks T.
    """
    q, b = cert.q, cert.b
    shared = [q % c.p != 0 and (q * c.a + b) % c.p == 0 for c in cert.classes]
    rest = [c for c, s in zip(cert.classes, shared) if not s]
    rest_p = [c.p for c in rest]
    shared_p = [c.p for c, s in zip(cert.classes, shared) if s]
    # with no shared class P_S = 1; with no rest class nothing reads the tree
    P_S = _product_tree(shared_p or [1])[-1][0]
    tree = _product_tree(rest_p or [1])
    # q divides b + k*P_S; the quotient W is b/q mod P_S, and T_S = W mod P_S
    k = -b * pow(P_S % q, -1, q) % q
    m, T = divmod((b + k * P_S) // q, P_S)
    P = P_S
    if rest:
        # V == P_S (mod q*P_R), so W == ((b + k*V) mod q*P_R)/q and
        # T = W - m*P_S == W - m*V (mod P_R)
        qP_R = q * tree[-1][0]
        V = _divmod(P_S, qP_R)[1]
        inverses = _prime_inverses(_tree_mod(V, tree), rest_p)
        T_R = (b + k * V) % qP_R // q - m * V
        steps = [
            (-c.a - t) * inv % c.p
            for c, t, inv in zip(rest, _tree_mod(T_R, tree), inverses)
        ]
        combined = _crt(rest_p, steps)[0]
        T += P_S * combined.T
        P *= combined.P
    if T == 0:
        T += P
    return CrtWitness(T=T, P=P), _covered_residues(cert, shared, P_S, tree, T)


def _covered_residues(
    cert: CoveringCertificate,
    shared: list[bool],
    P_S: int,
    tree: list[list[int]],
    T: int,
) -> list[int]:
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
    rest_residues = iter(_tree_mod(T, tree))
    residues = [
        (-c.a) % c.p if s else next(rest_residues)
        for c, s in zip(cert.classes, shared)
    ]
    primes = (c.p for c in cert.classes)
    miss = _strike(cert.y, (-r for r in residues), primes).find(0)
    if miss != -1:
        raise InvalidCertificate(f"gcd(T+{miss}, P) = 1; witness is not covered")
    return residues


def scenario_bound(log_q: float, delta: float, B: float) -> ScenarioResult:
    """Evaluate the exceptional-zero gap bound in log space.

    Pure arithmetic on the asymptotic forms: log_x = B log q,
    u ~ delta * x * log x / q, and the bound u / (delta log u); nothing is
    constructed.  Raises DomainError outside log_q > 0, 0 < delta < 1, B > 1
    or when the implied u drops to 1 or below (iterated log undefined).
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
    return ScenarioResult(
        log_q=log_q,
        delta=delta,
        B=B,
        log_x=log_x,
        log_u=log_u,
        log_gap_bound=log_gap_bound,
    )
