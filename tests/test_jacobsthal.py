import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from gapforge import arith, jacobsthal, sieve
from gapforge.arith import primorial
from gapforge.config import Config
from gapforge.covering import build_certificate, crt_witness, verify_certificate
from gapforge.errors import InvalidCertificate, PeriodTooLarge, ResourceLimit
from gapforge.jacobsthal import jacobsthal_bound_from_certificate, jacobsthal_exact
from gapforge.model import (
    FORCED,
    MATCHED,
    ClassTable,
    CoveringCertificate,
    Rational,
    certificate_from_dict,
    certificate_to_dict,
)
from gapforge.sieve import rough_gap_scan

from prime_oracle import small_primes_up_to

# frozen from an independent full-period scan oracle
EXACT_TABLE = {2: 2, 3: 4, 5: 6, 7: 10, 11: 14, 13: 22, 17: 26, 19: 34, 23: 40}


def test_exact_examples():
    assert jacobsthal_exact(2).value == 2
    assert jacobsthal_exact(3).value == 4
    assert jacobsthal_exact(13).value == 22


def test_exact_flags_and_witnesses():
    for u in (2, 3, 5, 7, 11, 13):
        val = jacobsthal_exact(u)
        assert val.exact
        assert val.u == u
        w = val.witness
        assert w.hi - w.lo == val.value
        primes = small_primes_up_to(u)
        assert all(w.lo % p for p in primes)
        assert all(w.hi % p for p in primes)
        assert all(
            any(n % p == 0 for p in primes) for n in range(w.lo + 1, w.hi)
        )


def _assignment_oracle(u):
    """(J(u), least witness lo) over every class assignment c_p, p <= u.

    lo == -c_p (mod p) for each p, so offset i of lo is struck by p exactly
    when i == c_p (mod p): lo is rough when no c_p is 0, and its gap then
    ends at the first offset no class strikes.  lo comes from the CRT by
    pow, so neither the covering search nor the sieve kernel is used.
    """
    primes = [k for k in range(2, u + 1) if all(k % d for d in range(2, k))]
    period = math.prod(primes)
    best = (0, 0)
    for cs in itertools.product(*(range(p) for p in primes)):
        if 0 in cs:
            continue
        gap = 1
        while any(gap % p == c for p, c in zip(primes, cs)):
            gap += 1
        lo = sum(-c * (period // p) * pow(period // p, -1, p)
                 for p, c in zip(primes, cs)) % period
        if gap > best[0] or (gap == best[0] and lo < best[1]):
            best = (gap, lo)
    return best


def test_exact_agrees_with_assignment_oracle():
    # 2,310 assignments at u = 11; a composite u has the primes below it
    for u in range(2, 13):
        gap, lo = _assignment_oracle(u)
        val = jacobsthal_exact(u)
        assert (val.value, val.witness.lo, val.witness.hi) == (gap, lo, lo + gap), u


def test_exact_runs_no_sieve_pass(monkeypatch):
    # the covering search takes the primes up to 23 from the sieve
    # module's table, and nothing else from the sieve
    def no_pass(*args):
        raise AssertionError("a sieve kernel pass ran")

    monkeypatch.setattr(sieve, "_segments", no_pass)
    val = jacobsthal_exact(23)
    assert (val.value, val.witness.lo, val.witness.hi) == (40, 20332471, 20332511)


def test_exact_agrees_with_rough_scan_oracle(rough_gap_oracle):
    # a pure-Python bytearray scan of the whole period, which shares no
    # code with the covering search
    for u in range(2, 14):
        period = primorial(u)
        gap, lo, hi = rough_gap_oracle(u, 1, period + 2)
        val = jacobsthal_exact(u)
        assert val.value == gap, u
        assert (val.witness.lo, val.witness.hi) == (lo, hi), u


def test_exact_monotone_in_u():
    values = [jacobsthal_exact(u).value for u in range(2, 14)]
    assert values == sorted(values)
    assert all(a <= b for a, b in zip(values, values[1:]))
    table_values = [EXACT_TABLE[u] for u in sorted(EXACT_TABLE)]
    assert table_values == sorted(table_values)


def test_value_invariant_under_period_offset():
    # any double-period window contains every gap of the periodic pattern
    for u in (2, 3, 5, 7):
        period = primorial(u)
        expected = EXACT_TABLE[u]
        for start in (2, 17, period - 1, period + 5):
            rec = rough_gap_scan(u, start, start + 2 * period)
            assert rec.gap == expected, (u, start)


def test_scan_budget_enforced():
    with pytest.raises(PeriodTooLarge):
        jacobsthal_exact(31)  # half of primorial(31) > the default scan budget
    with pytest.raises(PeriodTooLarge):
        jacobsthal_exact(7, config=Config(memory_budget=12))
    assert jacobsthal_exact(7, config=Config(memory_budget=15)).value == 10


def test_scan_budget_refuses_before_sieving_up_to_u(monkeypatch):
    # J(7) scans [1, 109], a window of 108 integers: a 14-byte budget
    # (8 * 14 = 112) scans it, one byte less (104) refuses
    assert jacobsthal_exact(7, config=Config(memory_budget=14)).value == 10
    with pytest.raises(PeriodTooLarge, match="= 210 is past the scan budget"):
        jacobsthal_exact(7, config=Config(memory_budget=13))
    sieved = []
    original = arith._eratosthenes

    def recording(n):
        sieved.append(n)
        return original(n)

    monkeypatch.setattr(arith, "_eratosthenes", recording)
    # the default scan limit, 2**33, and 8 * 1250000000 = 10**10 both have
    # 34 bits, so u is refused after primorial(35**2) at most, which reads
    # the constant column of the primes below 2**16 and sieves nothing
    for u, cfg in ((1000, Config(memory_budget=125)), (10**10, Config()),
                   (10**10, Config(memory_budget=10**10 // 8))):
        with pytest.raises(PeriodTooLarge):
            jacobsthal_exact(u, config=cfg)
        assert sieved == [], (u, cfg.memory_budget)
    # the spy sees a primorial past the column
    primorial(2**16)
    assert sieved == [2**16 + 1]


def test_half_period_scan_equals_full_period_scan():
    # the covering search's value and least witness must be the record of a
    # kernel scan of the full period [1, P + 1], witness included
    for u in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        full = rough_gap_scan(u, 1, primorial(u) + 1)
        assert jacobsthal_exact(u).witness == full, u


def _first_gap_oracle(primes, gap):
    """The least lo >= 1 with lo and lo + gap rough and none between them,
    or None, by a plain scan of one period and the gap past it."""
    period = math.prod(primes)
    rough = [n for n in range(1, period + gap + 2) if all(n % p for p in primes)]
    return next((lo for lo, hi in zip(rough, rough[1:]) if hi - lo == gap), None)


def test_first_gap_of_every_gap_length_up_to_J():
    # below J a covered run often leaves primes free, and lo steps by the
    # product of the assigned primes until no free prime divides lo or
    # lo + gap: gap 2 on [2, 3, 5] steps 13 times on its way to 11
    first = {}
    for primes in ([2, 3, 5], [2, 3, 5, 7], [2, 3, 5, 7, 11]):
        J, masks = jacobsthal._least_uncoverable(primes)
        for gap in range(2, J + 1, 2):
            first[primes[-1], gap] = jacobsthal._first_gap(primes, masks, gap)
            assert first[primes[-1], gap] == _first_gap_oracle(primes, gap), (primes, gap)
    assert first[5, 2] == 11 and first[7, 8] == 89


def test_exact_witnesses_pinned():
    for u, lo, hi in ((19, 60043, 60077), (23, 20332471, 20332511)):
        val = jacobsthal_exact(u)
        assert (val.value, val.witness.lo, val.witness.hi) == (hi - lo, lo, hi)
        assert val.value == EXACT_TABLE[u]


def test_exact_j29_at_the_default_budget():
    # the witness is the one a kernel scan of the half period, a window of
    # 3,234,846,618 integers, gave; the covering search takes milliseconds
    val = jacobsthal_exact(29, config=Config())
    assert (val.value, val.witness.lo, val.witness.hi) == (46, 417086647, 417086693)


def test_exact_j31_at_the_least_budget_holding_its_window():
    # the half-period window is 100,280,245,068 integers, so 12,535,030,634
    # bytes is the least budget whose 8x scan limit holds it; the witness is
    # the one a kernel scan of that window gave in about 70 s
    val = jacobsthal_exact(31, config=Config(memory_budget=12535030634))
    assert (val.value, val.witness.lo, val.witness.hi) == (58, 74959204291, 74959204349)
    with pytest.raises(PeriodTooLarge):
        jacobsthal_exact(31, config=Config(memory_budget=12535030633))


def test_rejects_u_below_two():
    with pytest.raises(ValueError):
        jacobsthal_exact(1)


def _hand_cert(x, q, b, u, y, classes):
    return CoveringCertificate(
        x=x,
        q=q,
        b=b,
        delta=Rational(0),
        u=u,
        y=y,
        classes=ClassTable([p for p, _ in classes], [a for _, a in classes], MATCHED),
        survivors_initial=0,
        survivors_after_greedy=0,
    )


def test_bound_from_minimal_covering_of_three():
    # classes {0 mod 2, 1 mod 3} cover [0, 2]; the witness run is 2,3,4
    cert = _hand_cert(x=2, q=1, b=0, u=3, y=2, classes=[(2, 0), (3, 1)])
    val = jacobsthal_bound_from_certificate(cert)
    assert val.u == 3
    assert val.value == 4
    assert not val.exact
    assert (val.witness.lo, val.witness.hi) == (1, 5)


def test_bound_from_single_point_cover():
    cert = _hand_cert(x=0, q=1, b=0, u=2, y=0, classes=[(2, 0)])
    val = jacobsthal_bound_from_certificate(cert)
    assert val.value == 2
    assert (val.witness.lo, val.witness.hi) == (1, 3)
    # T = 0 shifts up one period so the run stays positive
    w = crt_witness(cert)
    assert (w.T, w.P) == (2, 2)


def test_bound_from_pipeline_certificate():
    cert = build_certificate(100, 25, 1, Rational(0))
    val = jacobsthal_bound_from_certificate(cert)
    assert val.u == cert.u == 21
    assert val.value == cert.y + 2 == 5
    assert val.gap_lower_rational == Rational(99, 25)
    assert (val.witness.lo, val.witness.hi) == (199, 211)
    # the constructive bound never exceeds the exact value
    assert val.value <= jacobsthal_exact(cert.u).value == 34
    assert val.witness.gap >= val.value


def test_bound_rejects_broken_certificate():
    cert = build_certificate(100, 25, 1, Rational(0))
    broken = CoveringCertificate(
        x=cert.x,
        q=cert.q,
        b=cert.b,
        delta=cert.delta,
        u=cert.u,
        y=cert.y,
        classes=cert.classes.select(np.arange(len(cert.classes)) > 0),  # drop one class
        survivors_initial=cert.survivors_initial,
        survivors_after_greedy=cert.survivors_after_greedy,
    )
    with pytest.raises(InvalidCertificate):
        jacobsthal_bound_from_certificate(broken)


def _oracle_flanks(T, y, u):
    """Nearest u-rough integers below T and above T + y, by trial division.

    Also checks that no integer of the run [T, T + y] is u-rough.
    """
    primes = [k for k in range(2, u + 1)
              if all(k % d for d in range(2, math.isqrt(k) + 1))]

    def rough(n):
        return all(n % p for p in primes)

    assert not any(rough(T + n) for n in range(y + 1))
    lo = T - 1
    while not rough(lo):
        lo -= 1
    hi = T + y + 1
    while not rough(hi):
        hi += 1
    return lo, hi


@pytest.mark.parametrize("x, q, b", [(10**3, 7, 2), (10**4, 101, 100),
                                     (10**4, 64, 63), (10**5, 113, 87),
                                     (10**5, 97, 5)])
def test_bound_flanks_match_trial_division_oracle(monkeypatch, x, q, b):
    # the one remainder pass must also run over exactly the primes <= u
    # that carry no class, as np.isin picks them
    passes = []
    original = jacobsthal.multi_mod

    def recording(value, mods):
        passes.append([int(m) for m in mods])
        return original(value, mods)

    monkeypatch.setattr(jacobsthal, "multi_mod", recording)
    cert = build_certificate(x, q, b)
    val = jacobsthal_bound_from_certificate(cert)
    lo, hi = _oracle_flanks(crt_witness(cert).T, cert.y, cert.u)
    assert (val.witness.gap, val.witness.lo, val.witness.hi) == (hi - lo, lo, hi)
    assert val.value == cert.y + 2 <= val.witness.gap
    primes = np.array(small_primes_up_to(cert.u), dtype=np.int64)
    unclassed = primes[~np.isin(primes, cert.classes.p.astype(np.int64))]
    assert passes == [unclassed.tolist()] and 0 < len(passes[0]) < primes.size


def _classes_for_every_prime(u, y):
    """Greedy classes, one per prime <= u, covering [0, y] (None if they do not)."""
    primes = [k for k in range(2, u + 1) if all(k % d for d in range(2, k))]
    left = set(range(y + 1))
    classes = []
    for p in primes:
        a = max(range(p), key=lambda r: (sum(n % p == r for n in left), -r))
        classes.append((p, a))
        left = {n for n in left if n % p != a}
    return None if left else classes


def test_bound_flanks_when_every_prime_carries_a_class(monkeypatch):
    # every prime <= u = 13 has a class, so the pass over the unclassed
    # primes is empty and the flanks rest on the witness's residues alone
    passes = []
    original = jacobsthal.multi_mod

    def recording(value, mods):
        passes.append(list(mods))
        return original(value, mods)

    monkeypatch.setattr(jacobsthal, "multi_mod", recording)
    u, y = 13, 12
    pairs = _classes_for_every_prime(u, y)
    assert pairs is not None
    cert = CoveringCertificate(
        x=y, q=1, b=0, delta=Rational(0), u=u, y=y,
        classes=ClassTable([p for p, _ in pairs], [a for _, a in pairs],
                           [FORCED if 2 * p <= u else MATCHED for p, _ in pairs]),
        survivors_initial=0, survivors_after_greedy=0,
    )
    val = jacobsthal_bound_from_certificate(cert)
    assert passes == [[]]
    lo, hi = _oracle_flanks(crt_witness(cert).T, y, u)
    assert (val.witness.gap, val.witness.lo, val.witness.hi) == (hi - lo, lo, hi)
    assert val.value == y + 2


def _with_u(u):
    """A sound certificate whose u is raised; matched classes become forced
    so the kind placement still holds at the new u."""
    obj = certificate_to_dict(build_certificate(10**4, 101, 100))
    for cls in obj["classes"]:
        if cls["kind"] == "matched":
            cls["kind"] = "forced"
    obj["u"] = u
    return certificate_from_dict(obj)[0]


def test_bound_refuses_primes_past_budget():
    # the bound lists the primes up to u, which needs u + 1 bytes of budget
    cfg = Config(memory_budget=1 << 16)
    fits = _with_u((1 << 16) - 1)
    val = jacobsthal_bound_from_certificate(fits, config=cfg)
    lo, hi = _oracle_flanks(crt_witness(fits).T, fits.y, fits.u)
    assert (val.witness.lo, val.witness.hi) == (lo, hi)
    for u, config in ((1 << 16, cfg), (2**40, None)):
        cert = _with_u(u)
        assert verify_certificate(cert, config=config).ok
        with pytest.raises(ResourceLimit):
            jacobsthal_bound_from_certificate(cert, config=config)
        # the primes up to u are listed before the certificate is verified,
        # so one that fails verification is refused for its size first
        broken = replace(cert, classes=cert.classes.select(np.arange(len(cert.classes)) > 0))
        assert not verify_certificate(broken, config=config).ok
        with pytest.raises(ResourceLimit):
            jacobsthal_bound_from_certificate(broken, config=config)
