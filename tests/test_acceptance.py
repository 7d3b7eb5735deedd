"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS line (visible with pytest -s / -rP) after its
assertions; a failure anywhere keeps the line from printing.
"""

import json
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

import gapforge as gf
from gapforge.cli import main as cli_main
from gapforge.model import ClassTable, Rational

# Independently computed full-period oracle values (also re-derived live below).
JACOBSTHAL_TABLE = {2: 2, 3: 4, 5: 6, 7: 10, 11: 14, 13: 22, 17: 26, 19: 34, 23: 40}


def _report(n: int, desc: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {desc}")


# ---------------------------------------------------------------- criterion 1


def _oracle_max_rough_gap(u: int) -> int:
    """Full-period scan sharing no code with the library implementations."""
    primes = []
    for k in range(2, u + 1):
        if all(k % p for p in primes):
            primes.append(k)
    period = 1
    for p in primes:
        period *= p
    buf = bytearray(period + 2)
    for p in primes:
        buf[0::p] = b"\x01" * len(range(0, period + 2, p))
    best = 0
    prev = None
    i = buf.find(0, 1)
    while i != -1 and i <= period + 1:
        if prev is not None and i - prev > best:
            best = i - prev
        prev = i
        i = buf.find(0, i + 1)
    return best


def test_criterion_1_exact_jacobsthal_regression():
    t0 = time.time()
    for u, frozen in JACOBSTHAL_TABLE.items():
        live_oracle = _oracle_max_rough_gap(u)
        assert live_oracle == frozen, (u, live_oracle, frozen)
        assert gf.jacobsthal_exact(u).value == frozen, u
    elapsed = time.time() - t0
    assert elapsed < 60, f"regression took {elapsed:.1f}s, over the 60s budget"
    _report(1, f"exact J(u) matches the independent oracle for "
               f"u in {sorted(JACOBSTHAL_TABLE)} ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_gap_vs_jacobsthal_consistency():
    for u in (3, 5, 7):
        x = math.ceil(math.exp(2 * u))
        gap = gf.max_prime_gap(x).gap
        j = gf.jacobsthal_exact(u).value
        assert gap >= j, (u, x, gap, j)
    _report(2, "max_prime_gap(ceil(e^{2u})) >= exact J(u) for u in {3, 5, 7}")


# ---------------------------------------------------------------- criterion 3


def _grid_q_values() -> list[int]:
    # primes and prime powers up to 120
    return [q for q in range(2, 121) if len(gf.factorize(q)) == 1]


@pytest.fixture(scope="module")
def grid_certificates():
    certs = []
    skipped = []
    for x in (10**3, 10**4, 10**5):
        primes = gf.primes_up_to(x)
        for q in _grid_q_values():
            counts: dict[int, int] = {}
            for p in primes:
                r = p % q
                counts[r] = counts.get(r, 0) + 1
            b = min(
                (b for b in range(1, q) if math.gcd(b, q) == 1),
                key=lambda b: (counts.get(b, 0), b),
            )
            try:
                certs.append(gf.build_certificate(x, q, b))
            except gf.InsufficientPrimes:
                skipped.append((x, q, b))
    return certs, skipped


def test_criterion_3_pipeline_soundness(grid_certificates):
    certs, skipped = grid_certificates
    t0 = time.time()
    assert len(certs) + len(skipped) == 3 * len(_grid_q_values())
    for cert in certs:
        report = gf.verify_certificate(cert, strict=True)
        assert report.ok, (cert.x, cert.q, cert.b, report.failures)
        witness = gf.crt_witness(cert)
        if cert.x == 10**3:
            # literal big-integer gcd route on the small tier
            assert all(
                math.gcd(witness.T + n, witness.P) > 1 for n in range(cert.y + 1)
            )
    elapsed = time.time() - t0
    assert elapsed < 120, f"verification sweep took {elapsed:.1f}s"
    _report(3, f"{len(certs)} certificates verified strictly with validated "
               f"witnesses, {len(skipped)} legitimately out of fresh primes "
               f"({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_bound_consistency(grid_certificates):
    certs, _ = grid_certificates
    small_u = [c for c in certs if c.u <= 23]
    for cert in small_u:
        assert cert.y + 2 <= gf.jacobsthal_exact(cert.u).value
    # the grid forces u > 2*sqrt(1000) > 23, so exercise the same inequality
    # on a small out-of-grid pipeline run as well
    extra = gf.build_certificate(100, 25, 1, Rational(0))
    assert extra.u <= 23
    assert extra.y + 2 <= gf.jacobsthal_exact(extra.u).value
    _report(4, f"y + 2 <= exact J(u) for all {len(small_u)} grid certificates "
               f"with u <= 23, plus the small-x pipeline run")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_empty_progression_path():
    assert gf.least_prime_ap(25, 1, 100) is None
    cert = gf.build_certificate(100, 25, 1, Rational(0))
    least_u = math.isqrt(4 * 100) + 1
    assert least_u * least_u > 4 * 100 and (least_u - 1) ** 2 <= 4 * 100
    assert cert.u == least_u == 21
    assert gf.verify_certificate(cert, strict=True).ok
    witness = gf.crt_witness(cert)
    assert all(math.gcd(witness.T + n, witness.P) > 1 for n in range(cert.y + 1))
    _report(5, "empty progression (q=25, b=1, x=100) certifies with "
               "u = least integer above 2*sqrt(x)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6a_greedy_contraction():
    rng = random.Random(601)
    small_primes = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(1000):
        survivors = sorted(rng.sample(range(5000), rng.randrange(0, 200)))
        q = math.prod(rng.sample(small_primes, rng.randrange(1, 4)))
        u = rng.randrange(4, 80)
        classes, rest = gf.greedy_cover(survivors, q, u)
        remaining = list(survivors)
        for p, a in zip(classes.p.tolist(), classes.a.tolist()):
            before = len(remaining)
            remaining = [n for n in remaining if n % p != a]
            # |S'| <= |S| (1 - 1/p), exactly, in integers
            assert len(remaining) * p <= before * (p - 1)
        assert remaining == rest.tolist()
    _report(6, "greedy contraction held for 1000 seeded instances")


def test_criterion_6b_forced_congruence():
    rng = random.Random(602)
    checked = 0
    for _ in range(1000):
        u = rng.randrange(3, 300)
        q = rng.randrange(2, 5000)
        units = [b for b in range(1, min(q, 50)) if math.gcd(b, q) == 1]
        if not units:
            continue
        b = rng.choice(units)
        classes = gf.forced_classes(u, q, b)
        expect = {p for p in gf.primes_up_to(u // 2) if q % p != 0}
        assert set(classes.p.tolist()) == expect
        for p, a in zip(classes.p.tolist(), classes.a.tolist()):
            assert (q * a + b) % p == 0
            assert 0 <= a < p
            checked += 1
    assert checked > 1000
    _report(6, "forced-class congruence q*a+b == 0 (mod p) held for 1000 "
               "seeded instances")


def _random_progression(rng, x_max):
    while True:
        x = rng.randrange(10, x_max)
        q = rng.randrange(2, x)
        b = rng.randrange(1, q)
        if math.gcd(b, q) == 1:
            return x, q, b


def test_criterion_6c_survivor_primality():
    rng = random.Random(603)
    for i in range(1000):
        x, q, b = _random_progression(rng, 4000)
        if i % 20 == 0:
            delta = gf.prime_count_ap(x, q, b).delta
            if delta > Rational(1):
                continue
        else:
            delta = Rational(0)
        u = gf.compute_u(x, q, delta)
        y = (x - b) // q
        survivors = gf.sieve_survivors(y, gf.forced_classes(u, q, b))
        for n in survivors.tolist():
            m = q * n + b
            assert m == 1 or gf.is_prime(m), (x, q, b, n)
    _report(6, "survivor primality (q*n+b prime or 1) held for 1000 seeded "
               "instances")


def test_criterion_6d_matched_class_hits():
    rng = random.Random(604)
    for _ in range(1000):
        u = rng.randrange(20, 1500)
        fresh = gf.primes_in_range(u // 2, u)
        size = rng.randrange(0, min(len(fresh), 30) + 1)
        remaining = sorted(rng.sample(range(5000), size))
        classes = gf.match_large_primes(remaining, u)
        assert len(classes) == size
        for n, p, a in zip(remaining, classes.p.tolist(), classes.a.tolist()):
            assert n % p == a
            assert 2 * p > u and p <= u
        assert classes.p.tolist() == fresh[:size]
    _report(6, "matched classes hit their survivors for 1000 seeded instances")


def test_criterion_6e_survivor_accounting():
    rng = random.Random(605)
    for _ in range(1000):
        x, q, b = _random_progression(rng, 3000)
        u = gf.compute_u(x, q, Rational(0))
        y = (x - b) // q
        survivors = gf.sieve_survivors(y, gf.forced_classes(u, q, b))
        count = gf.prime_count_ap(x, q, b).count
        slack = 1 if b == 1 else 0
        assert len(survivors) <= count + slack, (x, q, b)
        classes, rest = gf.greedy_cover(survivors, q, u)
        num = den = 1
        for p in classes.p.tolist():
            num *= p - 1
            den *= p
        assert len(rest) * den <= len(survivors) * num
    _report(6, "survivor accounting |N| <= pi(x;q,b) (+1 when b=1) and the "
               "greedy product bound held for 1000 seeded instances")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_mutation_robustness(grid_certificates):
    certs, _ = grid_certificates
    bases = [c for c in certs if c.x == 10**3][:10]
    bases.append(gf.build_certificate(100, 25, 1, Rational(0)))
    rng = random.Random(700)
    false_accepts = []
    for _ in range(100):
        cert = rng.choice(bases)
        p, a, kind = (col.copy() for col in (cert.classes.p, cert.classes.a,
                                             cert.classes.kind))
        mutation = rng.randrange(3)
        if mutation == 0:
            kept = np.arange(len(p)) != rng.randrange(len(p))
            p, a, kind = p[kept], a[kept], kind[kept]
        elif mutation == 1:
            j = rng.randrange(len(p))
            a[j] = (a[j] + 1) % p[j]
        else:
            # the two classes trade primes and keep their residues and kinds
            j, k = rng.sample(range(len(p)), 2)
            p[[j, k]] = p[[k, j]]
        mutant = replace(cert, classes=ClassTable(p, a, kind))
        if gf.verify_certificate(mutant, strict=True).ok:
            false_accepts.append((cert.x, cert.q, mutation))
    assert false_accepts == []
    _report(7, "100 random single-field mutations all rejected")


# ---------------------------------------------------------------- criterion 8


def _lsq_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_criterion_8_scenario_scaling():
    for k in (2, 3):
        grid = [2.0**e for e in range(4, 11)]
        results = [gf.scenario_bound(lq, lq ** (-k), 2.0) for lq in grid]
        ell = [r.log_u for r in results]
        gap = [r.log_gap_bound for r in results]
        loglog = [math.log(v) for v in ell]
        fitted = _lsq_slope(ell, gap)
        predicted = 1 + (k - 1) * _lsq_slope(ell, loglog)
        assert abs(fitted - predicted) <= 0.05 * predicted, (k, fitted, predicted)
        # local exponent at the largest grid point
        local = (gap[-1] - gap[-2]) / (ell[-1] - ell[-2])
        local_pred = 1 + (k - 1) * (loglog[-1] - loglog[-2]) / (ell[-1] - ell[-2])
        assert abs(local - local_pred) <= 0.05 * local_pred, (k, local, local_pred)
    _report(8, "log_gap_bound slope matches 1 + (k-1) * (iterated-log slope) "
               "within 5% for k in {2, 3}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_determinism(tmp_path, capsys, segment):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    for p in paths:
        code = cli_main(
            ["cover", "--x", "10000", "--q", "101", "--b", "100",
             "--witness", "--out", str(p)]
        )
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()

    for x in (123_456, 999_983, 10**6):
        segment(1 << 16)
        a = gf.max_prime_gap(x)
        segment(1 << 20)  # one segment covers 10**6
        b = gf.max_prime_gap(x)
        assert a == b, x
    assert gf.max_prime_gap(10**6).gap == 114
    _report(9, "byte-identical certificates and segmentation-independent "
               "gap records up to 10^6")
