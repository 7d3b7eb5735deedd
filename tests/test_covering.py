import collections
import json
import math
import random
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

import gapforge
from gapforge import arith, cli, covering, jacobsthal, sieve
from gapforge.arith import is_prime
from gapforge.config import Config
from gapforge.covering import (
    best_residue,
    build_certificate,
    compute_u,
    crt_witness,
    forced_classes,
    greedy_cover,
    match_large_primes,
    scenario_bound,
    sieve_survivors,
    verify_certificate,
)
from gapforge.errors import (
    BadProgression,
    DomainError,
    InsufficientPrimes,
    InvalidCertificate,
    Overflow,
    ResourceLimit,
)
from gapforge.model import (
    FORCED,
    GREEDY,
    MATCHED,
    ClassTable,
    CoveringCertificate,
    CrtWitness,
    Rational,
    _int_to_decimal,
    certificate_from_dict,
    certificate_to_dict,
    certificate_to_json,
)
from gapforge.sieve import prime_count_ap, primes_in_range, primes_up_to


def test_compute_u_examples():
    assert compute_u(100, 4, Rational(0)) == 21
    assert compute_u(100, 4, Rational(13, 50)) == 388
    assert compute_u(10**4, 101, Rational(0)) == 201


def _ratio_holds(u: int, x: int, q: int, delta: Rational) -> bool:
    # u / ln(u) >= 10 * delta * x / q, decided at 80 digits
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(u * q * delta.den) >= Decimal(10 * delta.num * x) * Decimal(u).ln()


def test_compute_u_minimality():
    rng = random.Random(13)
    cases = [(100, 4, Rational(13, 50)), (10**4, 101, Rational(9, 100))]
    for _ in range(60):
        x = rng.randrange(10, 10**6)
        q = rng.randrange(1, min(x, 500))
        num = rng.randrange(0, 50)
        cases.append((x, q, Rational(num, 50)))
    for x, q, delta in cases:
        u = compute_u(x, q, delta)
        assert u * u > 4 * x
        assert _ratio_holds(u, x, q, delta)
        prev = u - 1
        assert prev * prev <= 4 * x or not _ratio_holds(prev, x, q, delta), (x, q, delta)


def test_compute_u_validation_and_overflow():
    with pytest.raises(ValueError):
        compute_u(4, 4, Rational(0))
    with pytest.raises(ValueError):
        compute_u(100, 4, Rational(3, 2))
    with pytest.raises(Overflow):
        compute_u(10**18, 1, Rational(1))


def test_ratio_ok_decides_ties_inside_the_float_band_exactly():
    # 10**15 * ln(1000) = 6907755278982137.05..., which u * lhs misses by
    # -137.05... and +862.9...: relative gaps near 1e-14, inside the float
    # band of 1e-12, so only the Decimal path decides them
    log_factor = 10**15
    approx = log_factor * math.log(1000)
    for lhs, want in ((6907755278982, False), (6907755278983, True)):
        assert abs(1000 * lhs - approx) < approx * 1e-12
        with localcontext() as ctx:
            ctx.prec = 100
            margin = Decimal(1000 * lhs) - log_factor * Decimal(1000).ln()
        assert (margin > 0) is want and 100 < abs(margin) < 1000, margin
        assert covering._ratio_ok(1000, lhs, log_factor) is want
    # a log factor of at most 0 leaves nothing to compare
    assert covering._ratio_ok(3, 0, 0) is True
    assert covering._ratio_ok(3, 0, -1) is True


NO_CLASSES = ClassTable([], [], FORCED)


def _triples(table):
    """The (p, a, kind code) triples of a table, as Python ints."""
    return list(zip(table.p.tolist(), table.a.tolist(), table.kind.tolist()))


def test_forced_classes_examples():
    assert forced_classes(10, 4, 3) == ClassTable([3, 5], [0, 3], FORCED)
    assert forced_classes(5, 3, 2) == ClassTable([2], [0], FORCED)
    assert forced_classes(6, 6, 5) == NO_CLASSES


def test_sieve_survivors_examples():
    forced = ClassTable([3, 5], [0, 3], FORCED)
    survivors = sieve_survivors(10, forced)
    assert survivors.dtype == np.int64
    assert survivors.tolist() == [1, 2, 4, 5, 7, 10]
    assert sieve_survivors(4, NO_CLASSES).tolist() == [0, 1, 2, 3, 4]
    forced = ClassTable([2, 3], [0, 1], FORCED)
    assert sieve_survivors(5, forced).tolist() == [3, 5]


def test_sieve_survivors_limits():
    tiny = Config(memory_budget=1 << 16)
    with pytest.raises(ResourceLimit):
        sieve_survivors(10**6, NO_CLASSES, config=tiny)
    with pytest.raises(ValueError):
        sieve_survivors(10, ClassTable([3, 3], [0, 0], FORCED))


def test_forced_classes_and_survivors_refuse_bad_arguments():
    with pytest.raises(ValueError, match="^need u >= 3$"):
        forced_classes(2, 4, 3)
    with pytest.raises(BadProgression, match=r"^gcd\(2, 4\) = 2 > 1$"):
        forced_classes(10, 4, 2)
    with pytest.raises(ValueError, match="^need y >= 0$"):
        sieve_survivors(-1, NO_CLASSES)


def test_greedy_cover_examples():
    classes, rest = greedy_cover([0, 1, 2, 3, 4, 5], 2, 10)
    assert classes == ClassTable([2], [0], GREEDY)
    assert rest.dtype == np.int64
    assert rest.tolist() == [1, 3, 5]
    classes, rest = greedy_cover([], 6, 10)
    assert classes == ClassTable([2, 3], [0, 0], GREEDY)
    assert rest.tolist() == []
    classes, rest = greedy_cover(np.array([1, 4, 7, 8]), 3, 10)
    assert classes == ClassTable([3], [1], GREEDY)
    assert rest.tolist() == [8]
    for unordered in ([1, 1], [2, 1]):
        with pytest.raises(ValueError, match="ascending and distinct"):
            greedy_cover(unordered, 6, 10)


def test_greedy_skips_large_prime_factor():
    # the one prime factor of q above u/2 gets no class
    classes, rest = greedy_cover([0, 1, 2], 22, 12)
    assert classes.p.tolist() == [2]
    assert rest.tolist() == [1]


def test_best_residue_tie_break():
    assert best_residue([0, 1, 2, 3, 4, 5], 2) == (0, 3)
    assert best_residue([], 7) == (0, 0)
    assert best_residue([1, 4, 7, 8], 3) == (1, 3)


def test_sufficient_condition_matches_a_decimal_oracle():
    # n = floor(u / (5 ln u)), taken at 60 digits, meets |N'| <= u/(5 ln u)
    # and n + 1 does not, for every u up to 20,000
    wrong = []
    with localcontext() as ctx:
        ctx.prec = 60
        for u in range(3, 20_001):
            n = int(Decimal(u) / (5 * Decimal(u).ln()))
            if not covering._condition_holds(n, u) or covering._condition_holds(n + 1, u):
                wrong.append(u)
    assert wrong == []


def test_match_large_primes_examples():
    assert match_large_primes([], 20) == ClassTable([], [], MATCHED)
    assert match_large_primes(np.array([3, 8]), 20) == ClassTable([11, 13], [3, 8], MATCHED)
    with pytest.raises(ValueError, match="ascending and distinct"):
        match_large_primes([8, 3], 20)
    with pytest.raises(InsufficientPrimes) as err:
        match_large_primes([0, 1, 2, 3, 4], 10)
    assert err.value.needed == 5
    assert err.value.available == 1
    assert not err.value.condition_holds


def test_build_certificate_main_example():
    cert = build_certificate(10**4, 101, 100)
    assert cert.u == compute_u(10**4, 101, cert.delta) == 565
    assert cert.y == 98
    assert cert.delta == Rational(9, 100)
    report = verify_certificate(cert, strict=True)
    assert report.ok, report.failures
    w = crt_witness(cert)
    # witness run re-checked with literal big-integer gcds
    assert all(math.gcd(w.T + n, w.P) > 1 for n in range(cert.y + 1))


def test_build_certificate_empty_progression_path():
    cert = build_certificate(100, 25, 1, Rational(0))
    assert cert.u == 21
    assert cert.y == 3
    assert cert.survivors_initial == 1  # n = 0, where q*n + b = 1
    assert cert.survivors_after_greedy == 0
    assert _triples(cert.classes) == [
        (2, 1, FORCED),
        (3, 2, FORCED),
        (7, 5, FORCED),
        (5, 0, GREEDY),
    ]
    assert verify_certificate(cert, strict=True).ok


def test_build_certificate_small_case():
    # small x either verifies or legitimately runs out of fresh primes
    try:
        cert = build_certificate(30, 7, 6)
    except InsufficientPrimes:
        return
    assert verify_certificate(cert, strict=True).ok
    assert cert.u == 29
    assert cert.y == 3


def test_build_certificate_rejects_bad_progressions():
    with pytest.raises(BadProgression):
        build_certificate(100, 99, 33)
    with pytest.raises(BadProgression):
        build_certificate(100, 101, 100)  # q not below x
    with pytest.raises(BadProgression):
        build_certificate(100, 25, 0)


def test_build_certificate_deterministic():
    a = build_certificate(10**4, 101, 100)
    b = build_certificate(10**4, 101, 100)
    assert a == b
    assert certificate_to_json(a) == certificate_to_json(b)
    wa, wb = crt_witness(a), crt_witness(b)
    assert certificate_to_json(a, wa) == certificate_to_json(b, wb)


def test_certificate_json_round_trip():
    cert = build_certificate(10**4, 101, 100)
    w = crt_witness(cert)
    text = certificate_to_json(cert, w)
    parsed, stored = certificate_from_dict(json.loads(text))
    assert parsed == cert
    assert stored is not None and (stored.T, stored.P) == (w.T, w.P)
    # schema field order and names
    obj = json.loads(text)
    assert list(obj) == [
        "x", "q", "b", "delta", "u", "y",
        "survivors_initial", "survivors_after_greedy",
        "classes", "witness", "bound",
    ]
    assert obj["witness"]["T"] == str(w.T)
    assert obj["bound"]["jacobsthal_u"] == cert.u
    assert obj["bound"]["gap_lower_rational"] == {"num": 9900, "den": 101}
    assert obj["classes"][0]["kind"] in ("forced", "greedy", "matched")


def _indented(cert, witness=None):
    return json.dumps(certificate_to_dict(cert, witness), indent=2) + "\n"


def test_certificate_writer_matches_indented_dumps():
    built = build_certificate(10**4, 101, 100)
    big = random.Random(79).getrandbits(20_000)  # over 6000 digits
    for cert in (
        CoveringCertificate(x=2, q=1, b=0, delta=Rational(0), u=3, y=2,
                            classes=NO_CLASSES, survivors_initial=0,
                            survivors_after_greedy=0),
        CoveringCertificate(x=0, q=1, b=0, delta=Rational(1, 3), u=2, y=0,
                            classes=ClassTable([2], [0], MATCHED),
                            survivors_initial=1, survivors_after_greedy=1),
        built,
    ):
        for witness in (None, CrtWitness(T=1, P=2), CrtWitness(T=big, P=big + 1)):
            assert certificate_to_json(cert, witness) == _indented(cert, witness)
    w = crt_witness(built)
    assert certificate_to_json(built, w) == _indented(built, w)
    # each record takes its kind's template: kinds out of order, object
    # columns past 2**31 and negative residues come out as json.dumps writes them
    for table in (
        ClassTable([2, 3, 5, 7, 11, 13], [1, 0, 4, 2, 3, 12],
                   [MATCHED, FORCED, GREEDY, FORCED, MATCHED, GREEDY]),
        ClassTable([3, 2**31 + 11, 5, 2**61 - 1], [1, 2**31 + 10, 0, 2**40],
                   [FORCED, MATCHED, GREEDY, MATCHED]),
        ClassTable([2, 3, 5, 7], [-1, -3, 0, -2**31], [GREEDY, FORCED, MATCHED, FORCED]),
    ):
        cert = replace(built, classes=table)
        assert table.p.dtype == (object if table.p.max() >= 2**31 else np.int64)
        for witness in (None, w):
            assert certificate_to_json(cert, witness) == _indented(cert, witness)


def test_int_to_decimal_matches_str():
    # pieces of 4000 digits, and splits past the recursive-division cutoff
    rng = random.Random(83)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.11
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for digits in (1, 3999, 4000, 4001, 8000, 8001, 16001, 70_000):
            for n in (10 ** (digits - 1), 10**digits - 1,
                      rng.randrange(10 ** (digits - 1), 10**digits)):
                assert _int_to_decimal(n) == str(n), digits
        assert _int_to_decimal(0) == "0"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _mutate_drop(cert, idx):
    return CoveringCertificate(
        x=cert.x, q=cert.q, b=cert.b, delta=cert.delta, u=cert.u, y=cert.y,
        classes=cert.classes.select(np.arange(len(cert.classes)) != idx),
        survivors_initial=cert.survivors_initial,
        survivors_after_greedy=cert.survivors_after_greedy,
    )


def _mutate_residue(cert, idx):
    t = cert.classes
    a = t.a.copy()
    a[idx] = (a[idx] + 1) % t.p[idx]
    return CoveringCertificate(
        x=cert.x, q=cert.q, b=cert.b, delta=cert.delta, u=cert.u, y=cert.y,
        classes=ClassTable(t.p, a, t.kind),
        survivors_initial=cert.survivors_initial,
        survivors_after_greedy=cert.survivors_after_greedy,
    )


def test_certificate_refuses_classes_that_are_not_a_table():
    cert = build_certificate(100, 25, 1, Rational(0))
    rows = tuple(_triples(cert.classes))
    for classes in (rows, list(rows), ()):
        with pytest.raises(TypeError, match="not a ClassTable"):
            replace(cert, classes=classes)


def test_verify_flags_deleted_class():
    cert = build_certificate(10**4, 101, 100)
    matched_idx = int(np.flatnonzero(cert.classes.kind == MATCHED)[0])
    report = verify_certificate(_mutate_drop(cert, matched_idx))
    cover_entry = next(e for e in report.entries if e.check == "covers_range")
    assert not cover_entry.passed
    assert "n=" in cover_entry.detail


def test_verify_flags_forced_congruence_break():
    cert = build_certificate(10**4, 101, 100)
    report = verify_certificate(_mutate_residue(cert, 0), strict=True)
    assert not report.ok
    failed = {e.check for e in report.failures}
    assert "forced_congruence" in failed or "forced_classes_match" in failed


STRICT_CHECKS = [
    "class_primes_distinct",
    "class_primes_prime",
    "class_primes_at_most_u",
    "residues_in_range",
    "kind_placement",
    "y_matches",
    "u_exceeds_2sqrt",
    "covers_range",
    "forced_congruence",
    "forced_classes_match",
    "delta_hypothesis",
    "u_matches_recompute",
    "survivor_accounting",
    "greedy_classes_match",
    "matched_classes_match",
]


def test_strict_report_lists_every_check_in_order():
    cert = build_certificate(10**4, 101, 100)
    report = verify_certificate(cert, strict=True)
    assert [e.check for e in report.entries] == STRICT_CHECKS
    assert report.ok


def _strict_failures(cert, **fields):
    return {e.check for e in verify_certificate(replace(cert, **fields), strict=True).failures}


def test_strict_report_pins_each_tampered_field():
    cert = build_certificate(10**4, 101, 100)
    assert (cert.u, cert.survivors_initial, cert.survivors_after_greedy) == (565, 9, 8)
    assert _strict_failures(cert, survivors_initial=10) == {"survivor_accounting"}
    assert _strict_failures(cert, survivors_after_greedy=9) == {"survivor_accounting"}
    # delta = 0 rebuilds at u = 201: forced primes up to 100 instead of 282,
    # none greedy (2 * 101 > 201), and all 9 survivors left to match
    assert _strict_failures(cert, delta=Rational(0)) == {
        "delta_hypothesis",
        "u_matches_recompute",
        "forced_classes_match",
        "survivor_accounting",
        "greedy_classes_match",
        "matched_classes_match",
    }
    greedy = int(np.flatnonzero(cert.classes.kind == GREEDY)[0])
    bumped = _mutate_residue(cert, greedy)
    assert _strict_failures(bumped) == {"covers_range", "greedy_classes_match"}
    forced = int(np.count_nonzero(cert.classes.kind == FORCED))
    reordered = cert.classes.select(np.r_[forced - 1 : -1 : -1, forced : len(cert.classes)])
    assert reordered != cert.classes
    assert _strict_failures(cert, classes=reordered) == set()


def _entry(report, check):
    return next(e for e in report.entries if e.check == check)


def test_verify_passes_a_class_prime_equal_to_u():
    cert = build_certificate(10**4, 101, 100)
    top = int(cert.classes.p.max())
    assert _entry(verify_certificate(replace(cert, u=top)), "class_primes_at_most_u").passed


def test_verify_fails_u_squared_equal_to_4x():
    cert = build_certificate(10**4, 101, 100)
    entry = _entry(verify_certificate(replace(cert, u=566, x=566 * 566 // 4)),
                   "u_exceeds_2sqrt")
    assert (entry.passed, entry.detail) == (False, "u^2 <= 4x at u=566")


def test_verify_covers_within_a_budget_of_y_plus_one_bytes():
    cert = build_certificate(10**4, 101, 100)
    report = verify_certificate(cert, config=Config(memory_budget=cert.y + 1))
    assert _entry(report, "covers_range").passed and report.ok


def test_verify_places_a_forced_class_at_half_u_by_q():
    # p = u/2 is not above u/2, so the forced class is misplaced because p | q
    cert = CoveringCertificate(
        x=40, q=21, b=1, delta=Rational(0), u=14, y=1,
        classes=ClassTable([7], [0], FORCED),
        survivors_initial=0, survivors_after_greedy=0,
    )
    entry = _entry(verify_certificate(cert), "kind_placement")
    assert (entry.passed, entry.detail) == (False, "forced p=7 divides q")


def test_verify_never_raises_on_garbage():
    cert = CoveringCertificate(
        x=10, q=0, b=3, delta=Rational(0), u=2, y=5,
        classes=ClassTable([4], [5], FORCED),
        survivors_initial=0, survivors_after_greedy=0,
    )
    report = verify_certificate(cert, strict=True)
    assert not report.ok
    assert any(e.check == "class_primes_prime" for e in report.failures)


def test_crt_witness_requires_valid_certificate():
    cert = build_certificate(100, 25, 1, Rational(0))
    with pytest.raises(InvalidCertificate):
        crt_witness(_mutate_drop(cert, 0))


def test_crt_witness_end_to_end():
    cert = build_certificate(10**4, 101, 100)
    w = crt_witness(cert)
    assert cert.y == 98
    assert 0 < w.T <= w.P
    for p, a in zip(cert.classes.p.tolist(), cert.classes.a.tolist()):
        assert (w.T + a) % p == 0


def test_survivor_primality_holds_in_pipeline():
    cert = build_certificate(10**4, 101, 100)
    survivors = sieve_survivors(cert.y, forced_classes(cert.u, cert.q, cert.b))
    assert len(survivors) == cert.survivors_initial
    for n in survivors.tolist():
        m = cert.q * n + cert.b
        assert m == 1 or is_prime(m)


def test_scenario_examples():
    res = scenario_bound(10, 0.5, 2)
    assert res.log_x == pytest.approx(20.0)
    assert res.log_u == pytest.approx(12.302585092994, abs=1e-9)
    assert res.log_gap_bound == pytest.approx(10.485922863096, abs=1e-9)
    # the last two are finite, but log_x = B * log_q overflows a float
    for bad in [(10, 1.0, 2), (10, 0.0, 2), (0, 0.5, 2), (10, 0.5, 1.0),
                (10, -0.5, 2), (float("nan"), 0.5, 2), (1e308, 0.5, 10),
                (10, 0.5, 1e308)]:
        with pytest.raises(DomainError):
            scenario_bound(*bad)


def test_scenario_delta_terms_cancel_near_one():
    res = scenario_bound(40, 1 - 1e-12, 3)
    assert res.log_gap_bound == pytest.approx(
        res.log_u - math.log(res.log_u), rel=1e-9
    )


def test_scenario_rejects_degenerate_u():
    with pytest.raises(DomainError):
        scenario_bound(0.2, 0.01, 1.05)


def test_greedy_contraction_and_derivation():
    rng = random.Random(99)
    for _ in range(200):
        size = rng.randrange(0, 120)
        survivors = sorted(rng.sample(range(2000), size))
        primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randrange(1, 4))
        q = math.prod(primes)
        u = rng.randrange(4, 60)
        classes, rest = greedy_cover(survivors, q, u)
        # replay the steps and check each one contracts by at least 1/p
        remaining = list(survivors)
        for p, a_p, _ in _triples(classes):
            a, hits = best_residue(remaining, p)
            assert (a, a_p) == (a_p, a)
            before = len(remaining)
            remaining = [n for n in remaining if n % p != a]
            assert len(remaining) * p <= before * (p - 1)
        assert remaining == rest.tolist()
        assert classes.p.tolist() == sorted(
            p for p in primes if 2 * p <= u
        )


def _beyond_64_bit_certificate_dict():
    """A certificate that is sound except for a class prime above 2**64.

    Matched classes are relabelled forced so kind placement holds at the
    raised u; the new matched class p = 2**89 - 1 is in fact prime, but no
    test in the package proves a modulus that large.
    """
    obj = certificate_to_dict(build_certificate(10**4, 101, 100))
    for cls in obj["classes"]:
        if cls["kind"] == "matched":
            cls["kind"] = "forced"
    obj["u"] = 2**89
    obj["classes"].append({"p": 2**89 - 1, "a": 0, "kind": "matched"})
    return obj


def test_verify_fails_closed_above_64_bits(monkeypatch):
    cert, _ = certificate_from_dict(_beyond_64_bit_certificate_dict())
    tested = []

    def recording_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr("gapforge.sieve.is_prime", recording_is_prime)
    report = verify_certificate(cert)
    assert [e.check for e in report.failures] == ["class_primes_prime"]
    assert "2**64" in report.failures[0].detail
    # the other moduli fit one sieve, so is_prime may see none of them
    assert all(n < 2**64 for n in tested)


def test_verify_keeps_its_prime_table_within_budget(monkeypatch):
    cert = build_certificate(10**4, 101, 100)
    top = int(cert.classes.p.max())
    tables = []
    prime_array = sieve._prime_array

    def recording_prime_array(n, cfg):
        tables.append(n)
        return prime_array(n, cfg)

    monkeypatch.setattr(sieve, "_prime_array", recording_prime_array)
    # a budget of top + 1 bytes holds the table; one byte less and the
    # verifier proves each modulus with is_prime instead
    for budget, expected in ((top + 1, [top]), (top, [])):
        tables.clear()
        cfg = Config(memory_budget=budget)
        assert verify_certificate(cert, config=cfg).ok
        assert tables == expected


def _staged_certificate(x, q, b, delta):
    """build_certificate's construction, one public stage function at a time."""
    if delta is None:
        delta = prime_count_ap(x, q, b).delta
    u = compute_u(x, q, delta)
    y = (x - b) // q
    forced = forced_classes(u, q, b)
    survivors = sieve_survivors(y, forced)
    greedy, remaining = greedy_cover(survivors, q, u)
    matched = match_large_primes(remaining, u)
    return CoveringCertificate(
        x=x, q=q, b=b, delta=delta, u=u, y=y,
        classes=ClassTable.concat(forced, greedy, matched),
        survivors_initial=len(survivors),
        survivors_after_greedy=len(remaining),
    )


def test_selected_and_joined_class_columns_are_int64_exactly_when_values_fit():
    # select and concat keep int64 columns as they are and pass object ones
    # through the constructor, so in every table the columns are int64 just
    # when each p and a lies in [-2**31, 2**31)
    rng = random.Random(24)
    edges = [-2**31 - 1, -2**31, -1, 0, 1, 2**31 - 1, 2**31, 2**63, 2**70]

    def check(table, rows):
        fits = all(-2**31 <= v < 2**31 for row in rows for v in row[:2])
        assert table.p.dtype == table.a.dtype == (np.int64 if fits else object), rows
        assert table.kind.dtype == np.int8
        got = zip(table.p.tolist(), table.a.tolist(), table.kind.tolist())
        assert list(got) == rows

    for _ in range(200):
        tables = []
        for _ in range(rng.randrange(1, 4)):
            n = rng.randrange(0, 6)
            rows = [(rng.choice(edges + [rng.randrange(2, 10**4)]),
                     rng.choice(edges + [rng.randrange(0, 10**4)]), rng.randrange(3))
                    for _ in range(n)]
            table = ClassTable([r[0] for r in rows], [r[1] for r in rows],
                               [r[2] for r in rows])
            check(table, rows)
            mask = np.array([rng.random() < 0.5 for _ in rows], dtype=bool)
            selected = (table.select(mask), [r for r, m in zip(rows, mask) if m])
            check(*selected)
            tables.append(selected)
        check(ClassTable.concat(*(t for t, _ in tables)),
              [r for _, rows in tables for r in rows])


@pytest.mark.parametrize("x, q, b, delta", [
    # u // 2 = isqrt(x): the count's base primes are the forced primes
    (10**7, 10007, 3, None),
    # u // 2 > isqrt(x): the table grows past the count's primes
    (13560581, 678, 581, "1/10"),
])
def test_cover_and_strict_verify_sieve_and_solve_each_prime_once(
    tmp_path, monkeypatch, x, q, b, delta
):
    sieved, solved = [], []
    wheel_primes, progression_roots = sieve._wheel_primes, sieve._progression_roots

    def recording_wheel_primes(lo, hi, *args):
        sieved.append((lo, hi))
        return wheel_primes(lo, hi, *args)

    def recording_roots(primes, *args):
        solved.append(primes.size)
        return progression_roots(primes, *args)

    monkeypatch.setattr(sieve, "_wheel_primes", recording_wheel_primes)
    monkeypatch.setattr(sieve, "_progression_roots", recording_roots)
    path = tmp_path / "cert.json"
    argv = ["cover", "--x", str(x), "--q", str(q), "--b", str(b), "--out", str(path)]
    for command in (argv + (["--delta", delta] if delta else []),
                    ["verify", str(path), "--strict"]):
        sieved.clear()
        solved.clear()
        assert cli.main(command) == 0, command
        cert, _ = certificate_from_dict(json.loads(path.read_text()))
        # the primes up to 2**16 - 1 are the constant column; the kernel
        # windows are disjoint, lie above it and end at u, so every prime
        # past the column up to u is sieved at most once, and none is
        # sieved when u is within the column
        ends = [end for window in sorted(sieved) for end in window]
        assert ends == sorted(ends) and len(set(ends)) == len(ends), sieved
        assert all(end > sieve._SMALL_TOP for end in ends), sieved
        assert ends[-1:] == ([cert.u] if cert.u > sieve._SMALL_TOP else []), sieved
        # each prime up to u // 2 goes into one root solve
        assert sum(solved) == len(primes_up_to(cert.u // 2)), solved
    rational = None if delta is None else Rational(*map(int, delta.split("/")))
    staged = _staged_certificate(x, q, b, rational)
    assert certificate_to_json(staged) == path.read_text()


@pytest.mark.parametrize("x, q, b", [
    # u // 2 = isqrt(x): the forced classes solve no root past the count's
    (10**7, 10007, 3),
    # u // 2 > isqrt(x): they solve the primes past the count's
    (10**6, 678, 581),
])
def test_measured_cover_and_strict_verify_solve_each_root_once(
    tmp_path, monkeypatch, x, q, b
):
    # the table keeps the count's roots: the forced classes solve only the
    # primes past isqrt(x), and one totient of q serves both solves
    solved, phis = [], collections.Counter()
    progression_roots, totient = sieve._progression_roots, arith.totient

    def recording_roots(primes, *args):
        solved.append(primes.tolist())
        return progression_roots(primes, *args)

    def counting_totient(n):
        phis[n] += 1
        return totient(n)

    monkeypatch.setattr(sieve, "_progression_roots", recording_roots)
    for module in (arith, sieve):
        monkeypatch.setattr(module, "totient", counting_totient)
    path = tmp_path / "cert.json"
    root = math.isqrt(x)
    for command in (["cover", "--x", str(x), "--q", str(q), "--b", str(b),
                     "--out", str(path)],
                    ["verify", str(path), "--strict"]):
        solved.clear()
        phis.clear()
        assert cli.main(command) == 0, command
        cert, _ = certificate_from_dict(json.loads(path.read_text()))
        forced = [p for p in primes_up_to(cert.u // 2) if p > root]
        assert solved == [primes_up_to(root)] + ([forced] if forced else []), command
        assert phis == {q: 1}, command


def test_cover_and_strict_verify_reach_each_stage_by_its_public_name(tmp_path, monkeypatch):
    # each stage is wrapped in every gapforge module that binds it, as the
    # benchmark's tracer wraps them, so a call by another name goes uncounted
    calls = collections.Counter()
    stages = {"prime_count_ap": sieve, "forced_classes": covering,
              "match_large_primes": covering, "verify_certificate": covering}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, module in stages.items():
        original = getattr(module, name)
        for bound in (gapforge, cli, covering, jacobsthal, sieve):
            if getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counting(name, original))
    path = tmp_path / "cert.json"
    for command in (["cover", "--x", "1000000", "--q", "678", "--b", "581",
                     "--out", str(path)],
                    ["verify", str(path), "--strict"]):
        calls.clear()
        assert cli.main(command) == 0, command
        assert calls == dict.fromkeys(stages, 1), command


@pytest.mark.parametrize("x, q, b, delta", [
    # u // 2 = isqrt(x): the forced classes solve no root past the count's
    (10**7, 10007, 3, None),
    # u // 2 > isqrt(x): they solve the primes past the count's
    (10**6, 678, 581, None),
    # delta given: cover counts nothing, strict verify counts and rebuilds
    (13560581, 678, 581, "1/10"),
])
def test_cover_and_strict_verify_factor_q_twice(tmp_path, monkeypatch, x, q, b, delta):
    # one totient of q serves delta and every root solve of a command, and
    # greedy_cover factors q once more; factorize is replaced in every
    # gapforge module that binds it
    factored = collections.Counter()
    factorize = arith.factorize

    def counting_factorize(n):
        factored[n] += 1
        return factorize(n)

    bound = [m for m in (arith, cli, covering, jacobsthal, sieve)
             if getattr(m, "factorize", None) is factorize]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, "factorize", counting_factorize)
    path = tmp_path / "cert.json"
    argv = ["cover", "--x", str(x), "--q", str(q), "--b", str(b), "--out", str(path)]
    for command in (argv + (["--delta", delta] if delta else []),
                    ["verify", str(path), "--strict"]):
        factored.clear()
        assert cli.main(command) == 0, command
        assert factored[q] == 2, (command, factored)
