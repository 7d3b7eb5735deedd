"""The columnar verifier and the windowed flank search against per-class oracles.

_oracle_report is the verifier written one Python loop per check over the
classes as (p, a, kind) rows of its own, with a bytearray strike and a
per-modulus is_prime.  Its
report must equal verify_certificate's check by check, detail strings
included, on a seeded fuzz corpus and on certificates whose columns fall
back to Python ints or hold moduli below 2.  Every comparison runs with
warnings as errors: an int64 remainder by zero only warns, on stderr.

_next_rough steps one offset at a time over every prime <= u; the bound's
windowed flank search must find the same flanks, also when they lie
several windows away.
"""

import json
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge import jacobsthal
from gapforge.arith import PROVEN_LIMIT, is_prime, multi_mod
from gapforge.config import DEFAULT
from gapforge.covering import _construct, build_certificate, crt_witness, verify_certificate
from gapforge.errors import GapforgeError
from gapforge.jacobsthal import jacobsthal_bound_from_certificate
from gapforge.model import (
    Rational,
    VerificationReport,
    certificate_from_dict,
    certificate_to_dict,
)
from gapforge.sieve import _PrimeTable, prime_count_ap, primes_up_to


# one class, kind as its text; the kind codes 0, 1 and 2 name these texts
Row = namedtuple("Row", "p a kind")
KIND_TEXT = ("forced", "greedy", "matched")


def _rows(table):
    """The classes of a table as Rows of Python ints and kind texts."""
    return [Row(p, a, KIND_TEXT[k])
            for p, a, k in zip(table.p.tolist(), table.a.tolist(), table.kind.tolist())]


def _oracle_strike(y, pairs):
    flags = bytearray(y + 1)
    for a, p in pairs:
        if p >= 2:
            start = a % p
            if start <= y:
                flags[start::p] = b"\x01" * ((y - start) // p + 1)
    return flags


def _oracle_report(cert, strict=False):
    """verify_certificate, one loop per check over the class rows."""
    report = VerificationReport()
    classes = _rows(cert.classes)
    primes = [c.p for c in classes]
    distinct = len(set(primes)) == len(primes)
    report.add("class_primes_distinct", distinct, "" if distinct else "a modulus repeats")
    bad = next((p for p in primes if p < 2 or p >= PROVEN_LIMIT or not is_prime(p)), None)
    if bad is None:
        detail = ""
    elif bad >= PROVEN_LIMIT:
        detail = f"p={bad} is at or above 2**64, where primality is unproven"
    else:
        detail = f"p={bad} is not prime"
    report.add("class_primes_prime", bad is None, detail)
    over = next((p for p in primes if p > cert.u), None)
    report.add("class_primes_at_most_u", over is None,
               "" if over is None else f"p={over} exceeds u={cert.u}")
    bad_res = next((c for c in classes if not 0 <= c.a < c.p), None)
    report.add("residues_in_range", bad_res is None,
               "" if bad_res is None else f"a={bad_res.a} outside [0, {bad_res.p})")
    placement = ""
    for c in classes:
        if c.p < 2:
            placement = f"{c.kind} p={c.p} is below 2"
        elif c.kind == "matched":
            if 2 * c.p <= cert.u:
                placement = f"matched p={c.p} is not above u/2"
        elif 2 * c.p > cert.u:
            placement = f"{c.kind} p={c.p} is above u/2"
        elif c.kind == "greedy" and cert.q % c.p != 0:
            placement = f"greedy p={c.p} does not divide q"
        elif c.kind == "forced" and cert.q % c.p == 0:
            placement = f"forced p={c.p} divides q"
        if placement:
            break
    report.add("kind_placement", not placement, placement)
    y_ok = cert.q > 0 and cert.y == (cert.x - cert.b) // cert.q
    report.add("y_matches", y_ok, "" if y_ok else f"y={cert.y} but floor((x-b)/q) disagrees")
    u_ok = cert.u * cert.u > 4 * cert.x
    report.add("u_exceeds_2sqrt", u_ok, "" if u_ok else f"u^2 <= 4x at u={cert.u}")
    if cert.y < 0:
        report.add("covers_range", False, f"y={cert.y} is negative")
    elif cert.y + 1 > DEFAULT.memory_budget:
        report.add("covers_range", False, "coverage check exceeds the memory budget")
    else:
        gap = _oracle_strike(cert.y, [(c.a, c.p) for c in classes]).find(0)
        report.add("covers_range", gap == -1,
                   "" if gap == -1 else f"n={gap} is covered by no class")
    if not strict:
        return report

    def of_kind(rows, kind):
        return [c for c in rows if c.kind == kind]

    forced = of_kind(classes, "forced")
    bad_cong = next(
        (c for c in forced if c.p < 2 or (cert.q * c.a + cert.b) % c.p != 0), None)
    report.add("forced_congruence", bad_cong is None,
               "" if bad_cong is None
               else f"q*a+b != 0 mod {bad_cong.p} for a={bad_cong.a}")
    try:
        measured = prime_count_ap(cert.x, cert.q, cert.b).delta
        hypothesis = (measured <= cert.delta, f"measured {measured}, recorded {cert.delta}")
    except (GapforgeError, ValueError) as exc:
        hypothesis = (False, str(exc))
    try:
        rebuilt = _construct(cert.x, cert.q, cert.b, cert.delta, _PrimeTable(DEFAULT))
    except (GapforgeError, ValueError) as exc:
        report.add("delta_hypothesis", *hypothesis)
        report.add("pipeline_re_run", False, str(exc))
        return report
    redone = _rows(rebuilt.classes)
    same = set(forced) == set(of_kind(redone, "forced"))
    report.add("forced_classes_match", same,
               "" if same else "forced classes differ from re-derivation")
    report.add("delta_hypothesis", *hypothesis)
    report.add("u_matches_recompute", rebuilt.u == cert.u,
               "" if rebuilt.u == cert.u else f"recomputed u={rebuilt.u}, recorded {cert.u}")
    counts = (rebuilt.survivors_initial, rebuilt.survivors_after_greedy)
    recorded = (cert.survivors_initial, cert.survivors_after_greedy)
    report.add("survivor_accounting", counts == recorded,
               f"|N|={counts[0]} recorded {recorded[0]}; "
               f"|N'|={counts[1]} recorded {recorded[1]}")
    for kind, check in (("greedy", "greedy_classes_match"),
                        ("matched", "matched_classes_match")):
        same = of_kind(redone, kind) == of_kind(classes, kind)
        report.add(check, same,
                   "" if same else f"{kind} classes differ from deterministic re-run")
    return report


def _assert_reports_agree(obj):
    cert, _ = certificate_from_dict(obj)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strict in (False, True):
            got = verify_certificate(cert, strict=strict).to_json()
            assert got == _oracle_report(cert, strict).to_json(), strict
    return cert


BASE = certificate_to_dict(build_certificate(10_000, 101, 100))
U, Y, N_CLASSES = BASE["u"], BASE["y"], len(BASE["classes"])


def _copy():
    return json.loads(json.dumps(BASE))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    index=st.integers(0, N_CLASSES - 1),
    p=st.one_of(st.integers(-3, U + 3), st.integers(-U - 3, -1),
                st.integers(2**31 - 3, 2**31 + 3),
                st.integers(2**63 - 3, 2**63 + 3),
                st.integers(2**64 - 3, 2**64 + 3)),
    a=st.one_of(st.integers(-3, U + 3), st.integers(-(2**70), 2**70)),
    kind=st.sampled_from(KIND_TEXT),
    y=st.integers(Y - 10, Y + 10),
)
def test_columnar_verifier_matches_oracle_on_fuzz(index, p, a, kind, y):
    obj = _copy()
    obj["classes"][index].update(p=p, a=a, kind=kind)
    obj["y"] = y
    _assert_reports_agree(obj)


def _edit_class(i, **fields):
    def edit(obj):
        obj["classes"][i].update(fields)
    return edit


def _repeat_p(obj):
    obj["classes"][1]["p"] = obj["classes"][0]["p"]


def _every_residue_shifted_by_p(obj):
    for cls in obj["classes"]:
        cls["a"] += cls["p"]


def _u_twice_a_forced_prime(obj):
    # 2p == u: the largest forced prime sits exactly on u/2, which it may
    obj["u"] = 2 * max(c["p"] for c in obj["classes"] if c["kind"] == "forced")


def _q_past_int64(obj):
    obj["q"] = 2**89 - 1
    obj["x"] = obj["q"] * obj["y"] + obj["b"]


def _b_past_int64(obj):
    obj["b"] = -(2**70) + 3


CASES = {
    "p_2**63": _edit_class(-1, p=2**63 + 29),
    "p_2**64": _edit_class(-1, p=2**64 + 13),
    "p_zero": _edit_class(0, p=0),
    "p_one": _edit_class(3, p=1),
    "p_one_matched": _edit_class(-1, p=1),
    "p_negative": _edit_class(2, p=-7),
    "a_negative": _edit_class(4, a=-5),
    "a_at_p": _edit_class(5, a=BASE["classes"][5]["p"]),
    "a_past_p": _edit_class(-1, a=BASE["classes"][-1]["p"] + 3),
    "a_2**70": _edit_class(6, a=2**70),
    "p_repeated": _repeat_p,
    "all_shifted": _every_residue_shifted_by_p,
    "forced_as_greedy": _edit_class(0, kind="greedy"),
    "forced_as_matched": _edit_class(0, kind="matched"),
    "matched_as_forced": _edit_class(-1, kind="forced"),
    "u_twice_a_forced_prime": _u_twice_a_forced_prime,
    "q_past_int64": _q_past_int64,
    "b_past_int64": _b_past_int64,
    "unchanged": lambda obj: None,
}
# a value outside [-2**31, 2**31) puts both columns on Python ints
OBJECT_COLUMNS = {"p_2**63", "p_2**64", "a_2**70"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_columnar_verifier_matches_oracle_on_edge_cases(name):
    obj = _copy()
    CASES[name](obj)
    cert = _assert_reports_agree(obj)
    assert (cert.classes.p.dtype == object) == (name in OBJECT_COLUMNS)


def _next_rough(residues, primes, offset, step):
    """First offset from offset on, moving by step, with T + offset u-rough."""
    while not np.all((residues + offset) % primes):
        offset += step
    return offset


@pytest.mark.parametrize("x, q, b, delta", [
    (10**3, 7, 2, None),
    (10**4, 101, 100, None),
    (10**5, 113, 87, None),
    # the h4 slot of the hypothesis workload at seed 7: a lower flank
    # hundreds of offsets below T, several windows of width 1 to 64 away
    (7_700_247, 385, 247, Rational(1, 10)),
])
@pytest.mark.parametrize("window", [1, 3, 64, 1 << 10])
def test_flank_search_matches_stepping_oracle(monkeypatch, x, q, b, delta, window):
    cert = build_certificate(x, q, b, delta)
    T = crt_witness(cert).T
    primes = np.array(primes_up_to(cert.u), dtype=np.int64)
    residues = np.array(multi_mod(T, primes.tolist()), dtype=np.int64)
    lo = _next_rough(residues, primes, -1, -1)
    hi = _next_rough(residues, primes, cert.y + 1, 1)
    monkeypatch.setattr(jacobsthal, "_FLANK_WINDOW", window)
    val = jacobsthal_bound_from_certificate(cert)
    assert (val.witness.lo, val.witness.hi) == (T + lo, T + hi)
    if delta is not None and window <= 64:
        assert -lo > 2 * window  # past the first two windows


def test_flank_search_matches_stepping_oracle_on_random_residues():
    rng = np.random.default_rng(11)
    primes = np.array(primes_up_to(3000), dtype=np.int64)
    for _ in range(50):
        residues = rng.integers(0, primes)
        start = int(rng.integers(-100, 100))
        for step in (1, -1):
            expected = _next_rough(residues, primes, start, step)
            assert jacobsthal._flank(residues, primes, start, step) == expected
