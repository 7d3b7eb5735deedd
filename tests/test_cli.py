import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import gapforge as gf
from gapforge import cli, covering, model
from gapforge.cli import _parse_delta, main
from gapforge.errors import DomainError, InsufficientPrimes, InvalidCertificate
from gapforge.model import Rational, certificate_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*argv):
    """argv run by a fresh interpreter with gapforge on its path, as a
    console script runs: its exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.path.dirname(os.path.dirname(gf.__file__)))
    done = subprocess.run([sys.executable, *argv], capture_output=True,
                          encoding="utf-8", env=env, check=False)
    return done.returncode, done.stdout, done.stderr


def test_gaps_table(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "1000")
    assert code == 0
    assert out.strip() == "G(1000) = 20 (887 → 907)"


def test_gaps_small_limit_uses_inclusive_convention(capsys):
    # endpoints <= x, so the scan at 5 sees the gap (3, 5)
    code, out, _ = run(capsys, "gaps", "--limit", "5")
    assert code == 0
    assert out.strip() == "G(5) = 2 (3 → 5)"


def test_gaps_json(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"gap": 8, "lo": 89, "hi": 97}


def test_gaps_csv(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "100", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gap,lo,hi"
    assert lines[1] == "8,89,97"


def test_jacobsthal_lines(capsys):
    code, out, _ = run(capsys, "jacobsthal", "--u", "3")
    assert code == 0
    assert out.strip() == "J(3) = 4"
    code, out, _ = run(capsys, "jacobsthal", "--u", "2")
    assert code == 0
    assert out.strip() == "J(2) = 2"


def test_jacobsthal_period_exit(capsys):
    # half of primorial(31) is over the default scan budget of 2**33
    code, _, err = run(capsys, "jacobsthal", "--u", "31")
    assert code == 3
    assert "period" in err.lower()


def test_pi_ap(capsys):
    code, out, _ = run(capsys, "pi-ap", "--x", "100", "--q", "4", "--b", "3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 13
    assert obj["delta"] == {"num": 13, "den": 50}


def test_least_prime_refuses_past_proven_range(capsys):
    code, out, err = run(capsys, "least-prime", "--q", str(2**64), "--b", "1",
                         "--limit", str(2**70))
    assert code == 1
    assert out == ""
    assert "unproven" in err


def test_least_prime(capsys):
    code, out, _ = run(capsys, "least-prime", "--q", "25", "--b", "1",
                       "--limit", "200")
    assert code == 0
    assert "L(25, 1) = 101" in out
    code, out, _ = run(capsys, "least-prime", "--q", "25", "--b", "1",
                       "--limit", "100", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "q": 25, "b": 1, "limit": 100, "found": False, "prime": None,
    }


def test_cover_writes_file_and_prints_bound(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "cover", "--x", "10000", "--q", "101",
                       "--b", "100", "--out", str(out_path))
    assert code == 0
    assert "J(565) ≥ 9900/101" in out
    obj = json.loads(out_path.read_text())
    assert obj["x"] == 10000 and obj["u"] == 565 and obj["y"] == 98
    assert "witness" not in obj


def test_cover_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "cover", "--x", "10000", "--q", "101",
                         "--b", "100", "--witness", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cover_then_verify_strict_witness(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "cover", "--x", "10000", "--q", "101",
                     "--b", "100", "--witness", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_path), "--strict", "--witness")
    assert code == 0
    assert "[FAIL]" not in out
    assert "witness_matches_stored" in out


def test_cover_delta_override_empty_progression(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "cover", "--x", "100", "--q", "25", "--b", "1",
                       "--delta", "0", "--out", str(out_path))
    assert code == 0
    assert "J(21) ≥ 99/25" in out
    code, _, _ = run(capsys, "verify", str(out_path), "--strict", "--witness")
    assert code == 0


def test_cover_accepts_decimal_and_fraction_delta(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "cover", "--x", "100", "--q", "4", "--b", "3",
        "--delta", "13/50", "--out", str(a))
    run(capsys, "cover", "--x", "100", "--q", "4", "--b", "3",
        "--delta", "0.26", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["u"] == 388


@pytest.mark.parametrize("text", [
    "13/50", "0.26", " 0.26 ", "+0.26", ".5", "1.", "00.5", "2.6e-1", "2.6E-1",
    "1_0/1_00", "2_5e-0_2", "0", "-0", "-0/3", "0e5", "0e99999", "1", "1/1",
    "10e-1", "0.1e1", "1e-300",
])
def test_delta_text_reads_as_fraction_reads_it(text):
    f = Fraction(text)
    assert _parse_delta(text) == Rational(f.numerator, f.denominator)


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


@pytest.mark.parametrize("text, why", [
    ("1e-1000000", "has more than"),
    ("1e-99999999999999999999", "has more than"),
    ("1e99999999999999999999", "has more than"),
    ("0e-99999", "has more than"),
    ("1" * 100_000, "has more than"),
    ("1/" + "7" * 100_000, "has more than"),
    ("0." + "0" * 100_000 + "1", "has more than"),
    ("1e400", "must lie in [0, 1]"),
    ("-0.5", "must lie in [0, 1]"),
    ("3/2", "must lie in [0, 1]"),
    ("1/0", "has a zero denominator"),
    ("1e", "is neither a fraction a/b nor a decimal"),
    ("1/2.0", "is neither a fraction a/b nor a decimal"),
    ("nan", "is neither a fraction a/b nor a decimal"),
], ids=lambda v: v[:24])
def test_cover_refuses_a_bad_delta_quoting_its_text(capsys, text, why):
    # refused from the text alone, before the progression is read: the
    # message quotes the text cut to 40 characters, never the value
    code, out, err = run(capsys, "cover", "--x", "100", "--q", "7", "--b", "3",
                         "--delta", text)
    shown = repr(text if len(text) <= 40 else text[:40] + "...")
    assert (code, out) == (1, "")
    assert err.startswith(f"invalid parameters: delta {shown} {why}")
    assert err.count("\n") == 1 and len(err) < 150


def test_delta_digit_limit_is_the_interpreters():
    limit = _digit_limit()
    fits = [f"1e-{limit - 1}", "0." + "0" * (limit - 2) + "1", "1/" + "1" * limit]
    for text in fits:
        assert _parse_delta(text).den >= 10 ** (limit - 2)
    for text in (f"1e-{limit}", "0." + "0" * (limit - 1) + "1", "1/" + "1" * (limit + 1)):
        with pytest.raises(DomainError, match=f"has more than {limit} digits"):
            _parse_delta(text)


def test_delta_digit_limit_at_the_lowest_limit(lowest_digit_limit):
    test_delta_digit_limit_is_the_interpreters()


def test_delta_past_the_limit_builds_no_power_of_ten():
    # Fraction("1e-1000000") builds a 415 KB 10**1000000 first
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            _parse_delta("1e-1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50_000


def test_cover_bad_progression_exit(capsys):
    code, _, err = run(capsys, "cover", "--x", "100", "--q", "99", "--b", "33")
    assert code == 1
    assert "invalid parameters" in err
    # gcd(98, 99) = 1, so this neighbour is perfectly valid
    code, _, _ = run(capsys, "cover", "--x", "100", "--q", "99", "--b", "98")
    assert code == 0


def test_cover_exits_4_when_the_fresh_primes_run_out(capsys):
    code, out, err = run(capsys, "cover", "--x", "44", "--q", "3", "--b", "1",
                         "--delta", "0")
    assert (code, out) == (4, "")
    assert err == ("matching impossible: need 3 fresh primes but only 2 available; "
                   "sufficient condition |N'| <= u/(5 ln u) fails\n")


def test_cover_warns_when_the_sufficient_condition_fails():
    # |N'| = 1453 survivors at u = 42643, past u/(5 ln u) ~ 799: the
    # matching still succeeds on the actual primes in (u/2, u], and the
    # one line on stderr says so
    code, out, err = fresh("-m", "gapforge.cli", "cover", "--x", "2020003",
                           "--q", "101", "--b", "3", "--delta", "1/50")
    assert (code, out) == (0, "J(42643) ≥ 2020000/101\n")
    assert err == ("matching 1453 survivors at u=42643: the sufficient condition "
                   "|N'| <= u/(5 ln u) fails, proceeding on the actual prime supply\n")


def test_cover_warning_and_the_matching_read_one_predicate(capsys, monkeypatch):
    # the inputs of the test above: the predicate fails at |N'| = 1453 and
    # u = 42643, a refused matching there reports it, and cover warns
    # exactly when it fails
    u = 42643
    assert not covering._condition_holds(1453, u)
    fresh = len(gf.primes_in_range(u // 2, u))
    with pytest.raises(InsufficientPrimes) as exc:
        covering.match_large_primes(list(range(fresh + 1)), u)
    assert exc.value.condition_holds is covering._condition_holds(fresh + 1, u) is False
    asked = []
    for holds in (False, True):
        monkeypatch.setattr(cli, "_condition_holds",
                            lambda n, u, holds=holds: asked.append((n, u)) or holds)
        code, out, err = run(capsys, "cover", "--x", "2020003", "--q", "101", "--b", "3",
                             "--delta", "1/50")
        assert (code, out) == (0, "J(42643) ≥ 2020000/101\n")
        assert (err == "") is holds
    assert asked == [(1453, u)] * 2


def test_import_loads_no_logging():
    code, out, err = fresh("-c", "import sys, gapforge, gapforge.cli; "
                                 "print('logging' in sys.modules)")
    assert (code, out, err) == (0, "False\n", "")


def test_cover_into_a_missing_directory_exits_6(tmp_path, capsys):
    path = tmp_path / "missing" / "c.json"
    code, out, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                         "--out", str(path))
    assert (code, out) == (6, "")
    assert err.startswith("i/o failure: ") and str(path) in err
    assert not path.parent.exists()


def test_cover_json_stdout_is_the_written_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, out, _ = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--witness", "--format", "json", "--out", str(path))
    assert code == 0
    assert out.encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("extra, texts", [
    ([], 0), (["--witness"], 0), (["--format", "csv", "--witness"], 0),
    (["--format", "json"], 1), (["--out", "c.json", "--witness"], 1),
    (["--format", "json", "--out", "c.json"], 1),
])
def test_cover_builds_the_text_only_to_print_or_store_it(tmp_path, capsys, monkeypatch,
                                                         extra, texts):
    built, witnesses = [], []
    monkeypatch.setattr(cli, "certificate_to_json",
                        lambda *a: built.append(a) or model.certificate_to_json(*a))
    monkeypatch.setattr(cli, "witness_of_verified",
                        lambda *a: witnesses.append(a) or covering.witness_of_verified(*a))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100", *extra)
    assert (code, err, len(built)) == (0, "", texts)
    # --witness still computes the witness, whose failure would set the exit code
    assert len(witnesses) == ("--witness" in extra)
    if not texts:
        assert out in ("J(565) ≥ 9900/101\n", "u,y,bound_num,bound_den\r\n565,98,9900,101\r\n")


def test_scenario_without_log_q_and_delta_exits_1(capsys):
    assert run(capsys, "scenario", "--B", "2") == (
        1, "", "scenario needs --log-q and --delta (or --sweep)\n")


def test_verify_mutated_certificate(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
        "--out", str(out_path))
    obj = json.loads(out_path.read_text())
    dropped = next(
        i for i, c in enumerate(obj["classes"]) if c["kind"] == "matched"
    )
    del obj["classes"][dropped]
    out_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 5
    assert "covers_range" in out and "n=" in out


def test_verify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 6
    missing = tmp_path / "missing.json"
    code, _, _ = run(capsys, "verify", str(missing))
    assert code == 6
    nocert = tmp_path / "nocert.json"
    nocert.write_text('{"x": 5}')
    code, _, _ = run(capsys, "verify", str(nocert))
    assert code == 6


def test_verify_deeply_nested_json_exits_6(tmp_path, capsys):
    # json.loads raises RecursionError for nesting past the stack limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "verify", str(deep), "--strict")
    assert (code, out) == (6, "")
    assert err.startswith("cannot load certificate: maximum recursion depth exceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind, message", [
    ("bogus", "'bogus' is not a valid ClassKind"),
    (["matched"], "['matched'] is not a valid ClassKind"),
    ({"kind": "matched"}, "{'kind': 'matched'} is not a valid ClassKind"),
])
def test_verify_unknown_or_unhashable_kind_exits_6(tmp_path, capsys, kind, message):
    path = tmp_path / "cert.json"
    run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
        "--out", str(path))
    obj = json.loads(path.read_text())
    obj["classes"][-1]["kind"] = kind
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 6 and out == ""
    assert err == f"cannot load certificate: {message}\n"


def _set_first_p_float(obj):
    obj["classes"][0]["p"] += 0.9  # 2.9: int() would read the prime 2


def _set_first_p_string(obj):
    obj["classes"][0]["p"] = str(obj["classes"][0]["p"])


def _set_x_float(obj):
    obj["x"] += 0.7  # floor((x - b)/q) is unchanged


def _set_a_true(obj):
    obj["classes"][0]["a"] = True  # int(True) is 1


@pytest.mark.parametrize("change, shown", [
    (_set_first_p_float, "2.9"),
    (_set_first_p_string, "'2'"),
    (_set_x_float, "10000.7"),
    (_set_a_true, "True"),
], ids=["p_float", "p_string", "x_float", "a_bool"])
def test_verify_refuses_non_integer_fields(tmp_path, capsys, change, shown):
    # int() once truncated or coerced each field on load, and the first
    # three then passed verify --strict on a file not read as written
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--out", str(path))
    assert code == 0, err
    obj = json.loads(path.read_text())
    assert obj["classes"][0]["p"] == 2
    change(obj)
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--strict")
    assert code == 6 and out == ""
    assert err == f"cannot load certificate: expected a JSON integer, got {shown}\n"


@pytest.mark.parametrize("classes", [{}, "", "ab", {"p": 1}, 5, None],
                         ids=["object", "empty_string", "string", "record", "number", "null"])
def test_verify_refuses_classes_that_are_not_a_list(tmp_path, capsys, classes):
    # {} and "" once loaded as an empty table, which failed covers_range
    # (exit 5), and the others raised whatever iterating them raised
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--out", str(path))
    assert code == 0, err
    obj = json.loads(path.read_text())
    obj["classes"] = classes
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--strict")
    assert (code, out) == (6, "")
    assert err == ('cannot load certificate: expected "classes" to be a JSON list, '
                   f"got {classes!r}\n")


@pytest.mark.parametrize("T", ["-1", "12a", "1e5", 5])
def test_verify_witness_refuses_a_stored_T_of_other_than_digits(tmp_path, capsys, T):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--witness", "--out", str(path))
    assert code == 0, err
    obj = json.loads(path.read_text())
    obj["witness"]["T"] = T
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--witness")
    assert (code, out) == (6, "")
    assert err == f"cannot load certificate: expected a decimal digit string, got {T!r}\n"


@pytest.mark.parametrize("field", [None, "T", "P"])
def test_verify_witness_refuses_a_stored_witness_that_differs(tmp_path, capsys, field):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--witness", "--out", str(path))
    assert code == 0, err
    if field is not None:  # the last digit of the stored T or P changed
        obj = json.loads(path.read_text())
        digits = obj["witness"][field]
        obj["witness"][field] = digits[:-1] + str((int(digits[-1]) + 1) % 10)
        path.write_text(json.dumps(obj, indent=2) + "\n")
    code, out, err = run(capsys, "verify", str(path), "--witness")
    assert err == ""
    assert "[PASS] witness_validates" in out
    if field is None:
        assert code == 0 and "[PASS] witness_matches_stored" in out
    else:
        assert code == 5 and "[FAIL] witness_matches_stored" in out


def test_verify_reports_a_witness_that_fails_its_own_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100",
                       "--out", str(path))
    assert code == 0, err

    def uncovered(cert, product):
        raise InvalidCertificate("gcd(T+7, P) = 1; witness is not covered")

    monkeypatch.setattr(cli, "witness_of_verified", uncovered)
    code, out, err = run(capsys, "verify", str(path), "--witness")
    assert (code, err) == (5, "")
    assert out.splitlines()[-1] == (
        "[FAIL] witness_validates: gcd(T+7, P) = 1; witness is not covered")


def test_cover_of_a_certificate_that_fails_its_own_check_exits_5(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise InvalidCertificate("covers_range: n=3 is covered by no class")

    monkeypatch.setattr(cli, "build_certificate", refused)
    assert run(capsys, "cover", "--x", "10000", "--q", "101", "--b", "100") == (
        5, "", "certificate invalid: covers_range: n=3 is covered by no class\n")


def _hostile_anchor_certificate(tmp_path, capsys, fault):
    """The valid certificate of (1e7, 10007, 3), then one field broken."""
    good = tmp_path / "anchor.json"
    code, _, _ = run(capsys, "cover", "--x", "10000000", "--q", "10007",
                     "--b", "3", "--out", str(good))
    assert code == 0
    obj = json.loads(good.read_text())
    if fault == "p_zero":
        obj["classes"][0]["p"] = 0
    else:
        obj["y"] = -5
    bad = tmp_path / f"anchor.{fault}.json"
    bad.write_text(json.dumps(obj, indent=2) + "\n")
    return bad


@pytest.mark.parametrize("fault, check", [("p_zero", "kind_placement"),
                                          ("y_negative", "covers_range")])
def test_verify_hostile_certificate_fails_closed(tmp_path, capsys, fault, check):
    bad = _hostile_anchor_certificate(tmp_path, capsys, fault)
    for extra in ((), ("--strict",)):
        code, out, err = run(capsys, "verify", str(bad), *extra, "--format", "json")
        assert code == 5, (extra, err)
        failed = {e["check"] for e in json.loads(out) if not e["pass"]}
        assert check in failed, (extra, failed)


def test_cover_witness_beyond_int_str_digit_limit(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000000", "--q", "1009",
                       "--b", "1", "--witness", "--out", str(out_path))
    assert code == 0, err
    obj = json.loads(out_path.read_text())
    assert len(obj["witness"]["P"]) > 4300
    code, out, _ = run(capsys, "verify", str(out_path), "--witness")
    assert code == 0
    assert "[PASS] witness_matches_stored" in out
    # a stored P longer than the class primes allow is refused unparsed
    obj["witness"]["P"] += "0" * sum(len(str(c["p"])) for c in obj["classes"])
    out_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "verify", str(out_path), "--witness")
    assert code == 6
    assert "digits" in err


def test_verify_json_report_is_pure_json(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run(capsys, "cover", "--x", "100", "--q", "25", "--b", "1",
        "--delta", "0", "--out", str(out_path))
    code, out, _ = run(capsys, "verify", str(out_path), "--strict",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert all(set(entry) == {"check", "pass", "detail"} for entry in report)
    assert all(entry["pass"] for entry in report)


def test_scan_top_rows_sorted(capsys):
    code, out, _ = run(capsys, "scan", "--x", "10000", "--qmin", "3",
                       "--qmax", "50", "--top", "5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 5
    deltas = [r["delta"]["num"] / r["delta"]["den"] for r in rows]
    assert deltas == sorted(deltas)
    for row in rows:
        assert math.gcd(row["b"], row["q"]) == 1


def test_scan_includes_empty_progressions(capsys):
    code, out, _ = run(capsys, "scan", "--x", "100", "--qmin", "97",
                       "--qmax", "97", "--top", "100", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    zero_b = {r["b"] for r in rows if r["delta"]["num"] == 0}
    assert 96 in zero_b


def test_scan_refuses_negative_top(capsys):
    code, out, err = run(capsys, "scan", "--x", "100", "--qmin", "3",
                         "--qmax", "10", "--top", "-2")
    assert code == 1 and out == ""
    assert err == "invalid parameters: need top >= 0, got -2\n"


def test_scan_refuses_rows_past_the_budget(capsys):
    # every unit of every q < 3000 is a row under this top: 2.7M rows, which
    # used to peak near 3 GB; the scan now stops at the 940th row held
    code, out, err = run(capsys, "scan", "--x", "3000", "--qmin", "2", "--qmax", "3000",
                         "--top", "1000000000", "--format", "json",
                         "--memory-budget", "1000000")
    assert (code, out) == (2, "")
    assert err == ("resource limit: scan holds 939 rows of about 1100 bytes, "
                   "over the 1000000-byte budget\n")


@pytest.mark.parametrize("x", [5000, 65536, 99991, 10**6 + 1])
def test_scan_refuses_the_prime_list_past_the_budget(capsys, x):
    # the flags up to x take x // 2 or so bytes, but the scan keeps the
    # x + 1-byte rule of a prime table, and its text
    argv = ["scan", "--x", str(x), "--qmin", "3", "--qmax", "8", "--top", "1",
            "--format", "json"]
    code, out, err = run(capsys, *argv, "--memory-budget", str(x))
    assert (code, out) == (2, "")
    assert err == (f"resource limit: prime list needs the primes up to {x}, "
                   f"over the {x}-byte budget\n")
    code, want, _ = run(capsys, *argv)
    for budget in (x + 1, x + 2):
        assert run(capsys, *argv, "--memory-budget", str(budget)) == (0, want, "")


def test_scan_huge_top_returns_every_row(capsys):
    top = ["--x", "10000", "--qmin", "3", "--qmax", "50", "--format", "json"]
    code, out, _ = run(capsys, "scan", *top, "--top", "1000000000")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == sum(gf.totient(q) for q in range(3, 51))
    code, exact, _ = run(capsys, "scan", *top, "--top", str(len(rows)))
    assert code == 0 and exact == out


def test_scan_empty_range(capsys):
    code, out, _ = run(capsys, "scan", "--x", "100", "--qmin", "50",
                       "--qmax", "10", "--format", "csv")
    assert code == 0
    assert out.strip() == "q,b,count,delta_num,delta_den"


def test_scenario_single(capsys):
    code, out, _ = run(capsys, "scenario", "--log-q", "10", "--delta", "0.5",
                       "--B", "2")
    assert code == 0
    assert "log_u = 12.302585" in out
    code, _, err = run(capsys, "scenario", "--log-q", "10", "--delta", "1.0",
                       "--B", "2")
    assert code == 1
    assert "delta" in err


def test_scenario_sweep_monotone(capsys):
    code, out, _ = run(capsys, "scenario", "--sweep", "10,20,40",
                       "--delta-exponent", "2", "--B", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    surplus = [r["log_gap_bound"] - math.log(r["log_x"]) for r in rows]
    assert surplus == sorted(surplus)
    assert all(a < b for a, b in zip(surplus, surplus[1:]))


@pytest.mark.parametrize("argv", [
    ("cover", "--x", "10000", "--q", "101", "--b", "100", "--delta", "1/0"),
    ("scenario", "--sweep", "0.5", "--delta-exponent", "2000", "--B", "2"),
    ("scenario", "--log-q", "1e308", "--delta", "0.5", "--B", "10",
     "--format", "json"),
    ("scenario", "--sweep", "0", "--B", "2"),
])
def test_bad_numbers_exit_as_invalid_parameters(capsys, argv):
    # a zero denominator, a float overflow and a bound past float range
    # each exit 1 with one diagnostic line, never a traceback or non-JSON
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("invalid parameters: ") and err.count("\n") == 1


def test_json_outputs_round_trip_into_emitting_types(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out) == gf.max_prime_gap(1000).to_json()

    code, out, _ = run(capsys, "pi-ap", "--x", "100", "--q", "4", "--b", "3",
                       "--format", "json")
    assert json.loads(out) == gf.prime_count_ap(100, 4, 3).to_json()

    code, out, _ = run(capsys, "jacobsthal", "--u", "5", "--format", "json")
    assert json.loads(out) == gf.jacobsthal_exact(5).to_json()

    code, out, _ = run(capsys, "scenario", "--log-q", "10", "--delta", "0.5",
                       "--B", "2", "--format", "json")
    assert json.loads(out) == gf.scenario_bound(10, 0.5, 2).to_json()


def test_env_configuration_and_flag_precedence(capsys, monkeypatch):
    # J(7) scans a window of 108 integers: 8 * 13 = 104 is too few, 8 * 14 enough
    monkeypatch.setenv("GAPFORGE_MEMORY_BUDGET", "13")
    code, _, _ = run(capsys, "jacobsthal", "--u", "7")
    assert code == 3
    code, out, _ = run(capsys, "jacobsthal", "--u", "7", "--memory-budget", "14")
    assert code == 0  # flag wins over the environment
    assert out.strip() == "J(7) = 10"


def test_env_rejects_inconsistent_budget(capsys, monkeypatch):
    monkeypatch.setenv("GAPFORGE_MEMORY_BUDGET", "0")
    code, _, err = run(capsys, "gaps", "--limit", "100")
    assert code == 1
    assert "bad configuration: memory_budget" in err


def test_env_names_a_malformed_variable(capsys, monkeypatch):
    monkeypatch.setenv("GAPFORGE_MEMORY_BUDGET", "1e6")
    code, _, err = run(capsys, "gaps", "--limit", "100")
    assert code == 1
    assert err.strip() == "bad configuration: GAPFORGE_MEMORY_BUDGET='1e6' is not an integer"


def test_memory_budget_is_the_only_setting(capsys, monkeypatch):
    assert [f.name for f in dataclasses.fields(gf.Config)] == ["memory_budget"]
    # the segment length is no setting: its variable is not read, its flag
    # is not an option
    monkeypatch.setenv("GAPFORGE_SEGMENT_SIZE", "junk")
    code, out, _ = run(capsys, "gaps", "--limit", "100")
    assert (code, out) == (0, "G(100) = 8 (89 → 97)\n")
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "--limit", "100", "--segment-size", "65536"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --segment-size" in capsys.readouterr().err


def test_memory_budget_must_be_positive(capsys):
    for budget in ("0", "-1"):
        code, _, err = run(capsys, "gaps", "--limit", "100", "--memory-budget", budget)
        assert code == 1
        assert f"bad configuration: memory_budget must be >= 1, got {budget}" in err
    # a small budget on its own is a valid configuration
    code, out, _ = run(capsys, "gaps", "--limit", "100", "--memory-budget", "65536")
    assert code == 0
    assert out.strip() == "G(100) = 8 (89 → 97)"
    code, out, _ = run(capsys, "pi-ap", "--x", "1000", "--q", "10", "--b", "3",
                       "--memory-budget", "100000")
    assert code == 0
    assert out.startswith("pi(1000; 10, 3) = ")


def test_resource_limit_exit(capsys):
    code, _, err = run(capsys, "gaps", "--limit", "10000000",
                       "--memory-budget", str(1 << 17))
    assert code == 2
    assert "resource" in err.lower()


def test_forced_classes_respect_the_memory_budget(capsys):
    # the forced table lists the primes up to u/2 and needs u/2 + 1 bytes;
    # with delta given, no other stage needs as much at this (x, q, b)
    x, q, b = 10**8, 10_007, 3
    half = gf.compute_u(x, q, gf.Rational(1, 5)) // 2
    argv = ["cover", "--x", str(x), "--q", str(q), "--b", str(b), "--delta", "1/5"]
    code, _, err = run(capsys, *argv, "--memory-budget", str(half + 1))
    assert code == 0, err
    code, _, err = run(capsys, *argv, "--memory-budget", str(half))
    assert code == 2
    # the table's own check refuses before the sieve allocates
    assert err == (f"resource limit: prime list needs the primes up to {half}, "
                   f"over the {half}-byte budget\n")


def test_cached_parser_leaks_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    pi_ap = ["pi-ap", "--x", "100", "--q", "4", "--b", "3"]
    code, out, _ = run(capsys, "--format", "json", *pi_ap)
    assert code == 0
    assert json.loads(out)["count"] == 13
    code, out, _ = run(capsys, *pi_ap)
    assert code == 0
    assert out.startswith("pi(100; 4, 3) = 13 ")
    # a budget given once does not stay for the next call
    gaps = ["gaps", "--limit", "600000"]
    code, _, err = run(capsys, *gaps, "--memory-budget", "65536")
    assert code == 2, err
    code, out, _ = run(capsys, *gaps)
    assert code == 0
    assert out.startswith("G(600000) = ")
    # an argparse error leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        main(["pi-ap", "--x", "100"])
    assert exc.value.code == 2
    code, out, _ = run(capsys, *pi_ap)
    assert code == 0
    assert out.startswith("pi(100; 4, 3) = 13 ")


def test_verify_refuses_class_prime_above_64_bits(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101",
                       "--b", "100", "--out", str(out_path))
    assert code == 0, err
    # the witness path combines the classes outside the forced congruence
    # through covering._crt: a valid certificate reaches it, so the refusal
    # below is the guard's doing
    combined = []
    crt = covering._crt

    def recording_crt(tree, residues):
        combined.append(len(tree[0]))
        return crt(tree, residues)

    monkeypatch.setattr(covering, "_crt", recording_crt)
    code, out, _ = run(capsys, "verify", str(out_path), "--witness")
    assert code == 0
    assert "[PASS] witness_validates" in out
    kinds = [cls["kind"] for cls in json.loads(out_path.read_text())["classes"]]
    assert combined == [kinds.count("greedy") + kinds.count("matched")]

    obj = json.loads(out_path.read_text())
    for cls in obj["classes"]:
        if cls["kind"] == "matched":
            cls["kind"] = "forced"
    obj["u"] = 2**89
    obj["classes"].append({"p": 2**89 - 1, "a": 0, "kind": "matched"})
    out_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(out_path), "--format", "json")
    assert code == 5
    failed = [e["check"] for e in json.loads(out) if not e["pass"]]
    assert failed == ["class_primes_prime"]

    # --witness never reaches the CRT with that modulus
    def no_crt(*_):
        raise AssertionError("combined a modulus of unproven primality")

    monkeypatch.setattr(covering, "_crt", no_crt)
    code, out, _ = run(capsys, "verify", str(out_path), "--witness", "--format", "json")
    assert code == 5
    entries = {e["check"]: e for e in json.loads(out)}
    assert not entries["class_primes_prime"]["pass"]
    assert entries["witness_validates"]["detail"].startswith("skipped")



def test_strict_verify_of_a_huge_x_fails_closed(tmp_path, capsys):
    # strict re-measures delta up to x; at x = 2**70 the progression sieve
    # refuses before it allocates, and the report says so
    obj = certificate_to_dict(gf.build_certificate(10**4, 101, 100))
    obj["x"] = 2**70
    obj["y"] = (obj["x"] - obj["b"]) // obj["q"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path), "--strict", "--format", "json")
    assert code == 5, err
    entries = {e["check"]: e for e in json.loads(out)}
    assert not entries["delta_hypothesis"]["pass"]
    assert "progression sieve" in entries["delta_hypothesis"]["detail"]
    code, _, err = run(capsys, "pi-ap", "--x", str(2**70), "--q", "101", "--b", "100")
    assert code == 2
    assert "resource limit" in err


def test_strict_verify_of_a_hostile_modulus_fails_closed(tmp_path, capsys, monkeypatch):
    # q is a product of two 64-bit primes: trial division never reaches a
    # factor and Pollard rho would need about 2**32 steps.  Strict verify
    # rebuilds with a recomputed u, which refuses before anything factors q.
    out_path = tmp_path / "cert.json"
    code, _, err = run(capsys, "cover", "--x", "10000", "--q", "101",
                       "--b", "100", "--out", str(out_path))
    assert code == 0, err
    obj = json.loads(out_path.read_text())
    obj["q"] = (2**64 - 59) * (2**64 - 83)
    obj["b"] = 1
    obj["x"] = 2 * obj["q"] + 1
    obj["y"] = 2
    hostile = tmp_path / "hostile.json"
    hostile.write_text(json.dumps(obj))
    factored = []
    factorize = covering.factorize

    def recording_factorize(n):
        factored.append(n)
        if n >= 2**64:
            raise AssertionError(f"factorize called on {n}")
        return factorize(n)

    monkeypatch.setattr(covering, "factorize", recording_factorize)
    code, out, err = run(capsys, "verify", str(hostile), "--strict", "--format", "json")
    assert code == 5, err
    assert err == ""
    entries = {e["check"]: e for e in json.loads(out)}
    assert not entries["pipeline_re_run"]["pass"]
    assert all(n < 2**64 for n in factored)


def test_jacobsthal_far_past_the_cap_exits_3(capsys):
    code, _, err = run(capsys, "jacobsthal", "--u", str(10**10))
    assert code == 3
    assert "is past the scan budget" in err


ANCHOR = ("--x", "10000000", "--q", "10007", "--b", "3")
ANCHOR_SHA256 = "d0da4d31b02fe95636e8ff071c209fb676f3e74e3ae16f7ea1153bebb9a95763"


@pytest.mark.parametrize("budget", [999, 3162])
def test_anchor_cover_refuses_below_its_progression_sieve(capsys, budget):
    # isqrt(10**7) = 3162: the count's base primes need 3163 bytes
    code, out, err = run(capsys, "cover", *ANCHOR, "--memory-budget", str(budget))
    assert (code, out) == (2, "")
    assert err == ("resource limit: progression sieve needs the primes up to 3162, "
                   f"over the {budget}-byte budget\n")


def test_anchor_certificate_at_the_tightest_budgets(tmp_path, capsys):
    # 3163 bytes hold the primes up to isqrt(x) = u // 2 = 3162; the largest
    # class prime, 3631, needs 3632, and below that the verifier proves the
    # class primes with is_prime; u = 6325
    path = tmp_path / "cert.json"
    for budget in (3163, 3631, 3632, 6325):
        code, _, err = run(capsys, "cover", *ANCHOR, "--memory-budget", str(budget),
                           "--out", str(path))
        assert code == 0, (budget, err)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ANCHOR_SHA256, budget
    refusals = {
        999: ["[FAIL] covers_range: coverage check exceeds the memory budget"],
        3162: [],
    }
    for budget, extra in refusals.items():
        code, out, err = run(capsys, "verify", str(path), "--strict",
                             "--memory-budget", str(budget))
        assert (code, err) == (5, ""), budget
        failures = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failures == extra + [
            "[FAIL] delta_hypothesis: progression sieve needs the primes up to 3162, "
            f"over the {budget}-byte budget",
            "[FAIL] pipeline_re_run: prime list needs the primes up to 3162, "
            f"over the {budget}-byte budget",
        ], budget
    for budget in (3163, 3631, 3632, 6325):
        code, out, err = run(capsys, "verify", str(path), "--strict",
                             "--memory-budget", str(budget))
        assert (code, err) == (0, ""), (budget, out)
