"""Each witness path verifies a certificate once and proves its class primes
with one sieve table, never with is_prime.

covering.verify_certificate, which every verification runs (the verify
command and the checks of build_certificate and the gap bound alike),
is_prime and the prime-table request sieve._prime_array are replaced, in
every gapforge module that binds them, by wrappers that record their calls.
"""

import collections
import contextlib
import io
import json
import math

import pytest

from gapforge import arith, cli, covering, jacobsthal, sieve
from gapforge.cli import main
from gapforge.covering import build_certificate, crt_witness
from gapforge.errors import InvalidCertificate
from gapforge.jacobsthal import jacobsthal_bound_from_certificate
from gapforge.model import certificate_from_dict, certificate_to_dict

# q = 100 factors over the trial-division primes, so building the certificate
# calls is_prime on no modulus outside verification
X, Q, B = 10**4, 100, 1


MODULES = (arith, cli, covering, jacobsthal, sieve)


@pytest.fixture
def counts(monkeypatch):
    calls = {"verify": 0, "is_prime": collections.Counter(), "tables": []}
    verify, is_prime = covering.verify_certificate, arith.is_prime
    prime_array = sieve._prime_array

    def counting_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    def counting_is_prime(n):
        calls["is_prime"][n] += 1
        return is_prime(n)

    def recording_prime_array(n, cfg, *what):
        calls["tables"].append(n)
        return prime_array(n, cfg, *what)

    for name, original, wrapper in (
        ("verify_certificate", verify, counting_verify),
        ("is_prime", is_prime, counting_is_prime),
        ("_prime_array", prime_array, recording_prime_array),
    ):
        bound = [m for m in MODULES if getattr(m, name, None) is original]
        assert bound, name
        for module in bound:
            monkeypatch.setattr(module, name, wrapper)
    return calls


def _reset(calls):
    calls.update(verify=0, is_prime=collections.Counter(), tables=[])


def _run(*argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(list(argv)), sink.getvalue()


def _top(cert):
    return int(cert.classes.p.max())


def _assert_one_proof(calls, tables):
    """One verification, no is_prime call, and exactly these prime tables.

    The verifier's table runs up to the largest class prime; it is the one
    primality proof of the class primes.
    """
    assert calls["verify"] == 1
    assert calls["is_prime"] == collections.Counter()
    assert calls["tables"] == tables


def test_verify_witness_checks_once(tmp_path, counts):
    cert = build_certificate(X, Q, B)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_dict(cert)))
    _reset(counts)
    code, out = _run("verify", str(path), "--witness")
    assert code == 0, out
    assert "[PASS] witness_validates" in out
    _assert_one_proof(counts, [_top(cert)])


def test_cover_witness_checks_once(tmp_path, counts):
    path = tmp_path / "cert.json"
    code, out = _run("cover", "--x", str(X), "--q", str(Q), "--b", str(B),
                     "--witness", "--out", str(path))
    assert code == 0, out
    cert, stored = certificate_from_dict(json.loads(path.read_text()))
    assert stored is not None
    # the measured count lists its base primes up to isqrt(x), the builder
    # the forced primes up to u/2, and the verifier the class primes, all
    # requests to one table
    _assert_one_proof(counts, [math.isqrt(X), cert.u // 2, _top(cert)])


def test_bound_from_certificate_checks_once(counts):
    cert = build_certificate(X, Q, B)
    _reset(counts)
    jacobsthal_bound_from_certificate(cert)
    # the bound's one list of the primes up to u, then the verifier's proof
    # from the same table, which sieves nothing more
    _assert_one_proof(counts, [cert.u, _top(cert)])


def test_crt_witness_still_verifies():
    cert = build_certificate(X, Q, B)
    obj = certificate_to_dict(cert)
    obj["classes"][0]["a"] = (obj["classes"][0]["a"] + 1) % obj["classes"][0]["p"]
    bad, _ = certificate_from_dict(obj)
    with pytest.raises(InvalidCertificate):
        crt_witness(bad)
