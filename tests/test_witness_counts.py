"""Each witness path verifies a certificate once and tests each class prime once.

verify_certificate and is_prime are replaced, in every gapforge module that
binds them, by wrappers that count their calls.
"""

import collections
import contextlib
import io
import json

import pytest

from gapforge import arith, cli, covering, sieve
from gapforge.cli import main
from gapforge.covering import build_certificate, crt_witness
from gapforge.errors import InvalidCertificate
from gapforge.jacobsthal import jacobsthal_bound_from_certificate
from gapforge.model import certificate_from_dict, certificate_to_dict

# q = 100 factors over the trial-division primes, so building the certificate
# calls is_prime on no modulus outside verification
X, Q, B = 10**4, 100, 1


@pytest.fixture
def counts(monkeypatch):
    calls = {"verify": 0, "is_prime": collections.Counter()}
    verify, is_prime = covering.verify_certificate, arith.is_prime

    def counting_verify(*args, **kwargs):
        calls["verify"] += 1
        return verify(*args, **kwargs)

    def counting_is_prime(n):
        calls["is_prime"][n] += 1
        return is_prime(n)

    for module in (covering, cli):
        monkeypatch.setattr(module, "verify_certificate", counting_verify)
    for module in (arith, covering, sieve):
        monkeypatch.setattr(module, "is_prime", counting_is_prime)
    return calls


def _run(*argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(list(argv)), sink.getvalue()


def _assert_once_each(calls, cert):
    assert calls["verify"] == 1
    assert calls["is_prime"] == collections.Counter(c.p for c in cert.classes)


def test_verify_witness_checks_once(tmp_path, counts):
    cert = build_certificate(X, Q, B)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_dict(cert)))
    counts["verify"], counts["is_prime"] = 0, collections.Counter()
    code, out = _run("verify", str(path), "--witness")
    assert code == 0, out
    assert "[PASS] witness_validates" in out
    _assert_once_each(counts, cert)


def test_cover_witness_checks_once(tmp_path, counts):
    path = tmp_path / "cert.json"
    code, out = _run("cover", "--x", str(X), "--q", str(Q), "--b", str(B),
                     "--witness", "--out", str(path))
    assert code == 0, out
    cert, stored = certificate_from_dict(json.loads(path.read_text()))
    assert stored is not None
    _assert_once_each(counts, cert)


def test_bound_from_certificate_checks_once(counts):
    cert = build_certificate(X, Q, B)
    counts["verify"], counts["is_prime"] = 0, collections.Counter()
    jacobsthal_bound_from_certificate(cert)
    _assert_once_each(counts, cert)


def test_crt_witness_still_verifies():
    cert = build_certificate(X, Q, B)
    obj = certificate_to_dict(cert)
    obj["classes"][0]["a"] = (obj["classes"][0]["a"] + 1) % obj["classes"][0]["p"]
    bad, _ = certificate_from_dict(obj)
    with pytest.raises(InvalidCertificate):
        crt_witness(bad)
