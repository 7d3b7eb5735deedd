"""Seeded fuzz of the certificate loader, the verifier and the verify exit code.

One class of a small valid certificate gets a hostile modulus and residue,
and y moves around its true value.  Moduli come from around the certificate's
own range, from its negatives, and from just below and above 2**64, where
primality stops being proven.  Whatever the input, verification must
report rather than raise, and ``gapforge verify`` must exit 0, 5 or 6,
with the same report whether the file is compact JSON or in the layout
``certificate_to_json`` writes.
The prime check fails exactly when the modulus is not a proven prime.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.cli import main
from gapforge.covering import build_certificate, verify_certificate
from gapforge.model import certificate_from_dict, certificate_to_dict

BASE = certificate_to_dict(build_certificate(10_000, 101, 100))
U, Y, N_CLASSES = BASE["u"], BASE["y"], len(BASE["classes"])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    index=st.integers(0, N_CLASSES - 1),
    p=st.one_of(st.integers(-3, U + 3), st.integers(-U - 3, -1),
                st.integers(2**64 - 3, 2**64 + 3),
                st.integers(-(2**64) - 3, -(2**64) + 3)),
    a=st.integers(-3, U + 3),
    y=st.integers(Y - 10, Y + 10),
)
def test_verify_never_raises_and_exits_in_range(index, p, a, y):
    obj = json.loads(json.dumps(BASE))
    obj["classes"][index].update(p=p, a=a)
    obj["y"] = y
    cert, _ = certificate_from_dict(obj)
    # the other moduli are primes; below 2**64 every drawn p is small or has
    # a small factor (2**64 - 3 = 13 * 3889 * 364870227143809), so trial
    # division decides it quickly
    proven = 2 <= p < 2**64 and all(p % d for d in range(2, math.isqrt(p) + 1))
    for strict in (False, True):
        report = verify_certificate(cert, strict=strict)
        assert report.entries
        failed = "class_primes_prime" in {e.check for e in report.failures}
        assert failed != proven, p
    # compact text goes through json; the writer's indented layout is read
    # into columns unless a value is too long for them
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for text in (json.dumps(obj), json.dumps(obj, indent=2) + "\n"):
            path = os.path.join(tmp, "cert.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                outcomes.append((main(["verify", path, "--strict", "--witness"]),
                                 sink.getvalue()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] in (0, 5, 6), outcomes[0][1]
