"""Certificates, witness reports and bounds pinned by digest.

The digests were taken when the package still held one ResidueClass object
per class; a certificate or report that changes by one byte fails here.
They cover the small example, a 12,930-class certificate under an assumed
deficit, and a measured one whose witness runs past the 4300-digit limit.
Each case runs again at the lowest int/str digit limit, 640, and must give
the same bytes.
"""

import hashlib
import json

import pytest

from gapforge.cli import main
from gapforge.jacobsthal import jacobsthal_bound_from_certificate
from gapforge.model import certificate_from_dict

GOLDEN = [
    (["--x", "10000", "--q", "101", "--b", "100"],
     "246224dc75268a2c1f7d7a61a965c5b7a0ef0b3cc4efc15ba18b98ce64c87b46",
     "7909e272d5030121f6899db5fa042d223a71dfff9567bcf0d928ff8e1c0ac876",
     (100, 100)),
    (["--x", "13560581", "--q", "678", "--b", "581", "--delta", "1/10"],
     "d967673b092c9d79185277e9cb3e64643b9be8ed54c313c460f8b26f0f77e8fc",
     "efc73d510f9bb2f50c83f7f9c15ed882fd560d4aaff2e487511c2b404fb293b8",
     (20002, 20206)),
    (["--x", "10000000", "--q", "10007", "--b", "3"],
     "47aa668ed9440f8ff8bd22ce241c8aa0dee3a6f342206199739279ce76058a35",
     "f202b4aa253edd828e9c0ee05d70e3700a7281bb14346af6c24d25757346d2eb",
     (1001, 1006)),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv, certificate, report, bound", GOLDEN,
                         ids=["1e4", "h4", "1e7"])
def test_golden_certificate_report_and_bound(tmp_path, capsys, argv, certificate,
                                             report, bound):
    path = tmp_path / "cert.json"
    assert main(["cover", *argv, "--witness", "--out", str(path)]) == 0
    capsys.readouterr()
    assert _sha256(path.read_bytes()) == certificate
    assert main(["verify", str(path), "--witness", "--format", "json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == report
    cert, _ = certificate_from_dict(json.loads(path.read_text()))
    val = jacobsthal_bound_from_certificate(cert)
    assert (val.value, val.witness.gap) == bound


@pytest.mark.parametrize("argv, certificate, report, bound", GOLDEN,
                         ids=["1e4", "h4", "1e7"])
def test_golden_at_the_lowest_digit_limit(tmp_path, capsys, lowest_digit_limit, argv,
                                          certificate, report, bound):
    test_golden_certificate_report_and_bound(tmp_path, capsys, argv, certificate,
                                             report, bound)
