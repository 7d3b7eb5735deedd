"""Domain types and their JSON wire formats.

Arbitrary-precision integers (CRT witnesses, primorials) are plain Python
ints; they serialize as decimal strings so consumers in other languages can
parse them losslessly.  Those strings may run past the interpreter's
int/str conversion limit (4300 digits by default), so they are converted in
chunks of at most ``_DIGIT_CHUNK`` digits.  Everything else is 64-bit scale
and serializes as a JSON number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

_DIGIT_CHUNK = 4000  # digits per int/str conversion, under the 4300 default


def _int_to_decimal(n: int) -> str:
    """Decimal text of n >= 0, split by squared powers of ten into short pieces.

    Each split is a 2k-by-k division, which arith._divmod does by recursive
    division, so the conversion costs a few Karatsuba products per level
    rather than CPython's quadratic int-to-str.
    """
    from .arith import _divmod  # arith imports this module

    powers = [10**_DIGIT_CHUNK]  # powers[i] = 10 ** (_DIGIT_CHUNK * 2**i)
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def padded(m: int, i: int) -> str:  # m < powers[i], zero-padded
        if i == 0:
            return str(m).rjust(_DIGIT_CHUNK, "0")
        hi, lo = _divmod(m, powers[i - 1])
        return padded(hi, i - 1) + padded(lo, i - 1)

    return padded(n, len(powers) - 1).lstrip("0") or "0"


def _decimal_to_int(text: str, max_digits: int) -> int:
    """Parse a plain decimal string of at most max_digits digits."""
    if not isinstance(text, str) or not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a decimal digit string, got {text!r:.40}")
    if len(text) > max_digits:
        raise ValueError(f"{len(text)} digits, over the {max_digits} the class primes allow")
    return _parse_digits(text)


def _parse_digits(text: str) -> int:
    if len(text) <= _DIGIT_CHUNK:
        return int(text)
    width = _DIGIT_CHUNK
    while 2 * width < len(text):
        width *= 2
    # text[:-width] is at most width digits long, so the split halves it
    return _parse_digits(text[:-width]) * 10**width + _parse_digits(text[-width:])


@dataclass(frozen=True)
class Rational:
    """Non-negative rational kept in lowest terms, den > 0."""

    num: int
    den: int = 1

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if self.num < 0:
            raise ValueError("negative rationals do not occur here")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    def __float__(self) -> float:
        return self.num / self.den

    def __le__(self, other: "Rational") -> bool:
        return self.num * other.den <= other.num * self.den

    def __lt__(self, other: "Rational") -> bool:
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def to_json(self) -> dict:
        return {"num": self.num, "den": self.den}

    @classmethod
    def from_json(cls, obj: dict) -> "Rational":
        return cls(int(obj["num"]), int(obj["den"]))


class ClassKind(Enum):
    FORCED = "forced"
    GREEDY = "greedy"
    MATCHED = "matched"


# one dict lookup per class instead of the Enum.__call__ machinery
_KIND_BY_TEXT = {kind.value: kind for kind in ClassKind}


@dataclass(frozen=True)
class ResidueClass:
    """The class a mod p, tagged with how the pipeline chose it."""

    p: int
    a: int
    kind: ClassKind

    def to_json(self) -> dict:
        return {"p": self.p, "a": self.a, "kind": self.kind.value}

    @classmethod
    def from_json(cls, obj: dict) -> "ResidueClass":
        text = obj["kind"]
        try:
            kind = _KIND_BY_TEXT[text]
        except (KeyError, TypeError):  # unknown or unhashable, as ClassKind(text)
            raise ValueError(f"{text!r} is not a valid ClassKind") from None
        return cls(int(obj["p"]), int(obj["a"]), kind)


@dataclass(frozen=True)
class GapRecord:
    """A gap between consecutive members of some set, with witnesses.

    hi - lo = gap, and no member of the set lies strictly between lo and hi.
    Witnesses from certificate-derived records may exceed 64 bits.
    """

    gap: int
    lo: int
    hi: int

    def to_json(self) -> dict:
        return {"gap": self.gap, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, obj: dict) -> "GapRecord":
        return cls(int(obj["gap"]), int(obj["lo"]), int(obj["hi"]))


@dataclass(frozen=True)
class ProgressionStats:
    """Measured prime count in the progression b mod q up to x.

    delta is the exact deficit parameter count * phi(q) / x.
    """

    q: int
    b: int
    x: int
    count: int
    delta: Rational

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "b": self.b,
            "x": self.x,
            "count": self.count,
            "delta": self.delta.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProgressionStats":
        return cls(
            q=int(obj["q"]),
            b=int(obj["b"]),
            x=int(obj["x"]),
            count=int(obj["count"]),
            delta=Rational.from_json(obj["delta"]),
        )


@dataclass(frozen=True)
class JacobsthalValue:
    """A value of (or lower bound on) the maximal rough-number gap at u.

    exact values come from a full-period scan; bounds come from certificates,
    in which case value = y + 2 and gap_lower_rational carries the reported
    (x - b)/q form.
    """

    u: int
    value: int
    witness: GapRecord
    exact: bool
    gap_lower_rational: Optional[Rational] = None

    def to_json(self) -> dict:
        out = {
            "u": self.u,
            "value": self.value,
            "witness": self.witness.to_json(),
            "exact": self.exact,
        }
        if self.gap_lower_rational is not None:
            out["gap_lower_rational"] = self.gap_lower_rational.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "JacobsthalValue":
        bound = obj.get("gap_lower_rational")
        return cls(
            u=int(obj["u"]),
            value=int(obj["value"]),
            witness=GapRecord.from_json(obj["witness"]),
            exact=bool(obj["exact"]),
            gap_lower_rational=None if bound is None else Rational.from_json(bound),
        )


@dataclass(frozen=True)
class CrtWitness:
    """Integer T with T == -a_p (mod p) for each class, P the product of the primes.

    For the classes of a covering certificate, every T + n with 0 <= n <= y
    is then divisible by a class prime.
    """

    T: int
    P: int


@dataclass(frozen=True)
class ScenarioResult:
    """Log-space evaluation of the gap bound for hypothetical (q, delta, B)."""

    log_q: float
    delta: float
    B: float
    log_x: float
    log_u: float
    log_gap_bound: float

    def to_json(self) -> dict:
        return {
            "log_q": self.log_q,
            "delta": self.delta,
            "B": self.B,
            "log_x": self.log_x,
            "log_u": self.log_u,
            "log_gap_bound": self.log_gap_bound,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScenarioResult":
        return cls(**{k: float(obj[k]) for k in (
            "log_q", "delta", "B", "log_x", "log_u", "log_gap_bound")})


@dataclass(frozen=True)
class CoveringCertificate:
    """Everything needed to re-check one run of the covering construction."""

    x: int
    q: int
    b: int
    delta: Rational
    u: int
    y: int
    classes: tuple[ResidueClass, ...]
    survivors_initial: int
    survivors_after_greedy: int

    def bound_rational(self) -> Rational:
        """The reported lower-bound form (x - b)/q."""
        return Rational(self.x - self.b, self.q)


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"check": self.check, "pass": self.passed, "detail": self.detail}


@dataclass
class VerificationReport:
    entries: list[CheckResult] = field(default_factory=list)

    def add(self, check: str, passed: bool, detail: str = "") -> None:
        self.entries.append(CheckResult(check, passed, detail))

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]


def certificate_to_dict(
    cert: CoveringCertificate, witness: Optional[CrtWitness] = None
) -> dict:
    """Certificate as a JSON-ready dict with the stable field order."""
    head, tail = _certificate_fields(cert, witness)
    return {**head, "classes": [c.to_json() for c in cert.classes], **tail}


def _certificate_fields(
    cert: CoveringCertificate, witness: Optional[CrtWitness]
) -> tuple[dict, dict]:
    """The fields before "classes" and those after it, in the stable order."""
    head = {
        "x": cert.x,
        "q": cert.q,
        "b": cert.b,
        "delta": cert.delta.to_json(),
        "u": cert.u,
        "y": cert.y,
        "survivors_initial": cert.survivors_initial,
        "survivors_after_greedy": cert.survivors_after_greedy,
    }
    tail = {}
    if witness is not None:
        tail["witness"] = {
            "T": _int_to_decimal(witness.T),
            "P": _int_to_decimal(witness.P),
        }
    tail["bound"] = {
        "jacobsthal_u": cert.u,
        "gap_lower_rational": cert.bound_rational().to_json(),
    }
    return head, tail


def certificate_to_json(
    cert: CoveringCertificate, witness: Optional[CrtWitness] = None
) -> str:
    """Deterministic JSON text; identical inputs give identical bytes.

    The text is json.dumps(certificate_to_dict(cert, witness), indent=2)
    plus a newline.  An indent sends json.dumps to its pure-Python encoder,
    so the class records, nearly all of the text, are formatted here
    directly; the few other fields still go through json.dumps.
    """
    head, tail = _certificate_fields(cert, witness)
    # both dicts are non-empty: drop head's closing "\n}" and tail's "{\n"
    text = json.dumps(head, indent=2)[:-2] + ',\n  "classes": '
    if cert.classes:
        records = ",\n".join(
            f'    {{\n      "p": {c.p},\n      "a": {c.a},\n'
            f'      "kind": "{c.kind.value}"\n    }}'
            for c in cert.classes
        )
        text += "[\n" + records + "\n  ]"
    else:
        text += "[]"
    return text + ",\n" + json.dumps(tail, indent=2)[2:] + "\n"


def certificate_from_dict(obj: dict) -> tuple[CoveringCertificate, Optional[CrtWitness]]:
    """Parse a certificate dict; returns (certificate, stored witness or None).

    Raises KeyError / ValueError / TypeError on malformed input; callers that
    need an I/O-style failure should catch those.
    """
    cert = CoveringCertificate(
        x=int(obj["x"]),
        q=int(obj["q"]),
        b=int(obj["b"]),
        delta=Rational.from_json(obj["delta"]),
        u=int(obj["u"]),
        y=int(obj["y"]),
        classes=tuple(ResidueClass.from_json(c) for c in obj["classes"]),
        survivors_initial=int(obj["survivors_initial"]),
        survivors_after_greedy=int(obj["survivors_after_greedy"]),
    )
    witness = None
    if "witness" in obj:
        # P is the product of the class primes and T <= P, so neither has
        # more digits than the primes together; longer text is refused
        # before any conversion work.
        w = obj["witness"]
        digits = max(1, sum(len(str(c.p)) for c in cert.classes))
        witness = CrtWitness(
            T=_decimal_to_int(w["T"], digits),
            P=_decimal_to_int(w["P"], digits),
        )
    return cert, witness
