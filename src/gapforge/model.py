"""Domain types and their JSON wire formats.

Arbitrary-precision integers (CRT witnesses, primorials) are plain Python
ints; they serialize as decimal strings so consumers in other languages can
parse them losslessly.  Those strings may run past the interpreter's
int/str conversion limit (4300 digits by default), so they are converted in
pieces of at most ``_DIGIT_CHUNK`` digits, fewer under a lower limit.
Everything else is 64-bit scale and serializes as a JSON number.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

import numpy as np

from .arith import COLUMN_LIMIT, _divmod

_DIGIT_CHUNK = 4000  # digits per int/str conversion, under the 4300 default


def _digit_limit() -> int:
    """The interpreter's int/str digit limit now; 4300, the default, where
    it sets none (0, or a Python before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _int_to_decimal(n: int) -> str:
    """Decimal text of n >= 0, split by squared powers of ten into short pieces.

    Each split is a 2k-by-k division, which arith._divmod does by recursive
    division, so the conversion costs a few Karatsuba products per level
    rather than CPython's quadratic int-to-str.
    """
    piece = min(_DIGIT_CHUNK, _digit_limit())
    powers = [10**piece]  # powers[i] = 10 ** (piece * 2**i)
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def padded(m: int, i: int) -> str:  # m < powers[i], zero-padded
        if i == 0:
            return str(m).rjust(piece, "0")
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
    width = min(_DIGIT_CHUNK, _digit_limit())
    if len(text) <= width:
        return int(text)
    while 2 * width < len(text):
        width *= 2
    # text[:-width] is at most width digits long, so the split halves it
    return _parse_digits(text[:-width]) * 10**width + _parse_digits(text[-width:])


class _Record:
    """A dataclass whose JSON form is its own fields."""

    def to_json(self) -> dict:
        """The fields in order, nested records as their JSON, None ones left out."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value.to_json() if isinstance(value, _Record) else value
        return out


@dataclass(frozen=True)
class Rational(_Record):
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


# the kind column holds each class's position in KINDS
KINDS = ("forced", "greedy", "matched")
FORCED, GREEDY, MATCHED = range(len(KINDS))
_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}


def _columns(p, a) -> tuple[np.ndarray, np.ndarray]:
    """p and a as two columns of one dtype: int64 where every value lies
    within COLUMN_LIMIT, otherwise object columns of Python ints, which the
    same numpy expressions serve."""
    try:
        p64, a64 = np.asarray(p, dtype=np.int64), np.asarray(a, dtype=np.int64)
        if not p64.size or (
            -COLUMN_LIMIT <= min(p64.min(), a64.min())
            and max(p64.max(), a64.max()) < COLUMN_LIMIT
        ):
            return p64, a64
    except OverflowError:
        pass
    return np.asarray(p, dtype=object), np.asarray(a, dtype=object)


class ClassTable:
    """Residue classes a mod p as three parallel columns: p, a and kind.

    kind holds codes into KINDS; one code stands for every class.  A code
    outside range(len(KINDS)) raises ValueError.  A table equals another
    table with the same columns.
    """

    __slots__ = ("p", "a", "kind")

    def __init__(self, p, a, kind):
        self.p, self.a = _columns(p, a)
        kind = np.asarray(kind)
        if kind.size and not 0 <= kind.min() <= kind.max() < len(KINDS):
            raise ValueError(f"class kind codes must lie in [0, {len(KINDS)})")
        kind = kind.astype(np.int8, copy=False)
        self.kind = np.full(len(self.p), kind) if kind.ndim == 0 else kind
        if not len(self.p) == len(self.a) == len(self.kind):
            raise ValueError("class columns differ in length")

    @classmethod
    def concat(cls, *tables: "ClassTable") -> "ClassTable":
        """The classes of each table in turn."""
        return cls._of_tables(*(np.concatenate([getattr(t, col) for t in tables])
                                for col in ("p", "a", "kind")))

    def select(self, mask: np.ndarray) -> "ClassTable":
        return self._of_tables(self.p[mask], self.a[mask], self.kind[mask])

    @classmethod
    def _of_tables(cls, p: np.ndarray, a: np.ndarray, kind: np.ndarray) -> "ClassTable":
        """A table of columns cut or joined from tables' columns.

        Values of int64 columns fit already, so int64 columns are kept as
        they are; an object column may now fit, and goes through __init__.
        """
        if p.dtype != np.int64 or a.dtype != np.int64:
            return cls(p, a, kind)
        table = cls.__new__(cls)
        table.p, table.a, table.kind = p, a, kind
        return table

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, col), getattr(other, col))
                   for col in ("kind", "p", "a"))

    def __repr__(self) -> str:
        return f"ClassTable(p={self.p!r}, a={self.a!r}, kind={self.kind!r})"


@dataclass(frozen=True)
class GapRecord(_Record):
    """A gap between consecutive members of some set, with witnesses.

    hi - lo = gap, and no member of the set lies strictly between lo and hi.
    Witnesses from certificate-derived records may exceed 64 bits.
    """

    gap: int
    lo: int
    hi: int


@dataclass(frozen=True)
class ProgressionStats(_Record):
    """Measured prime count in the progression b mod q up to x.

    delta is the exact deficit parameter count * phi(q) / x.
    """

    q: int
    b: int
    x: int
    count: int
    delta: Rational


@dataclass(frozen=True)
class JacobsthalValue(_Record):
    """A value of (or lower bound on) the maximal rough-number gap at u.

    exact values come from the covering search; bounds come from certificates,
    in which case value = y + 2 and gap_lower_rational carries the reported
    (x - b)/q form.
    """

    u: int
    value: int
    witness: GapRecord
    exact: bool
    gap_lower_rational: Optional[Rational] = None


@dataclass(frozen=True)
class CrtWitness:
    """Integer T with T == -a_p (mod p) for each class, P the product of the primes.

    For the classes of a covering certificate, every T + n with 0 <= n <= y
    is then divisible by a class prime.
    """

    T: int
    P: int


@dataclass(frozen=True)
class ScenarioResult(_Record):
    """Log-space evaluation of the gap bound for hypothetical (q, delta, B)."""

    log_q: float
    delta: float
    B: float
    log_x: float
    log_u: float
    log_gap_bound: float


@dataclass(frozen=True)
class CoveringCertificate:
    """Everything needed to re-check one run of the covering construction."""

    x: int
    q: int
    b: int
    delta: Rational
    u: int
    y: int
    classes: ClassTable
    survivors_initial: int
    survivors_after_greedy: int

    def __post_init__(self):
        if not isinstance(self.classes, ClassTable):
            raise TypeError(f"classes is a {type(self.classes).__name__}, not a ClassTable")

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
    t = cert.classes
    classes = [{"p": p, "a": a, "kind": KINDS[k]}
               for p, a, k in zip(t.p.tolist(), t.a.tolist(), t.kind.tolist())]
    return {**head, "classes": classes, **tail}


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
    directly, each from its kind's template in _KIND_RECORDS, which already
    holds the kind's text and takes p and a; the few other fields are
    _frame's, through json.dumps, and the pieces are joined once.
    """
    before, after = _frame(*_certificate_fields(cert, witness))
    pieces = [before]
    t = cert.classes
    if len(t):
        # one %-format of every record at once, p and a interleaved
        fields = [None] * (2 * len(t))
        fields[0::2], fields[1::2] = t.p.tolist(), t.a.tolist()
        records = ",\n".join(map(_KIND_RECORDS.__getitem__, t.kind.tolist()))
        pieces += ["[\n", records % tuple(fields), "\n  ]"]
    else:
        pieces.append("[]")
    pieces.append(after)
    return "".join(pieces)


_CLASSES = ',\n  "classes": '


def _frame(head: dict, tail: dict) -> tuple[str, str]:
    """certificate_to_json's text before the class records and after them,
    around the fields before "classes" and those after it."""
    # the writer's dicts are non-empty: drop head's closing "\n}" and
    # tail's "{\n"
    return (json.dumps(head, indent=2)[:-2] + _CLASSES,
            ",\n" + json.dumps(tail, indent=2)[2:] + "\n")


_CLASS_RECORD = '    {\n      "p": %d,\n      "a": %d,\n      "kind": "%s"\n    }'
_KIND_RECORDS = [_CLASS_RECORD.replace("%s", kind) for kind in KINDS]


def _json_int(value) -> int:
    """value itself when it is a JSON integer (a Python int, not a bool)."""
    if type(value) is not int:
        raise ValueError(f"expected a JSON integer, got {value!r:.40}")
    return value


def _json_ints(values: list) -> list:
    if not set(map(type, values)) <= {int}:
        _json_int(next(v for v in values if type(v) is not int))
    return values


def _class_table(classes: list) -> ClassTable:
    """The table of a certificate's "classes" list, each value checked."""
    if type(classes) is not list:
        raise ValueError(f'expected "classes" to be a JSON list, got {classes!r:.40}')
    p, a, kinds = (list(map(itemgetter(key), classes)) for key in ("p", "a", "kind"))
    try:
        codes = list(map(_KIND_CODE.__getitem__, kinds))
    except (KeyError, TypeError):  # unknown or unhashable; verify prints this text
        text = next(k for k in kinds if not isinstance(k, str) or k not in _KIND_CODE)
        raise ValueError(f"{text!r} is not a valid ClassKind") from None
    return ClassTable(_json_ints(p), _json_ints(a), codes)


def certificate_from_dict(obj: dict) -> tuple[CoveringCertificate, Optional[CrtWitness]]:
    """Parse a certificate dict; returns (certificate, stored witness or None).

    Every count, parameter, delta part, modulus and residue must be a JSON
    integer: a float, a string or a bool is refused, not converted.  Raises
    KeyError / ValueError / TypeError on malformed input; callers that need
    an I/O-style failure should catch those.
    """
    return _certificate(obj)


def _certificate(
    obj: dict, classes: Optional[ClassTable] = None
) -> tuple[CoveringCertificate, Optional[CrtWitness]]:
    """certificate_from_dict, given the class table when it is read already."""
    cert = CoveringCertificate(
        x=_json_int(obj["x"]),
        q=_json_int(obj["q"]),
        b=_json_int(obj["b"]),
        delta=Rational(_json_int(obj["delta"]["num"]), _json_int(obj["delta"]["den"])),
        u=_json_int(obj["u"]),
        y=_json_int(obj["y"]),
        classes=_class_table(obj["classes"]) if classes is None else classes,
        survivors_initial=_json_int(obj["survivors_initial"]),
        survivors_after_greedy=_json_int(obj["survivors_after_greedy"]),
    )
    witness = None
    if "witness" in obj:
        # P is the product of the class primes and T <= P, so neither has
        # more digits than the primes together; longer text is refused
        # before any conversion work.
        w = obj["witness"]
        digits = max(1, sum(map(len, map(str, cert.classes.p.tolist()))))
        witness = CrtWitness(
            T=_decimal_to_int(w["T"], digits),
            P=_decimal_to_int(w["P"], digits),
        )
    return cert, witness


def certificate_from_text(text: str) -> tuple[CoveringCertificate, Optional[CrtWitness]]:
    """Parse certificate JSON text; returns (certificate, stored witness or None).

    Text that is the writer's frame around class records in the writer's
    layout has its records read straight into the table's columns, with no
    Python object per record; any other text is
    certificate_from_dict(json.loads(text)).  Both give the same
    certificate, and both raise the same exceptions with the same messages.
    """
    fields = _canonical_fields(text)
    if fields is None:
        return certificate_from_dict(json.loads(text))
    return _certificate(*fields)


def _canonical_fields(text: str) -> Optional[tuple[dict, ClassTable]]:
    """The certificate dict without its class records, and their table.

    The head, the text before the first _CLASSES, and the tail, from the
    last "],\n  ", are read by json.  None unless _frame gives them back as
    the text around the records, the tail holds no "classes" and
    _class_records reads the records.  text is then the head's fields,
    "classes" and the tail's, so json reads it as the head's fields updated
    by the tail's, with the records as "classes".
    """
    if not text.isascii():
        return None
    cut = text.find(_CLASSES)
    start, stop = cut + len(_CLASSES), text.rfind("],\n  ") + 1
    if cut < 0 or stop <= start:
        return None
    try:
        # the head ends in the "}" added and the tail starts with the "{",
        # so each reads as a dict or not at all
        head = json.loads(text[:cut] + "}")
        tail = json.loads("{" + text[stop + 1:])
    except (ValueError, RecursionError):
        return None
    # json keeps a repeated key's last value: a "classes" in the tail
    # would replace the records
    if "classes" in tail or _frame(head, tail) != (text[:start], text[stop:]):
        return None
    table = _class_records(text, start, stop)
    return None if table is None else ({**head, **tail}, table)


# Every record value the columns read has at most 16 digits, two words of
# eight bytes.  Longer ones, which the columns could not hold as int64
# anyway, go through json.
_INT_DIGITS = 16


# The records are "[\n" + the _CLASS_RECORDs joined by ",\n" + "\n  ]".
# Between their values lie fixed texts: _FIRST before the first P,
# _BETWEEN_PA from each P to its A, and _AFTER_A[k] from each A of kind k
# up to the next record's P, or _LAST[k] from the last A to the end.
_TO_P, _BETWEEN, _KIND_AND_END = _CLASS_RECORD.split("%d")
_FIRST = "[\n" + _TO_P
_BETWEEN_PA = np.frombuffer(_BETWEEN.encode(), np.uint8)
_AFTER_A = [_KIND_AND_END % kind + ",\n" + _TO_P for kind in KINDS]
_LAST = [_KIND_AND_END % kind + "\n  ]" for kind in KINDS]
# Each _AFTER_A[k] is read as its last _WIDTH bytes, which leave out at
# most its first, the comma the scan found; the row ends at the next
# record's P, and its one comma is the next record's
_WIDTH = min(map(len, _AFTER_A))
_SKIP = np.array([len(t) - _WIDTH for t in _AFTER_A])
_AFTER_A_ROWS = np.array([np.frombuffer(t[-_WIDTH:].encode(), np.uint8) for t in _AFTER_A])
# where the kind's first letter, which names it, lies in every _AFTER_A[k]
_KIND_LETTER_AT = _AFTER_A[0].index(KINDS[0])
# no read ends more than _REACH bytes past the comma it starts from
_REACH = max(map(len, _AFTER_A))
# a little-endian word of eight bytes holds its first byte lowest:
# _LAST_BYTES[k] keeps a word's last k bytes; _ZEROS is eight "0"s,
# _SIXES eight 6s and _HIGH_HALVES the high four bits of each byte
_LAST_BYTES = np.array([2**64 - 2 ** (8 * (8 - k)) for k in range(9)], np.uint64).view(np.int64)
_ZEROS = int.from_bytes(b"0" * 8, "little")
_SIXES = int.from_bytes(b"\x06" * 8, "little")
_HIGH_HALVES = np.uint64(int.from_bytes(b"\xf0" * 8, "little")).view(np.int64)


def _class_records(text: str, start: int, stop: int) -> Optional[ClassTable]:
    """The table of text[start:stop], the "classes" list from "[" to "]".

    None unless every record is in certificate_to_json's layout.  Every
    byte is checked: one scan finds the commas, each of which starts a
    fixed text, and every byte from one fixed text to the next must be
    part of a value.  The scan reads one byte copy of text, and text
    whose last comma before stop lies within _REACH bytes of its end,
    where a read could pass it, is refused.
    """
    if stop - start == 2 and text[start] == "[":
        return ClassTable([], [], [])
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    commas = np.flatnonzero(buf[start:stop] == ord(","))
    n, rest = divmod(len(commas) + 1, 3)
    if rest or not text.startswith(_FIRST, start):
        return None
    commas += start
    if commas[-1] + _REACH > len(buf):
        return None
    p_end, a_end, next_record = commas[0::3], commas[1::3], commas[2::3]
    # each kind's code from the letter it starts with, any other letter 0;
    # the reads below check the whole kind.  The codes are set by masks in
    # int64, not looked up by the bytes: a byte index, like a byte-to-int64
    # cast, runs numpy code no other command runs, and adds its pages to
    # the process's resident set
    letter = buf[a_end + _KIND_LETTER_AT]
    kind = np.zeros(n, np.int64)
    for code, word in enumerate(KINDS):
        kind[letter == ord(word[0])] = code
    inner = kind[:-1]  # the kinds of every record but the last
    if not (text[a_end[-1]:stop] == _LAST[kind[-1]]
            and (_read(buf, p_end, len(_BETWEEN_PA)) == _BETWEEN_PA).all()
            and (_read(buf, a_end[:-1] + _SKIP[inner], _WIDTH) == _AFTER_A_ROWS[inner]).all()):
        return None
    p_start = np.concatenate(([start], next_record)) + len(_FIRST)
    values = _int_runs(buf, np.concatenate((p_start, p_end + len(_BETWEEN_PA))),
                       np.concatenate((p_end, a_end)))
    if values is None:
        return None
    return ClassTable(values[:n], values[n:], kind.astype(np.int8))


def _read(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The width bytes of buf at each position in at, one row each."""
    # windows[i] is buf[i:i + width] as one item, so a row is one copy
    windows = np.ndarray((len(buf) - width + 1,), np.dtype((np.void, width)), buf,
                         strides=(1,))
    return windows[at].view(np.uint8).reshape(-1, width)


def _int_runs(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Optional[np.ndarray]:
    """The integers buf[starts[i]:ends[i]], or None unless each is a JSON
    integer as json.dumps writes it, of at most _INT_DIGITS digits."""
    negative = buf[starts] == ord("-")
    starts = np.where(negative, starts + 1, starts)
    width = ends - starts
    if not (width.min() >= 1 and width.max() <= _INT_DIGITS):
        return None
    if ((buf[starts] == ord("0")) & ((width > 1) | negative)).any():
        return None  # a leading zero, or -0
    # each run right-aligned in 16 bytes, two little-endian int64 words
    words = _read(buf, ends - 16, 16).view("<i8")
    value, digits = _eight_digits(words[:, 1], width)
    if width.max() > 8:
        high, high_digits = _eight_digits(words[:, 0], width - 8)
        value += 10**8 * high
        digits &= high_digits
    return np.where(negative, -value, value) if digits.all() else None


def _eight_digits(words: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each word's last min(width, 8) bytes, and whether they
    are all digits.

    The bytes before them are read as "0"s.  A byte is a digit when its
    high half is 3, also after adding 6 (the text is ASCII, so no byte
    carries into the next).  Then pairs, quadruples and the eight digits
    combine within the word (the SWAR parse of eight digits); no lane
    overflows into the next, and no value reaches the sign bit, so the
    shifts need not be unsigned.
    """
    keep = _LAST_BYTES[np.clip(width, 0, 8)]
    chars = (words & keep) | (_ZEROS & ~keep)
    digits = ((chars & _HIGH_HALVES) == _ZEROS) & (((chars + _SIXES) & _HIGH_HALVES) == _ZEROS)
    chars -= _ZEROS
    pairs = (chars * 10 + (chars >> 8)) & 0x00FF00FF00FF00FF
    quads = (pairs * 100 + (pairs >> 16)) & 0x0000FFFF0000FFFF
    return (quads * 10000 + (quads >> 32)) & 0xFFFFFFFF, digits
