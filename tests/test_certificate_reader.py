"""certificate_from_text against its oracle, certificate_from_dict(json.loads(text)).

Text that is the writer's frame, around class records in the writer's
layout, has its records read straight into the columns; any other text
goes through json.  Whatever the text, the reader must give the oracle's
fields, an equal class table with the same dtypes and an equal witness,
or raise the oracle's exception type with the oracle's message.  The
inputs are the acceptance grid's certificates, with and without a
witness, certificates of 0 and 1 classes, and mutants of canonical text,
each applied to the head, to the first, a middle and the last record, to
the tail, or to the whole text.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import gapforge as gf
from gapforge import model
from gapforge.covering import crt_witness
from gapforge.model import (
    MATCHED,
    ClassTable,
    CoveringCertificate,
    CrtWitness,
    Rational,
    certificate_from_dict,
    certificate_from_text,
    certificate_to_json,
)


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # the reader and the oracle must fail alike
        return type(exc), str(exc)


def assert_reads_as_oracle(text):
    got = _outcome(certificate_from_text, text)
    want = _outcome(lambda t: certificate_from_dict(json.loads(t)), text)
    if isinstance(want[0], type):
        assert got == want
        return
    (cert, witness), (want_cert, want_witness) = got, want
    assert cert == want_cert and witness == want_witness
    for column in ("p", "a", "kind"):
        assert getattr(cert.classes, column).dtype == getattr(want_cert.classes, column).dtype


def _is_canonical(text):
    return model._canonical_fields(text) is not None


def _grid_certificates():
    """The acceptance grid: x in 10^3..10^5, q each prime power up to 120,
    b the unit with the fewest primes below x."""
    certs = []
    for x in (10**3, 10**4, 10**5):
        primes = gf.primes_up_to(x)
        for q in (q for q in range(2, 121) if len(gf.factorize(q)) == 1):
            counts = np.bincount(np.asarray(primes) % q, minlength=q)
            b = min((b for b in range(1, q) if math.gcd(b, q) == 1),
                    key=lambda b: (counts[b], b))
            try:
                certs.append(gf.build_certificate(x, q, b))
            except gf.InsufficientPrimes:
                pass
    return certs


GRID = _grid_certificates()
SMALL = [
    CoveringCertificate(x=2, q=1, b=0, delta=Rational(0), u=3, y=2,
                        classes=ClassTable([], [], []), survivors_initial=0,
                        survivors_after_greedy=0),
    CoveringCertificate(x=0, q=1, b=0, delta=Rational(1, 3), u=2, y=0,
                        classes=ClassTable([2], [0], MATCHED),
                        survivors_initial=1, survivors_after_greedy=1),
]


def test_the_grid_reads_as_json_does():
    assert len(GRID) > 100
    for cert in GRID:
        text = certificate_to_json(cert)
        assert _is_canonical(text)
        assert certificate_from_text(text)[0] == cert
        assert_reads_as_oracle(text)


def test_stored_witnesses_read_as_json_does():
    for cert in [c for c in GRID if len(c.classes) < 3000][::8] + [GRID[-1]]:
        text = certificate_to_json(cert, crt_witness(cert))
        assert _is_canonical(text)
        assert_reads_as_oracle(text)


@pytest.mark.parametrize("witness", [None, CrtWitness(T=1, P=2), CrtWitness(T=6, P=6)])
def test_zero_and_one_class_read_as_json_does(witness):
    for cert in SMALL:
        text = certificate_to_json(cert, witness)
        assert _is_canonical(text)
        assert_reads_as_oracle(text)


def test_values_of_every_width_read_as_json_does():
    # 1 to 16 digits go through the columns' two words, 17 through json
    rng = np.random.default_rng(5)
    for width in range(1, 18):
        values = [int(rng.integers(10 ** (width - 1) if width > 1 else 0, 10**width))
                  for _ in range(60)]
        values = [v if i % 3 else -v for i, v in enumerate(values)]
        cert = SMALL[1]
        table = ClassTable(values, values[::-1], rng.integers(0, 3, len(values)))
        text = certificate_to_json(dataclasses.replace(cert, classes=table))
        assert _is_canonical(text) == (width <= 16)
        assert_reads_as_oracle(text)
        assert certificate_from_text(text)[0].classes == table


BASE = gf.build_certificate(10**4, 101, 100)
TEXT = certificate_to_json(BASE, crt_witness(BASE))
N_CLASSES = len(BASE.classes)


def _at(pattern, replace, index):
    """A mutant of TEXT: replace the index-th match of pattern (by match)."""
    match = list(re.finditer(pattern, TEXT))[index]
    return TEXT[:match.start()] + replace(match) + TEXT[match.end():]


def _value(field, value):
    """Mutants setting each record's field to value: first, middle and last."""
    return [_at(rf'"{field}": -?[0-9]+', lambda m: f'"{field}": {value}', i)
            for i in (0, N_CLASSES // 2, N_CLASSES - 1)]


def _record_text(old, new):
    """Mutants replacing old, once per record, by new: in the first, a
    middle and the last record."""
    return [_at(re.escape(old), lambda m: new, i) for i in (0, N_CLASSES // 2, -1)]


def _head(pattern, new):
    return re.sub(pattern, new, TEXT, count=1)


MUTANTS = {
    "float": _value("p", "2.5") + _value("a", "1.0") + [_head(r'"x": \d+', '"x": 10000.0')],
    "negative": _value("p", -2) + _value("a", -7) + _value("a", -(2**31))
    + [_head(r'"y": ', '"y": -')],
    "minus_zero": _value("a", "-0") + [_head(r'"b": \d+', '"b": -0')],
    "bool": _value("a", "true") + _value("p", "false"),
    "null": _value("p", "null"),
    "string": _value("p", '"2"'),
    "non_digit": _value("p", "1a345678901") + _value("a", "12-456789012") + _value("p", "12345:")
    + _value("a", "9" * 15 + "/"),
    "unknown_kind": [_at(r'"kind": "[a-z]+"', lambda m: f'"kind": "{kind}"', i)
                     for kind in ("forcex", "fast", "matche", "greedyy", "Forced", "")
                     for i in (0, N_CLASSES // 2, N_CLASSES - 1)],
    "reordered_key": [_head(r'"p": (\d+),\n      "a": (\d+),', r'"a": \2,\n      "p": \1,'),
                      _head(r'  "x": (\d+),\n  "q": (\d+),', r'  "q": \2,\n  "x": \1,'),
                      _head(r'"num": (\d+),\n    "den": (\d+)', r'"den": \2,\n    "num": \1')],
    "duplicate_key": _record_text('"a": ', '"a": 5,\n      "a": ')
    + _record_text('"kind": ', '"kind": "bogus",\n      "kind": ')
    + [_head(r'  "y": ', '  "y": 1,\n  "y": ')],
    "extra_whitespace": _record_text('"p": ', '"p":  ') + _record_text("    },", "    } ,")
    + _record_text(',\n      "kind"', ' ,\n      "kind"')
    + [TEXT.replace("{", "{ ", 1), TEXT.replace("\n  ]", "\n\n  ]"),
       TEXT.replace("\n", "\t\n", 1),
       TEXT[:TEXT.index("[\n") + 1] + "\n  ]" + TEXT[TEXT.index("\n  ],") + 4:]],
    "leading_zero": _value("p", "02") + _value("a", "00") + [_head(r'"u": ', '"u": 0')],
    "wide_values": _value("p", 10**15) + _value("a", 10**16 - 1) + _value("p", -(10**15))
    + _value("a", 2**31) + _value("a", 2**31 - 1) + _value("p", -(2**31) - 1),
    "17_digits": _value("p", 10**16) + _value("a", -(10**16)) + _value("p", 10**17 + 3),
    "19_digits": _value("p", 10**18) + _value("a", 2**63 - 1) + _value("p", 2**63)
    + [_head(r'"x": \d+', f'"x": {10**18}')],
    "4301_digits": _value("p", "7" * 4301) + [_head(r'"x": \d+', '"x": ' + "9" * 4301)],
    "crlf": [TEXT.replace("\n", "\r\n")],
    "bom": ["\ufeff" + TEXT],
    "no_final_newline": [TEXT[:-1]],
    "trailing_text": [TEXT + "x", TEXT + "\n", TEXT + "{}", TEXT[:-1] + " \n"],
    "bad_delta": [_head(r'"den": \d+', '"den": 0'), _head(r'"num": \d+', '"num": -1')],
    "witness": [_head(r'"T": "[0-9]+"', '"T": "' + "9" * 60 + '"'),
                _head(r'"T": "[0-9]+"', '"T": "' + "9" * 5000 + '"'),
                _head(r'"P": "[0-9]+"', '"P": "' + "8" * 5000 + '"'),
                _head(r'"T": "[0-9]+"', '"T": "007"'),
                _head(r'"T": "[0-9]+"', '"T": ""'),
                _head(r'"P": "[0-9]+"', '"P": "12a"'),
                _head(r'"T": "[0-9]+"', '"T": 5'),
                _head(r'  "witness": \{[^}]*\},\n', "")],
    "same_length": _record_text('"p": ', '"P": ') + _record_text("    },", "    ],")
    + _record_text(",\n    {\n", ",\n    [\n") + _record_text('"a": ', '"a"; '),
    "inserted_byte": [_at(r'"matched"', lambda m: '"matched"x', i) for i in (0, 1, -1)]
    + [_at(r'"matched"', lambda m: '"matched" ', i) for i in (0, 1, -1)]
    + [_at(r'"forced"\n', lambda m: '"forced"\n\n', i) for i in (0, 1, -1)],
    "extra_key": [_head(r'  "u": ', '  "note": "extra",\n  "u": '),
                  _head(r'  "bound": ', '  "note": 7,\n  "bound": '),
                  TEXT[:-3] + ',\n  "note": null\n}\n'],
    # json reads the last "classes": after the tail's, none; after the
    # head's, the records
    "classes_key": [TEXT[:-3] + ',\n  "classes": []\n}\n',
                    TEXT.replace("{\n", '{\n  "classes": [],\n', 1)],
    # json reads the tail's value
    "repeated_key": [_head(r'  "bound": ', '  "y": 97,\n  "bound": '),
                     _head(r'  "u": ', '  "witness": 5,\n  "u": ')],
    # the last "],\n  " is the tail's, not the records'
    "tail_list": [_head(r'  "bound": ', '  "note": [],\n  "bound": '),
                  _head(r'  "bound": ', '  "note": [\n    1\n  ],\n  "bound": '),
                  _head(r'  "bound": ', '  "note": [\n    {\n      "p": 2,\n      "a": 0,\n'
                        '      "kind": "forced"\n    }\n  ],\n  "bound": ')],
    # records cut short before the shortest tail: no read may pass the end
    "short_tail": [TEXT[:TEXT.index("[\n")] + '[\n    {\n      "p": 2,\n      "a": 0,]'
                   + ',\n  "": 0\n}\n'],
    "structure": [TEXT.replace("[\n", "[ \n", 1), TEXT.replace("\n  ],", "\n],"),
                  TEXT.replace("    },", "  },", 1), TEXT.replace("},\n    {", "},{", 1),
                  TEXT.replace("},\n    {", "}\n    {", 1),
                  TEXT.replace(',\n      "a"', ',\n     "a"', 1),
                  TEXT[:TEXT.index("[\n") + 1] + "]" + TEXT[TEXT.index("\n  ],") + 3:],
                  TEXT[:TEXT.index("[\n")] + '[\n    {\n      "p": 2\n    }\n  ]'
                  + TEXT[TEXT.index("\n  ],") + 4:],
                  TEXT.replace('"p": ', '"P": ', 1), TEXT.replace(": 2,", ": \u0662,", 1),
                  TEXT.replace(": 2,", ": \u00b2,", 1), TEXT.replace('"a": ', '"a"; ', 1)],
}


def test_the_mutant_base_is_canonical():
    assert _is_canonical(TEXT) and _is_canonical(TEXT.replace('"y": ', '"y": -'))
    assert len(re.findall(r'"p": ', TEXT)) == N_CLASSES > 3


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_read_as_json_does(name):
    for text in MUTANTS[name]:
        assert text != TEXT
        assert_reads_as_oracle(text)


def test_the_columns_read_what_the_writer_can_write():
    # the columns read any head and tail that json reads and the writer's
    # frame gives back, around records of up to 16-digit values: negative
    # values, a bad delta, any witness, extra, reordered and repeated keys
    # outside the records, and a float or a 19-digit x in the head.  A 17th
    # digit in a record, -0 and whatever else json reads but the writer
    # never writes go through json
    every = {"negative", "wide_values", "bad_delta", "witness", "extra_key", "repeated_key"}
    some = {"reordered_key": [1, 2], "19_digits": [9], "float": [6], "classes_key": [1]}
    for name, texts in MUTANTS.items():
        read = [i for i, text in enumerate(texts) if _is_canonical(text)]
        assert read == (list(range(len(texts))) if name in every else some.get(name, [])), name


def test_deep_nesting_raises_recursion_error_as_json_does():
    text = "[" * 100_000 + "]" * 100_000
    assert_reads_as_oracle(text)
    with pytest.raises(RecursionError):
        certificate_from_text(text)
