import sys

import pytest

from gapforge import sieve


def _rough_gap_oracle(u, lo, hi):
    """(gap, lo, hi) of the first maximal gap between u-rough integers in [lo, hi].

    Plain trial-division primes and a bytearray sieve over the window; it
    shares no code with gapforge, so it can check the numpy segment kernel.
    """
    primes = [k for k in range(2, u + 1) if all(k % d for d in range(2, k))]
    flags = bytearray(hi - lo + 1)  # 0 = rough
    for p in primes:
        first = -(-lo // p) * p - lo
        flags[first::p] = b"\x01" * len(range(first, hi - lo + 1, p))
    best = (0, 0, 0)
    prev = None
    i = flags.find(0)
    while i != -1:
        if prev is not None and lo + i - prev > best[0]:
            best = (lo + i - prev, prev, lo + i)
        prev = lo + i
        i = flags.find(0, i + 1)
    return best


@pytest.fixture
def rough_gap_oracle():
    return _rough_gap_oracle


@pytest.fixture
def segment(monkeypatch):
    """segment(n) makes the sieve kernel take n terms per segment until the
    test ends; the results must not depend on it."""
    def set_segment(n):
        monkeypatch.setattr(sieve, "_SEGMENT", n)
    return set_segment


@pytest.fixture
def lowest_digit_limit():
    """Runs the test at 640, the lowest int/str digit limit the interpreter
    accepts, and restores the limit afterwards; skipped where the
    interpreter has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)
