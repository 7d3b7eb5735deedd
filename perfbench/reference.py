"""The reference kernel: fixed work that measures how fast the host runs now.

The host this benchmark was built on is shared, and its speed drifts in
phases that last minutes: the same round of operations takes up to twice as
long in a slow phase.  The worker runs this kernel before every operation,
so the kernel sees the same phases as the operations, and ``wall_ref`` is a
round's time divided by the kernel's median time in the same run.

The kernel holds the three kinds of work the workloads do: an interpreter
loop of small-int modulo tests (``prime_count_ap``, ``scan``), products and
remainders of big integers (CRT witnesses) and numpy strided strikes (the
sieves), each a few milliseconds, in about 1 MB, so that it adds little to
the worker's peak resident set.  It never imports gapforge, so no change to
gapforge changes it.
It must not change either: every ``wall_ref`` ever reported is in its units.
"""

from __future__ import annotations

import time

import numpy as np

_NUMBERS = range(1_000_003, 1_200_003, 2)
_FACTORS = [(1 << 61) - 1 - 2 * i for i in range(600)]
_STRIKES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _kernel() -> int:
    hits = 0
    for n in _NUMBERS:
        if n % 10_007 == 3:
            hits += 1
    product = 1
    for f in _FACTORS:
        product *= f
    for f in _FACTORS[::4]:
        hits += product % f
    flags = np.ones(1_000_000, dtype=bool)
    for _ in range(4):
        flags[:] = True
        for p in _STRIKES:
            flags[p * p :: p] = False
    return hits + int(np.count_nonzero(flags))


EXPECTED = _kernel()


def reference_s() -> float:
    """Seconds for one run of the kernel; raises if its result ever changes."""
    t0 = time.perf_counter()
    value = _kernel()
    elapsed = time.perf_counter() - t0
    if value != EXPECTED:
        raise RuntimeError("the reference kernel computed a different value")
    return elapsed
