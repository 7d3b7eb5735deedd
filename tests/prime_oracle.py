"""The tests' independent oracle for prime lists.

A plain bytearray Eratosthenes that shares no code with gapforge, whose
primes all come from numpy sieves.
"""

import math


def small_primes_up_to(n: int) -> list[int]:
    """The primes <= n, ascending."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * ((n - p * p) // p + 1)
    return [i for i in range(2, n + 1) if flags[i]]
